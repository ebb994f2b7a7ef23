"""Labeled transition systems: behaviors, paths, and three graph walks.

A behavior is a finite set of named states with one initial state, a finite
label set, a labeled transition relation, and an optional set of declared
final states. A path is an alternating state/label sequence; a single state
is a valid degenerate path.

The walks: `enumerate_simple_paths` behind `avm paths`,
`strongly_connected_components` behind the synchronization check, and
`find_deadlocks`, which reads the reachable states off those components.
"""

import re
from functools import cached_property
from itertools import repeat
from typing import Iterator, NamedTuple

from .report import Finding, ModelValidationError

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Frozen:
    """Immutable values over `__slots__`, the base of the hand-written model
    classes, which behave as frozen dataclasses of their slots would:

    - a constructor sets the slots past `__setattr__`, and assignment and
      deletion raise `dataclasses.FrozenInstanceError`;
    - values of one class are equal when their `_key()`s are, the fields
      that make up their identity, and hash by it;
    - repr shows every field, and pickle and copy rebuild a value through
      its constructor with the fields in order.

    A class that caches properties lists `__dict__` last among its slots;
    it is not a field."""

    __slots__ = ()

    def _fields(self) -> list[tuple[str, object]]:
        """(name, value) of each field, in slot order."""
        return [(name, getattr(self, name)) for name in self.__slots__ if name != "__dict__"]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields())
        return f"{type(self).__qualname__}({fields})"

    # `dataclasses` imports `inspect`; only a failing assignment pays for it.
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # Rebuild through the constructor: restoring slots by assignment would raise.
    def __reduce__(self):
        return type(self), tuple(value for _, value in self._fields())


class UnknownStateError(ValueError):
    """An operation was asked about a state the behavior does not have."""

    def __init__(self, state: str):
        super().__init__(f"unknown state: {state}")
        self.state = state


class Transition(NamedTuple):
    source: str
    label: str
    target: str

    def __str__(self) -> str:
        return f"{self.source} -{self.label}-> {self.target}"


class Behavior(_Frozen):
    """An immutable labeled transition system. `transitions` keeps the order
    it was given in (a parsed behavior's is document order); equality and
    hash are over their set, `transition_set`."""

    __slots__ = ("states", "initial", "labels", "transitions", "finals", "__dict__")

    def __init__(self, states: frozenset[str], initial: str, labels: frozenset[str],
                 transitions: tuple[Transition, ...], finals: frozenset[str] = frozenset()):
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "finals", finals)

    def _key(self) -> tuple:
        return (self.states, self.initial, self.labels, self.transition_set, self.finals)

    @cached_property
    def transition_set(self) -> frozenset[Transition]:
        return frozenset(self.transitions)

    @cached_property
    def successor_map(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """Per state, the outgoing (label, target) pairs in sorted order."""
        out: dict[str, list[tuple[str, str]]] = {s: [] for s in self.states}
        for t in self.transitions:
            out[t.source].append((t.label, t.target))
        return {s: tuple(sorted(pairs)) for s, pairs in out.items()}


class Path(_Frozen):
    """An alternating state/label sequence; length-1 paths carry zero labels."""

    __slots__ = ("states", "labels")

    def __init__(self, states, labels=()):
        states, labels = tuple(states), tuple(labels)
        if len(states) < 1:
            raise ValueError("a path needs at least one state")
        if len(labels) != len(states) - 1:
            raise ValueError("a path over n states carries exactly n-1 labels")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", labels)

    def _key(self) -> tuple:
        return (self.states, self.labels)

    @property
    def first(self) -> str:
        return self.states[0]

    @property
    def last(self) -> str:
        return self.states[-1]

    def triples(self) -> Iterator[Transition]:
        for i, label in enumerate(self.labels):
            yield Transition(self.states[i], label, self.states[i + 1])

    def __str__(self) -> str:
        parts = [self.states[0]]
        for label, state in zip(self.labels, self.states[1:]):
            parts.append(f"-{label}-> {state}")
        return " ".join(parts)


def path_order(path: Path) -> tuple:
    """The sort key that lists paths by label sequence, then by states."""
    return path.labels, path.states


def _as_transition(t) -> Transition:
    if isinstance(t, Transition):
        return t
    source, label, target = t
    return Transition(source, label, target)


def all_identifiers(names) -> bool:
    """Whether every string in `names` is an identifier, one `NAME_RE` matches
    in full. An ASCII string is a Python identifier exactly when it is such
    a name, and both tests run in C, a whole collection per call."""
    return all(map(str.isidentifier, names)) and all(map(str.isascii, names))


def build_behavior(states, initial, labels, transitions, finals=(), positions=None,
                   place=lambda spot: spot) -> Behavior:
    """Construct a validated Behavior; raises ModelValidationError listing every
    defect. `positions`, when given, holds one spot per transition, and
    `place(spot)` is the SourcePos of a finding about that transition, asked
    for only for the findings made.

    It proves in bulk, reports item by item: calls that each run over a whole
    collection in C show that every transition is a `Transition`, every name
    an identifier, every endpoint a state, every label declared and no
    transition repeated, and only a check that fails walks its items one by
    one, in order, to convert them or to make the findings. The behavior
    keeps the transitions in the order given; it equals and hashes as one
    built from them in any other order."""
    states = frozenset(states)
    labels = frozenset(labels)
    finals = frozenset(finals)
    transitions = list(transitions)
    if not all(map(isinstance, transitions, repeat(Transition))):
        transitions = [_as_transition(t) for t in transitions]
    findings: list[Finding] = []

    def error(code: str, subject: str, detail: str, spot=None) -> None:
        findings.append(Finding("error", code, subject, detail,
                                None if spot is None else place(spot)))

    if not states:
        error("empty-state-set", "<behavior>", "behavior declares no states")
        raise ModelValidationError(findings)

    names = states | labels
    if not all_identifiers(names):
        for name in sorted(name for name in names if not NAME_RE.fullmatch(name)):
            error("invalid-identifier", name,
                  "identifiers are letters, digits and underscore, not starting with a digit")

    if initial not in states:
        error("bad-initial", str(initial), "initial state is not a declared state")
    for name in sorted(finals - states):
        error("unknown-state", name, "final state is not a declared state")

    sources, used, targets = zip(*transitions) if transitions else ((), (), ())
    if not (states.issuperset(sources) and states.issuperset(targets)
            and labels.issuperset(used) and len(set(transitions)) == len(transitions)):
        positions = [None] * len(transitions) if positions is None else list(positions)
        seen: set[Transition] = set()
        for t, spot in zip(transitions, positions, strict=True):
            if t.source not in states:
                error("unknown-state", t.source, f"transition {t} leaves an unknown state", spot)
            if t.target not in states:
                error("unknown-state", t.target, f"transition {t} enters an unknown state", spot)
            if t.label not in labels:
                error("unknown-label", t.label, f"transition {t} uses an undeclared label", spot)
            if t in seen:
                error("duplicate-transition", str(t), "transition appears more than once", spot)
            seen.add(t)
    if findings:
        raise ModelValidationError(findings)
    return Behavior(states, initial, labels, tuple(transitions), finals)


def enumerate_simple_paths(behavior: Behavior, source: str, target: str) -> list[Path]:
    """All paths from source to target with no repeated state.

    Output order is lexicographic by label sequence (ties broken by state
    names), so listings and reports are stable across runs.
    """
    for s in (source, target):
        if s not in behavior.states:
            raise UnknownStateError(s)
    if source == target:
        return [Path((source,))]

    out: list[Path] = []
    states_acc = [source]
    labels_acc: list[str] = []
    visited = {source}
    # One successor iterator per state on the current path, deepest last.
    pending = [iter(behavior.successor_map[source])]
    while pending:
        for label, nxt in pending[-1]:
            if nxt in visited:
                continue
            if nxt == target:
                out.append(Path((*states_acc, nxt), (*labels_acc, label)))
                continue
            states_acc.append(nxt)
            labels_acc.append(label)
            visited.add(nxt)
            pending.append(iter(behavior.successor_map[nxt]))
            break
        else:
            pending.pop()
            visited.discard(states_acc.pop())
            if labels_acc:
                labels_acc.pop()
    out.sort(key=path_order)
    return out


def strongly_connected_components(behavior: Behavior, roots) -> list[tuple[str, ...]]:
    """The strongly connected components of the states reachable from `roots`,
    by Tarjan's algorithm without recursion. A component is listed after
    every component it can reach, so the list is a reverse topological order
    of the condensation."""
    successor_map = behavior.successor_map
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    out: list[tuple[str, ...]] = []
    for root in roots:
        if root in index:
            continue
        # The depth-first path: each state with the successors it has left.
        work = [(root, iter(successor_map[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            state, successors_left = work[-1]
            for _, nxt in successors_left:
                if nxt not in index:
                    work.append((nxt, iter(successor_map[nxt])))
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    break
                if nxt in on_stack and index[nxt] < low[state]:
                    low[state] = index[nxt]
            else:
                work.pop()
                if work and low[state] < low[work[-1][0]]:
                    low[work[-1][0]] = low[state]
                if low[state] == index[state]:
                    start = len(stack) - 1
                    while stack[start] != state:
                        start -= 1
                    out.append(tuple(stack[start:]))
                    del stack[start:]
                    on_stack.difference_update(out[-1])
    return out


def find_deadlocks(behavior: Behavior) -> frozenset[str]:
    """Reachable states with no outgoing transition that are not declared final."""
    return frozenset(
        s
        for component in strongly_connected_components(behavior, [behavior.initial])
        for s in component
        if not behavior.successor_map[s] and s not in behavior.finals
    )
