"""Labeled transition systems: behaviors, paths, and two graph walks.

A behavior is a finite set of named states with one initial state, a finite
label set, a labeled transition relation, and an optional set of declared
final states. A path is an alternating state/label sequence; a single state
is a valid degenerate path.

The walks: `enumerate_simple_paths` behind `avm paths`, and Tarjan's
`integer_components` over a behavior's states numbered by `_numbered`,
behind the synchronization check and `find_deadlocks`.
"""

import re
from functools import cached_property
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
        """Per state, the outgoing (label, target) pairs in sorted order, for the
        sync walk and `paths`."""
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


def build_behavior(states, initial, labels, transitions, finals=()) -> Behavior:
    """Construct a validated Behavior; raises ModelValidationError listing every
    defect: each name that is no identifier, an initial or final state that
    is not declared, and each transition, in order, whose endpoint is not a
    state, whose label is not declared, or that repeats one before it. The
    behavior keeps the transitions in the order given; it equals and hashes
    as one built from them in any other order."""
    states = frozenset(states)
    labels = frozenset(labels)
    finals = frozenset(finals)
    transitions = tuple(Transition(*t) for t in transitions)
    findings: list[Finding] = []

    def error(code: str, subject: str, detail: str) -> None:
        findings.append(Finding("error", code, subject, detail))

    if not states:
        error("empty-state-set", "<behavior>", "behavior declares no states")
        raise ModelValidationError(findings)

    for name in sorted(name for name in states | labels if not NAME_RE.fullmatch(name)):
        error("invalid-identifier", name,
              "identifiers are letters, digits and underscore, not starting with a digit")

    if initial not in states:
        error("bad-initial", str(initial), "initial state is not a declared state")
    for name in sorted(finals - states):
        error("unknown-state", name, "final state is not a declared state")

    seen: set[Transition] = set()
    for t in transitions:
        if t.source not in states:
            error("unknown-state", t.source, f"transition {t} leaves an unknown state")
        if t.target not in states:
            error("unknown-state", t.target, f"transition {t} enters an unknown state")
        if t.label not in labels:
            error("unknown-label", t.label, f"transition {t} uses an undeclared label")
        if t in seen:
            error("duplicate-transition", str(t), "transition appears more than once")
        seen.add(t)
    if findings:
        raise ModelValidationError(findings)
    return Behavior(states, initial, labels, transitions, finals)


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


def _numbered(behavior: Behavior) -> tuple[dict[str, int], list[list[int]]]:
    """(number, successors): the states in set order; per number, its edges' targets."""
    number = {state: i for i, state in enumerate(behavior.states)}
    successors: list[list[int]] = [[] for _ in number]
    for source, _, target in behavior.transitions:
        successors[number[source]].append(number[target])
    return number, successors


def integer_components(successors: list[list[int]], roots) -> tuple[list[list[int]], list[int]]:
    """Tarjan's strongly connected components, without recursion, of the
    vertices that `roots` reach in the graph `successors` (v's successors at
    index v): the components, each listed after every component it reaches,
    and per vertex its component's place in that list, or -1. A vertex's
    index is its place on Tarjan's stack, where it stays until its component
    is complete; it is on the stack while it has an index and no component."""
    index, low, component = ([-1] * len(successors) for _ in range(3))
    out: list[list[int]] = []
    for root in roots:
        if index[root] >= 0:
            continue
        # The depth-first path (each vertex, its successors left) and the stack, empty at a root.
        work, stack = [(root, iter(successors[root]))], [root]
        index[root] = low[root] = 0
        while work:
            v, successors_left = work[-1]
            for w in successors_left:
                if index[w] < 0:
                    work.append((w, iter(successors[w])))
                    index[w] = low[w] = len(stack)
                    stack.append(w)
                    break
                if component[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    for w in stack[index[v]:]:
                        component[w] = len(out)
                    out.append(stack[index[v]:])
                    del stack[index[v]:]
    return out, component


def find_deadlocks(behavior: Behavior) -> frozenset[str]:
    """Reachable states with no outgoing transition that are not declared final."""
    number, successors = _numbered(behavior)
    component = integer_components(successors, [number[behavior.initial]])[1]
    return frozenset(s for s, v in number.items()
                     if component[v] >= 0 and not successors[v] and s not in behavior.finals)
