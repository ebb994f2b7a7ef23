"""Kripke structures and twin CTL engines.

Behaviors convert to Kripke structures by erasing transition labels and
totalizing dead-end states with self-loops. Formulas are then checked two
ways, and both return the exact satisfying state set:

- the explicit engine (the oracle) labels states in time linear in the
  structure, as in Clarke, Emerson and Sistla: EX is a union of predecessor
  lists, EU a backward worklist from the goal states, and EG peels states
  with no successor left inside the operand's states;
- the symbolic engine works on BDDs over binary-encoded states. One BDD
  context is built per structure and shared by every formula checked on it.
  Its sets are node ids, its fixpoints call the manager's AND, OR and
  negation kernels on them directly, and EX is one fused relational product
  (the recursion behind `BddManager.and_exists`).
"""

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping

from . import ctl
from .bdd import _FALSE, _TRUE, BddManager
from .coupled import unresolved_atoms
from .ctl import AtomicProposition, CtlFormula
from .lts import Behavior, Path


class UnknownAtomError(ValueError):
    """A formula atom does not resolve against the structure's vocabulary."""

    def __init__(self, prop: AtomicProposition):
        super().__init__(f"atom does not resolve: {prop}")
        self.prop = prop


@dataclass(frozen=True, eq=False)
class KripkeStructure:
    """Total transition relation over states with atomic-proposition labeling."""

    states: tuple[str, ...]
    initial: str
    relation: frozenset[tuple[str, str]]
    labeling: dict[str, frozenset[AtomicProposition]]
    totalized: frozenset[str] = frozenset()
    edge_labels: dict[tuple[str, str], str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(sorted(set(self.states))))
        state_set = set(self.states)
        if self.initial not in state_set:
            raise ValueError(f"initial state {self.initial} is not a state")
        for s, t in self.relation:
            if s not in state_set or t not in state_set:
                raise ValueError(f"relation pair ({s}, {t}) leaves the state set")
        sources = {s for s, _ in self.relation}
        missing = state_set - sources
        if missing:
            raise ValueError(f"relation is not total; no successor for: {sorted(missing)}")
        for s in self.states:
            if AtomicProposition("at", s) not in self.labeling.get(s, frozenset()):
                raise ValueError(f"labeling of {s} is missing at({s})")

    @cached_property
    def successors(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {s: [] for s in self.states}
        for s, t in self.relation:
            out[s].append(t)
        return {s: tuple(sorted(ts)) for s, ts in out.items()}

    @cached_property
    def predecessors(self) -> dict[str, tuple[str, ...]]:
        into: dict[str, list[str]] = {s: [] for s in self.states}
        for s, t in self.relation:
            into[t].append(s)
        return {t: tuple(sorted(ss)) for t, ss in into.items()}

    @cached_property
    def atom_states(self) -> dict[AtomicProposition, frozenset[str]]:
        """The states each atom labels, from one pass over the labeling. An
        atom that labels no state is absent."""
        out: dict[AtomicProposition, list[str]] = {}
        for s in self.states:
            for prop in self.labeling[s]:
                out.setdefault(prop, []).append(s)
        return {prop: frozenset(ss) for prop, ss in out.items()}

    @cached_property
    def _symbolic(self) -> "_Symbolic":
        """The BDD context every symbolic check on this structure shares."""
        return _Symbolic(self)


def to_kripke(behavior: Behavior,
              approaches: Mapping[str, frozenset[str]] | None = None) -> KripkeStructure:
    """Erase labels, totalize dead ends with recorded self-loops, and label
    every state with at(state) plus in(approach) for covered states.

    `approaches` maps each approach name to its member states on this
    behavior's side, as `ApproachPartition.states_by_side` gives them.
    """
    relation: set[tuple[str, str]] = set()
    edge_labels: dict[tuple[str, str], str] = {}
    for t in sorted(behavior.transitions):
        pair = (t.source, t.target)
        relation.add(pair)
        edge_labels.setdefault(pair, t.label)  # smallest label represents the pair

    totalized = frozenset(s for s in behavior.states if not behavior.successor_map[s])
    for s in totalized:
        relation.add((s, s))

    props = {s: {AtomicProposition("at", s)} for s in behavior.states}
    for name, members in (approaches or {}).items():
        prop = AtomicProposition("in", name)
        for s in members:
            if s in props:
                props[s].add(prop)
    labeling = {s: frozenset(ps) for s, ps in props.items()}

    return KripkeStructure(
        states=tuple(sorted(behavior.states)),
        initial=behavior.initial,
        relation=frozenset(relation),
        labeling=labeling,
        totalized=totalized,
        edge_labels=edge_labels,
    )


def _validate_atoms(k: KripkeStructure, formula: CtlFormula) -> None:
    unresolved = unresolved_atoms(formula, frozenset(k.states))
    if unresolved:
        raise UnknownAtomError(unresolved[0])


# -- explicit-state engine ----------------------------------------------------


def _pre(k: KripkeStructure, targets: frozenset[str]) -> frozenset[str]:
    """States with a successor in targets."""
    return frozenset(p for t in targets for p in k.predecessors[t])


def _eu(k: KripkeStructure, holds_f: frozenset[str],
        holds_g: frozenset[str]) -> frozenset[str]:
    """E[f U g]: g-states plus the f-states that reach them backwards
    through f-states; each edge is followed at most once."""
    reached = set(holds_g)
    stack = list(holds_g)
    while stack:
        for p in k.predecessors[stack.pop()]:
            if p in holds_f and p not in reached:
                reached.add(p)
                stack.append(p)
    return frozenset(reached)


def _eg(k: KripkeStructure, holds_f: frozenset[str]) -> frozenset[str]:
    """EG f: the largest set of f-states in which every state keeps a
    successor. Counts each f-state's successors among the f-states, then
    removes states whose count reaches zero and decrements their
    predecessors' counts; each edge is followed at most once."""
    inside = {s: sum(t in holds_f for t in k.successors[s]) for s in holds_f}
    stack = [s for s, count in inside.items() if count == 0]
    while stack:
        dead = stack.pop()
        for p in k.predecessors[dead]:
            if p in inside:
                inside[p] -= 1
                if inside[p] == 0:
                    stack.append(p)
    return frozenset(s for s, count in inside.items() if count > 0)


def _sat_explicit(k: KripkeStructure, node: CtlFormula,
                  sats: tuple[frozenset[str], ...]) -> frozenset[str]:
    """The states satisfying one core node, given its children's states."""
    if isinstance(node, ctl.Const):
        return frozenset(k.states) if node.value else frozenset()
    if isinstance(node, ctl.Atom):
        return k.atom_states.get(node.prop, frozenset())
    if isinstance(node, ctl.Not):
        return frozenset(k.states) - sats[0]
    if isinstance(node, ctl.And):
        return sats[0] & sats[1]
    if isinstance(node, ctl.Or):
        return sats[0] | sats[1]
    if isinstance(node, ctl.EX):
        return _pre(k, sats[0])
    if isinstance(node, ctl.EU):
        return _eu(k, *sats)
    if isinstance(node, ctl.EG):
        return _eg(k, sats[0])
    raise TypeError(f"not a core formula node: {node!r}")


def check_explicit(k: KripkeStructure, formula: CtlFormula) -> frozenset[str]:
    """States satisfying the formula, by linear-time labelling on explicit sets."""
    _validate_atoms(k, formula)
    return ctl.fold(ctl.normalize(formula), partial(_sat_explicit, k))


# -- symbolic engine -----------------------------------------------------------


class _Symbolic:
    """BDD context of one Kripke structure, shared by every formula checked on
    it. States in sorted order are binary-encoded over interleaved current
    (even) and next (odd) variables: bit b of a state's index is variable 2b
    now and variable 2b+1 one step later. Every state set is a node id of the
    manager, and the fixpoints call its AND, OR, negation and relational
    product kernels on ids directly, so a step costs only its BDD work."""

    def __init__(self, k: KripkeStructure):
        self.k = k
        self.states = k.states
        self.bits = bits = max(1, (len(self.states) - 1).bit_length())
        self.mgr = mgr = BddManager(2 * bits)
        self._product = mgr._product(frozenset(2 * b + 1 for b in range(bits)))
        self._shift_to_next = self._renaming()

        self.universe = self._set_to_bdd(range(len(self.states)))
        self.index = index = {s: i for i, s in enumerate(self.states)}
        # A pair's code holds the source index in its low bits and the target
        # index above them; variable v reads bit v // 2 of the source (v even)
        # or of the target (v odd).
        pair_levels = [(v, v // 2 + (v % 2) * bits) for v in range(2 * bits)]
        self.relation = self._codes_to_bdd(
            [index[s] | index[t] << bits for s, t in k.relation], pair_levels
        )

    def _codes_to_bdd(self, codes, levels) -> int:
        """The set of integer codes as a BDD. `levels` lists (variable, code
        bit) in variable order. Built bottom-up from the last variable: at
        each level, the codes that agree on every bit but the level's share
        one node, interned once. Sorted codes make node ids independent of
        the order (and hash seed) of the caller's collection."""
        mk = self.mgr._mk
        nodes = dict.fromkeys(sorted(codes), _TRUE)  # code, built levels' bits cleared -> node
        for var, bit in reversed(levels):
            keep = ~(1 << bit)
            children: dict[int, list[int]] = {}
            for code, node in nodes.items():
                children.setdefault(code & keep, [_FALSE, _FALSE])[code >> bit & 1] = node
            nodes = {code: mk(var, low, high) for code, (low, high) in children.items()}
        return nodes.get(0, _FALSE)

    def _set_to_bdd(self, state_indices) -> int:
        return self._codes_to_bdd(state_indices, [(2 * b, b) for b in range(self.bits)])

    def _to_states(self, root: int) -> frozenset[str]:
        """Walk the BDD over the current-state variables. A level the walk
        skips is a don't-care bit and takes both values; codes past the last
        state encode nothing."""
        var, low, high = self.mgr._var, self.mgr._low, self.mgr._high
        out = []
        stack = [(root, 0, 0)]  # node, next bit to decide, code so far
        while stack:
            node, b, code = stack.pop()
            if node == _FALSE:
                continue
            if b == self.bits:
                if code < len(self.states):
                    out.append(self.states[code])
                continue
            node0 = node1 = node
            if var[node] == 2 * b:
                node0, node1 = low[node], high[node]
            stack.append((node0, b + 1, code))
            stack.append((node1, b + 1, code | 1 << b))
        return frozenset(out)

    def _renaming(self):
        """The rename of current-state variables to their next-state partners,
        memoized for the life of the context. Interleaving keeps the order
        monotone (2b -> 2b+1), so interning the renamed nodes one for one
        gives the reduced, canonical BDD directly."""
        var, low, high, mk = self.mgr._var, self.mgr._low, self.mgr._high, self.mgr._mk
        memo: dict[int, int] = {}

        def shift(node: int) -> int:
            if node < 2:
                return node
            res = memo.get(node)
            if res is None:
                res = memo[node] = mk(var[node] + 1, shift(low[node]), shift(high[node]))
            return res

        return shift

    def _ex(self, node: int) -> int:
        # and_exists(relation, shifted, next-state variables), terminals first.
        relation, shifted = self.relation, self._shift_to_next(node)
        if relation == _FALSE or shifted == _FALSE:
            return _FALSE
        return _TRUE if relation == shifted == _TRUE else self._product(relation, shifted)

    def _sat(self, node: CtlFormula, sats: tuple[int, ...]) -> int:
        """The BDD of one core node's states, given its children's BDDs."""
        conj, disj, ex = self.mgr._and, self.mgr._or, self._ex
        if isinstance(node, ctl.Const):
            return self.universe if node.value else _FALSE
        if isinstance(node, ctl.Atom):
            members = self.k.atom_states.get(node.prop, frozenset())
            return self._set_to_bdd([self.index[s] for s in members])
        if isinstance(node, ctl.Not):
            # Complement within the valid state codes, never the raw BDD space.
            return conj(self.universe, self.mgr._negate(sats[0]))
        if isinstance(node, ctl.And):
            return conj(*sats)
        if isinstance(node, ctl.Or):
            return disj(*sats)
        if isinstance(node, ctl.EX):
            return ex(sats[0])
        if isinstance(node, ctl.EU):
            holds_f, current = sats
            while (extended := disj(current, conj(holds_f, ex(current)))) != current:
                current = extended
            return current
        if isinstance(node, ctl.EG):
            current = sats[0]
            while (shrunk := conj(current, ex(current))) != current:
                current = shrunk
            return current
        raise TypeError(f"not a core formula node: {node!r}")


def check_symbolic(k: KripkeStructure, formula: CtlFormula) -> frozenset[str]:
    """States satisfying the formula, via BDD fixpoints; agrees with check_explicit."""
    _validate_atoms(k, formula)
    context = k._symbolic
    return context._to_states(ctl.fold(ctl.normalize(formula), context._sat))


# -- verdicts and witnesses ------------------------------------------------------


def holds(k: KripkeStructure, formula: CtlFormula, engine: str = "explicit") -> bool:
    """True iff the initial state satisfies the formula."""
    if engine == "explicit":
        return k.initial in check_explicit(k, formula)
    if engine == "symbolic":
        return k.initial in check_symbolic(k, formula)
    raise ValueError(f"engine must be 'explicit' or 'symbolic', not {engine!r}")


def witness_shape(formula: CtlFormula) -> str | None:
    """Which witness this checker can produce: 'reachability' for EF goals,
    'invariant' for AG counterexamples, None otherwise."""
    if isinstance(formula, ctl.EF):
        return "reachability"
    if isinstance(formula, ctl.AG):
        return "invariant"
    return None


def _shortest_path_to(k: KripkeStructure, targets: frozenset[str]) -> Path | None:
    if k.initial in targets:
        return Path((k.initial,))
    parent: dict[str, str] = {k.initial: k.initial}
    queue = deque([k.initial])
    found = None
    while queue and found is None:
        state = queue.popleft()
        for nxt in k.successors[state]:
            if nxt in parent:
                continue
            parent[nxt] = state
            if nxt in targets:
                found = nxt
                break
            queue.append(nxt)
    if found is None:
        return None
    states = [found]
    while states[-1] != k.initial:
        states.append(parent[states[-1]])
    states.reverse()
    labels = tuple(
        k.edge_labels.get((a, b), "step") for a, b in zip(states, states[1:])
    )
    return Path(tuple(states), labels)


def witness(k: KripkeStructure, formula: CtlFormula) -> Path | None:
    """A path from the initial state demonstrating the verdict, when supported.

    For EF g: a shortest path to a g-state (None when unreachable). For AG g:
    a shortest path to a state violating g (None when AG g holds). Other
    shapes return None; see witness_shape.
    """
    if isinstance(formula, ctl.EF):
        return _shortest_path_to(k, check_explicit(k, formula.operand))
    if isinstance(formula, ctl.AG):
        good = check_explicit(k, formula.operand)
        return _shortest_path_to(k, frozenset(k.states) - good)
    return None
