"""Kripke structures and twin CTL engines.

Behaviors convert to Kripke structures by erasing transition labels and
totalizing dead-end states with self-loops. A structure numbers its states
once, in sorted order, and holds successors, predecessors and in(...) atoms'
members as sorted tuples of those numbers; a name's number answers at(name).
Both engines, the witness search and the SMV export read that one index,
and sorted numbers are sorted names; other views are built on first read.
Formulas are checked two ways, and both return the exact satisfying state set:

- the explicit engine (the oracle) labels states in time linear in the
  structure, as in Clarke, Emerson and Sistla, on sets of state numbers: EX
  is a union of predecessor tuples, EU a backward worklist from the goal
  states, and EG peels states with no successor left inside the operand's
  states;
- the symbolic engine works on BDDs over the binary-encoded state numbers.
  One BDD context is built per structure and shared by every formula checked
  on it. Its sets are node ids, its fixpoints call the manager's AND, OR and
  negation kernels on them directly, and EX is one pre-image step bound once
  per context to the relation (`BddManager._pre_image`): a relational product
  with one recursion per current/next variable pair, which reads the set's
  bit of the pair as the next-state bit, so no renamed copy is built. EX, EU
  and EG all call it. The context memoizes each core node's BDD by the
  node's class, its atom or constant and its children's node ids, so an
  atom's BDD is built once per structure and a fixpoint that two properties
  share runs once. EU skips the AND with its left operand when that operand
  is the universe, as in EF and AG: a pre-image holds only state codes.

A verdict comes with a path only for the top-level formula classes in
`WITNESSES`, the one table of the verdict each path shows and its name: a
holding EF g gets a witness, a failing AG g a counterexample.
"""

from collections import deque
from functools import cached_property, partial
from typing import Mapping

from . import ctl
from .bdd import _FALSE, _TRUE, BddManager
from .coupled import unresolved_atoms
from .ctl import AtomicProposition, CtlFormula
from .lts import Behavior, Path, _Frozen


class UnknownAtomError(ValueError):
    """A formula atom does not resolve against the structure's vocabulary."""

    def __init__(self, prop: AtomicProposition):
        super().__init__(f"atom does not resolve: {prop}")
        self.prop = prop


class KripkeStructure:
    """A total transition relation over states, with atomic-proposition
    labeling, held as one int index: state i is `states[i]`, the states in
    sorted order, so sorted indices are sorted names.

    - `index` maps each name to its number;
    - `succ[i]` and `pred[i]` are state i's successors and predecessors as
      sorted int tuples, totalizing self-loops included (`pred` is built on
      first use: only the explicit engine reads it);
    - `members(prop)` is the sorted int tuple of the states an atom labels:
      `index` answers at(s), and only the in(...) atoms are stored.

    Both engines, the witness and the SMV export read this index. The views
    `atoms`, `relation` and `labeling` are derived from it on first read, and
    `edge_labels` (each edge's smallest label) from the behavior's transitions.

    The constructor takes the structure by name, checks it and numbers it,
    keeping the `edge_labels` it is given; `to_kripke` numbers a behavior
    directly and builds the same index.
    """

    def __init__(self, states, initial: str, relation, labeling,
                 totalized: frozenset[str] = frozenset(),
                 edge_labels: dict[tuple[str, str], str] | None = None):
        names = tuple(sorted(set(states)))
        index = {s: i for i, s in enumerate(names)}
        if initial not in index:
            raise ValueError(f"initial state {initial} is not a state")
        targets: list[set[int]] = [set() for _ in names]
        for s, t in relation:
            i, j = index.get(s), index.get(t)
            if i is None or j is None:
                raise ValueError(f"relation pair ({s}, {t}) leaves the state set")
            targets[i].add(j)
        missing = [names[i] for i, ts in enumerate(targets) if not ts]
        if missing:
            raise ValueError(f"relation is not total; no successor for: {missing}")
        atoms: dict[AtomicProposition, list[int]] = {}
        for i, s in enumerate(names):
            for prop in labeling.get(s, ()):
                atoms.setdefault(prop, []).append(i)
        for i, s in enumerate(names):
            if i not in atoms.get(AtomicProposition("at", s), ()):
                raise ValueError(f"labeling of {s} is missing at({s})")
        strays = sorted(labeling.keys() - index.keys())
        if strays:
            raise ValueError(f"labeling names states outside the state set: {strays}")
        for prop, members in atoms.items():
            for i in members:
                if prop.kind == "at" and names[i] != prop.subject:
                    raise ValueError(f"labeling of {names[i]} holds {prop}")
        self.__dict__.update(
            states=names, index=index, initial=initial, totalized=totalized,
            succ=tuple(tuple(sorted(ts)) for ts in targets),
            _in_atoms={prop: tuple(ms) for prop, ms in atoms.items() if prop.kind == "in"},
            edge_labels={} if edge_labels is None else edge_labels)

    # The fields and the views derived from them must stay one structure.
    __setattr__, __delattr__ = _Frozen.__setattr__, _Frozen.__delattr__

    def members(self, prop: AtomicProposition) -> tuple[int, ...]:
        """The sorted numbers of the states `prop` labels."""
        if prop.kind == "at":
            i = self.index.get(prop.subject)
            return () if i is None else (i,)
        return self._in_atoms.get(prop, ())

    @cached_property
    def pred(self) -> tuple[tuple[int, ...], ...]:
        into: list[list[int]] = [[] for _ in self.states]
        for i, targets in enumerate(self.succ):
            for j in targets:
                into[j].append(i)  # sources ascend, so each list is sorted
        return tuple(map(tuple, into))

    @cached_property
    def atoms(self) -> dict[AtomicProposition, tuple[int, ...]]:
        at = {AtomicProposition("at", s): (i,) for i, s in enumerate(self.states)}
        return at | self._in_atoms

    @cached_property
    def relation(self) -> frozenset[tuple[str, str]]:
        states = self.states
        return frozenset((states[i], states[j])
                         for i, targets in enumerate(self.succ) for j in targets)

    @cached_property
    def labeling(self) -> dict[str, frozenset[AtomicProposition]]:
        props: list[list[AtomicProposition]] = [[] for _ in self.states]
        for prop, members in self.atoms.items():
            for i in members:
                props[i].append(prop)
        return {s: frozenset(ps) for s, ps in zip(self.states, props)}

    @cached_property
    def edge_labels(self) -> dict[tuple[str, str], str]:
        # Descending, so each pair's smallest label is written last.
        return {(s, t): label for s, label, t in sorted(self._transitions, reverse=True)}

    def _names(self, members) -> frozenset[str]:
        states = self.states
        return frozenset([states[i] for i in members])

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
    states = tuple(sorted(behavior.states))
    index = {s: i for i, s in enumerate(states)}
    targets: list[list[int]] = [[] for _ in states]
    for s, _, t in behavior.transitions:
        targets[index[s]].append(index[t])
    # A dead end loops to itself; only a state with several targets is deduplicated and sorted.
    succ = [(i,) if not ts else tuple(ts) if len(ts) == 1 else tuple(sorted(set(ts)))
            for i, ts in enumerate(targets)]

    in_atoms = {}
    for name, members in (approaches or {}).items():
        covered = sorted(index[s] for s in members if s in index)
        if covered:
            in_atoms[AtomicProposition("in", name)] = tuple(covered)

    k = KripkeStructure.__new__(KripkeStructure)  # a behavior is valid: skip the checks
    k.__dict__.update(states=states, index=index, initial=behavior.initial, succ=tuple(succ),
                      totalized=frozenset([states[i] for i, ts in enumerate(targets) if not ts]),
                      _in_atoms=in_atoms, _transitions=behavior.transitions)
    return k


def _validate_atoms(k: KripkeStructure, formula: CtlFormula) -> None:
    unresolved = unresolved_atoms(formula, k.index)
    if unresolved:
        raise UnknownAtomError(unresolved[0])


# -- explicit-state engine ----------------------------------------------------


def _pre(k: KripkeStructure, targets: frozenset[int]) -> frozenset[int]:
    """States with a successor in targets."""
    pred = k.pred
    return frozenset([p for t in targets for p in pred[t]])


def _eu(k: KripkeStructure, holds_f: frozenset[int],
        holds_g: frozenset[int]) -> frozenset[int]:
    """E[f U g]: g-states plus the f-states that reach them backwards
    through f-states; each edge is followed at most once."""
    pred = k.pred
    reached = set(holds_g)
    stack = list(holds_g)
    while stack:
        for p in pred[stack.pop()]:
            if p in holds_f and p not in reached:
                reached.add(p)
                stack.append(p)
    return frozenset(reached)


def _eg(k: KripkeStructure, holds_f: frozenset[int]) -> frozenset[int]:
    """EG f: the largest set of f-states in which every state keeps a
    successor. Counts each f-state's successors among the f-states, then
    removes states whose count reaches zero and decrements their
    predecessors' counts; each edge is followed at most once."""
    succ, pred = k.succ, k.pred
    inside = {s: sum(t in holds_f for t in succ[s]) for s in holds_f}
    stack = [s for s, count in inside.items() if count == 0]
    while stack:
        dead = stack.pop()
        for p in pred[dead]:
            if p in inside:
                inside[p] -= 1
                if inside[p] == 0:
                    stack.append(p)
    return frozenset([s for s, count in inside.items() if count > 0])


def _sat_explicit(k: KripkeStructure, node: CtlFormula,
                  sats: tuple[frozenset[int], ...]) -> frozenset[int]:
    """The states satisfying one core node, given its children's states."""
    if isinstance(node, ctl.Const):
        return frozenset(range(len(k.states))) if node.value else frozenset()
    if isinstance(node, ctl.Atom):
        return frozenset(k.members(node.prop))
    if isinstance(node, ctl.Not):
        return frozenset(range(len(k.states))) - sats[0]
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


def _label(k: KripkeStructure, formula: CtlFormula) -> frozenset[int]:
    """The numbers of the states satisfying the formula, on explicit sets."""
    _validate_atoms(k, formula)
    return ctl.fold(ctl.normalize(formula), partial(_sat_explicit, k))


def check_explicit(k: KripkeStructure, formula: CtlFormula) -> frozenset[str]:
    """States satisfying the formula, by linear-time labelling on explicit sets."""
    return k._names(_label(k, formula))


# -- symbolic engine -----------------------------------------------------------


def _below(mgr: BddManager, n: int, bits: int) -> int:
    """The codes 0..n-1 over the current-state variables, one node per level
    at most, last level first. Read from the lowest bit, code < n is decided
    by the highest bit where the code and n differ: `less` once the bits read
    are below n's, `rest` otherwise. A level interns only a node the root
    reaches, so the nodes and their order are `_codes_to_bdd(range(n))`'s."""
    mk = mgr._mk
    less, rest = _TRUE, _TRUE if n >> bits else _FALSE
    for b in reversed(range(bits)):
        if n >> b & 1:
            rest = mk(2 * b, less, rest)
        elif n & ((1 << b) - 1):
            less = mk(2 * b, less, rest)
    return rest


class _Symbolic:
    """BDD context of one Kripke structure, shared by every formula checked on
    it. Each state's number in the structure's index is binary-encoded over
    interleaved current (even) and next (odd) variables: bit b of the number
    is variable 2b now and variable 2b+1 one step later. Every state set is a
    node id of the manager, and the fixpoints call its AND, OR, negation and
    pre-image kernels on ids directly, so a step costs only its BDD work.
    `_step` is the pre-image, bound once to the relation: each of its calls
    handles one pair (2b, 2b+1) and reads the set's variable 2b as 2b+1.
    `_memo` holds every core node's BDD computed on this context."""

    def __init__(self, k: KripkeStructure):
        self.k = k
        self.states = k.states
        self.bits = bits = max(1, (len(self.states) - 1).bit_length())
        self.mgr = BddManager(2 * bits)

        self.universe = _below(self.mgr, len(self.states), bits)
        # A pair's code holds the source index in its low bits and the target
        # index above them; variable v reads bit v // 2 of the source (v even)
        # or of the target (v odd).
        pair_levels = [(v, v // 2 + (v % 2) * bits) for v in range(2 * bits)]
        self.relation = self._codes_to_bdd(
            [i | j << bits for i, targets in enumerate(k.succ) for j in targets], pair_levels
        )
        self._step = self.mgr._pre_image(self.relation)
        self._memo: dict[tuple, int] = {}  # (class, atom or constant | child ids) -> node

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
            lows: dict[int, int] = {}  # in order of each parent's first child
            highs: dict[int, int] = {}
            for code, node in nodes.items():
                if code >> bit & 1:
                    code &= keep
                    highs[code] = node
                    lows.setdefault(code, _FALSE)
                else:
                    lows[code] = node
            nodes = {code: mk(var, low, highs.get(code, _FALSE)) for code, low in lows.items()}
        return nodes.get(0, _FALSE)

    def _set_to_bdd(self, state_indices) -> int:
        return self._codes_to_bdd(state_indices, [(2 * b, b) for b in range(self.bits)])

    def _to_states(self, root: int) -> frozenset[str]:
        """Walk the BDD over the current-state variables, lowest bit first. A
        level the walk skips is a don't-care bit and takes both values. Once
        the walk reaches TRUE at bit b, every bit from b up is free, so its
        codes are one run with step 1 << b; codes past the last state encode
        nothing."""
        var, low, high = self.mgr._var, self.mgr._low, self.mgr._high
        count = len(self.states)
        codes: list[int] = []
        stack = [(root, 0, 0)]  # node, next bit to decide, code so far
        while stack:
            node, b, code = stack.pop()
            if node == _TRUE:
                codes.extend(range(code, count, 1 << b))
            elif node != _FALSE:
                node0 = node1 = node
                if var[node] == 2 * b:
                    node0, node1 = low[node], high[node]
                stack.append((node0, b + 1, code))
                stack.append((node1, b + 1, code | 1 << b))
        return frozenset(map(self.states.__getitem__, codes))

    def _sat(self, node: CtlFormula, sats: tuple[int, ...]) -> int:
        """The BDD of one core node's states, given its children's BDDs,
        computed once per context: node ids are canonical in the manager, so
        the node's class, its atom or constant, and its children's ids name
        its function."""
        cls = type(node)
        key = (cls, *sats) if sats else (cls, node.prop if cls is ctl.Atom else node.value)
        res = self._memo.get(key)
        if res is None:
            res = self._memo[key] = self._compute(node, sats)
        return res

    def _compute(self, node: CtlFormula, sats: tuple[int, ...]) -> int:
        conj, disj, step = self.mgr._and, self.mgr._or, self._step
        if isinstance(node, ctl.Const):
            return self.universe if node.value else _FALSE
        if isinstance(node, ctl.Atom):
            return self._set_to_bdd(self.k.members(node.prop))
        if isinstance(node, ctl.Not):
            # Complement within the valid state codes, never the raw BDD space.
            return conj(self.universe, self.mgr._negate(sats[0]))
        if isinstance(node, ctl.And):
            return conj(*sats)
        if isinstance(node, ctl.Or):
            return disj(*sats)
        if isinstance(node, ctl.EX):
            return step(sats[0])
        if isinstance(node, ctl.EU):
            holds_f, current = sats
            if holds_f == self.universe:
                # A pre-image holds only state codes, so AND with the universe
                # would return it unchanged (EF and AG normalize to this case).
                while (extended := disj(current, step(current))) != current:
                    current = extended
            else:
                while (extended := disj(current, conj(holds_f, step(current)))) != current:
                    current = extended
            return current
        if isinstance(node, ctl.EG):
            current = sats[0]
            while (shrunk := conj(current, step(current))) != current:
                current = shrunk
            return current
        raise TypeError(f"not a core formula node: {node!r}")


def check_symbolic(k: KripkeStructure, formula: CtlFormula) -> frozenset[str]:
    """States satisfying the formula, via BDD fixpoints; agrees with check_explicit."""
    _validate_atoms(k, formula)
    context = k._symbolic
    return context._to_states(ctl.fold(ctl.normalize(formula), context._sat))


# -- verdicts and witnesses ------------------------------------------------------


# The top-level formula classes whose verdict a path can show: the verdict
# under which the path exists, and the name it is shown under.
WITNESSES = {ctl.EF: ("holds", "witness"), ctl.AG: ("fails", "counterexample")}


def _shortest_path_to(k: KripkeStructure, targets) -> Path | None:
    """A shortest path from the initial state to a state numbered in
    `targets`. Successors are tried in sorted order, so among shortest paths
    the first found is the same whichever way states are held."""
    start = k.index[k.initial]
    parent = [-1] * len(k.states)
    parent[start] = start
    queue = deque([start])
    found = start if start in targets else None
    while queue and found is None:
        state = queue.popleft()
        for nxt in k.succ[state]:
            if parent[nxt] != -1:
                continue
            parent[nxt] = state
            if nxt in targets:
                found = nxt
                break
            queue.append(nxt)
    if found is None:
        return None
    path = [found]
    while path[-1] != start:
        path.append(parent[path[-1]])
    states = [k.states[i] for i in reversed(path)]
    labels = tuple(
        k.edge_labels.get((a, b), "step") for a, b in zip(states, states[1:])
    )
    return Path(tuple(states), labels)


def witness(k: KripkeStructure, formula: CtlFormula) -> Path | None:
    """A shortest path from the initial state that shows the formula's
    verdict, for a class in `WITNESSES`. It ends where the operand holds if
    the path shows that the verdict holds (EF g: a g-state), and where it
    fails otherwise (AG g: a !g state). None when there is no such path, or
    the class is not in the table."""
    rule = WITNESSES.get(type(formula))
    if rule is None:
        return None
    targets = _label(k, formula.operand)
    if rule[0] == "fails":
        targets = frozenset(range(len(k.states))) - targets
    return _shortest_path_to(k, targets)
