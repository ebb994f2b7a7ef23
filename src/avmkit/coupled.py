"""Coupled behavior models: the preventive/control pair, the state-to-paths
mapping between them, the four-approach partition, and the cross-behavior
consistency checks."""

from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from . import ctl
from .lts import (
    Behavior,
    Path,
    UnknownStateError,
    _Frozen,
    _numbered,
    integer_components,
    path_order,
)
from .report import CheckReport, Finding, ModelValidationError

APPROACH_NAMES = ("Protection", "Detection", "Identification", "Removal")


def unresolved_atoms(formula: ctl.CtlFormula, states) -> tuple[ctl.AtomicProposition, ...]:
    """The formula's atoms that name nothing, each once, in `ctl.atoms` order:
    at(S) resolves when S is one of `states`, in(A) when A is an approach."""
    return tuple(dict.fromkeys(
        prop for prop in ctl.atoms(formula)
        if prop.subject not in (states if prop.kind == "at" else APPROACH_NAMES)
    ))


class MappingProcess(_Frozen):
    """Finite map from control states to sets of preventive paths, plus the
    control states explicitly exempted from mapping."""

    __slots__ = ("entries", "exempt", "__dict__")

    def __init__(self, entries: tuple[tuple[str, tuple[Path, ...]], ...],
                 exempt: frozenset[str] = frozenset()):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "exempt", exempt)

    def _key(self) -> tuple:
        return (self.entries, self.exempt)

    @cached_property
    def _by_state(self) -> dict[str, tuple[Path, ...]]:
        return dict(self.entries)

    @cached_property
    def mapped_states(self) -> frozenset[str]:
        return frozenset(self._by_state)

    def paths_for(self, state: str) -> tuple[Path, ...]:
        return self._by_state.get(state, ())


def mapping_process(entries: Mapping[str, Iterable[Path]], exempt=()) -> MappingProcess:
    """Normalize a state -> paths mapping into a canonical MappingProcess."""
    normalized = []
    for state, paths in sorted(entries.items()):
        paths = tuple(paths)  # one path is already canonical
        normalized.append((state, paths if len(paths) == 1
                           else tuple(sorted(set(paths), key=path_order))))
    return MappingProcess(entries=tuple(normalized), exempt=frozenset(exempt))


class Approach(NamedTuple):
    name: str
    control_states: frozenset[str]
    preventive_states: frozenset[str]


class ApproachPartition(NamedTuple):
    """The four named approaches, each covering states on both sides."""

    approaches: tuple[Approach, ...]

    def states_by_side(self, side: str) -> dict[str, frozenset[str]]:
        if side not in ("control", "preventive"):
            raise ValueError(f"side must be 'control' or 'preventive', not {side!r}")
        return {
            a.name: (a.control_states if side == "control" else a.preventive_states)
            for a in self.approaches
        }

    def covered(self, side: str) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for members in self.states_by_side(side).values():
            out |= members
        return out


def approach_partition(assignments: Mapping[str, tuple[Iterable[str], Iterable[str]]]) -> ApproachPartition:
    """Build the partition from {name: (control states, preventive states)};
    approaches missing from the mapping are empty."""
    unknown = sorted(set(assignments) - set(APPROACH_NAMES))
    if unknown:
        raise ValueError(f"unknown approach name(s): {', '.join(unknown)}")
    approaches = []
    for name in APPROACH_NAMES:
        control, preventive = assignments.get(name, ((), ()))
        approaches.append(Approach(name, frozenset(control), frozenset(preventive)))
    return ApproachPartition(tuple(approaches))


class CoupledModel(NamedTuple):
    name: str
    preventive: Behavior
    control: Behavior
    mapping: MappingProcess
    approaches: ApproachPartition

    def behavior(self, side: str) -> Behavior:
        """The control or the preventive behavior, by name."""
        if side == "control":
            return self.control
        if side == "preventive":
            return self.preventive
        raise ValueError(f"target must be 'control' or 'preventive', not {side!r}")


def coupled_diagnostics(preventive: Behavior, control: Behavior, maps, exempts, approaches,
                        control_spots=None, place=lambda spot: spot) -> list[Finding]:
    """The coupling checks, over every place a model names a state or approach.

    `maps` holds (key, spot, [(path, state spots), ...]) per map statement,
    `exempts` holds (state, spot) and `approaches` holds (name, spot, {side:
    [(state, spot), ...]}), all in source order, and `control_spots` holds a
    spot per control state. A spot is opaque here: `place(spot)` positions a
    finding made there. Spots are None for a model built in code, where
    `place` is the identity. A name that fails one check sits out the later
    ones: a map key that is not a control state skips its paths, a rejected
    exempt state is not also a conflict, and a rejected approach member claims
    no ownership. Whether mapped paths actually walk the preventive transition
    relation is check_mapping's job, so that broken models stay constructible
    and reportable.
    """
    findings: list[Finding] = []

    def error(code: str, subject: str, detail: str, spot) -> None:
        findings.append(Finding("error", code, subject, detail, place(spot)))

    def wrong_side(name: str, expected: str) -> str:
        other = preventive.states if expected == "control" else control.states
        if name in other:
            flip = "preventive" if expected == "control" else "control"
            return f"names a {flip} state where a {expected} state is required"
        return f"is not a {expected} state"

    mapped: set[str] = set()
    for key, spot, paths in maps:
        if key not in control.states:
            error("cross-behavior-reference", key, f"mapping key {wrong_side(key, 'control')}",
                  spot)
            continue
        mapped.add(key)
        for path, spots in paths:
            for state, spot in zip(path.states, spots):
                if state not in preventive.states:
                    error("cross-behavior-reference", state,
                          f"mapping for {key}: path state {wrong_side(state, 'preventive')}",
                          spot)

    exempt: set[str] = set()
    for state, spot in exempts:
        if state not in control.states:
            error("cross-behavior-reference", state,
                  f"exempt state {wrong_side(state, 'control')}", spot)
        elif state in mapped:
            error("exempt-conflict", state, "state is both mapped and declared exempt", spot)
        else:
            exempt.add(state)

    for state in sorted(control.states - mapped - exempt):
        error("partial-mapping", state, "control state is neither mapped nor declared exempt",
              (control_spots or {}).get(state))

    declared: set[str] = set()
    owners: dict[tuple[str, str], str] = {}
    for name, spot, sides in approaches:
        if name not in APPROACH_NAMES:
            error("unknown-approach", name,
                  f"approach must be one of {', '.join(APPROACH_NAMES)}", spot)
            continue
        if name in declared:
            error("duplicate-approach", name, "approach block appears more than once", spot)
            continue
        declared.add(name)
        for side, members in sides.items():
            expected = control.states if side == "control" else preventive.states
            for state, spot in members:
                if state not in expected:
                    error("cross-behavior-reference", state,
                          f"approach {name} ({side} side) {wrong_side(state, side)}", spot)
                elif owners.setdefault((side, state), name) != name:
                    error("overlapping-approach", state,
                          f"claimed by both {owners[side, state]} and {name} ({side} side)", spot)
    return findings


def model_occurrences(mapping: MappingProcess, approaches: ApproachPartition):
    """The (maps, exempts, approaches) arguments of coupled_diagnostics for a
    model built in code: canonical order, no positions."""

    def unplaced(names):
        return [(name, None) for name in sorted(names)]

    return (
        [(state, None, [(path, (None,) * len(path.states)) for path in paths])
         for state, paths in mapping.entries],
        unplaced(mapping.exempt),
        [(a.name, None, {"control": unplaced(a.control_states),
                         "preventive": unplaced(a.preventive_states)})
         for a in approaches.approaches],
    )


def build_coupled_model(preventive: Behavior, control: Behavior, mapping: MappingProcess,
                        approaches: ApproachPartition, name: str = "model") -> CoupledModel:
    """Construct a validated CoupledModel; raises ModelValidationError otherwise."""
    diags = coupled_diagnostics(preventive, control, *model_occurrences(mapping, approaches))
    if diags:
        raise ModelValidationError(diags)
    return CoupledModel(name, preventive, control, mapping, approaches)


def _first_break(preventive: Behavior, path: Path) -> str | None:
    """Describe the first point, walking left to right, where a mapped path
    stops being a preventive path."""
    if path.states[0] not in preventive.states:
        return f"state {path.states[0]} is not a preventive state"
    for t in path.triples():
        if t.target not in preventive.states:
            return f"state {t.target} is not a preventive state"
        if t not in preventive.transition_set:
            return f"missing transition {t}"
    return None


def check_mapping(model: CoupledModel) -> CheckReport:
    """Per control state: mapped path count, exemptions, and any mapped path
    that is not a valid preventive path (with the first broken triple)."""
    findings: list[Finding] = []
    control = model.control
    preventive = model.preventive

    for state in sorted(control.states):
        if state in model.mapping.exempt:
            findings.append(Finding("info", "exempt-state", state, "declared exempt from mapping"))
            continue
        paths = model.mapping.paths_for(state)
        findings.append(
            Finding("info", "mapping-entry", state, f"maps to {len(paths)} preventive path(s)")
        )
        for path in paths:
            broken = _first_break(preventive, path)
            if broken is not None:
                findings.append(
                    Finding("error", "invalid-mapped-path", state,
                            f"path {path} is not a preventive path: {broken}")
                )

    for path in model.mapping.paths_for(control.initial):
        if path.first != preventive.initial:
            findings.append(
                Finding("warning", "initial-mapping-start", control.initial,
                        f"path {path} starts at {path.first}, not the preventive initial "
                        f"{preventive.initial}")
            )

    if not model.mapping.mapped_states and model.mapping.exempt >= control.states:
        findings.append(
            Finding("warning", "fully-exempt-mapping", model.name,
                    "fully exempt mapping: every control state is exempt")
        )
    return CheckReport("mapping", tuple(findings))


def check_approach_alignment(model: CoupledModel) -> CheckReport:
    """Every state on a path mapped from an approach's control state must lie
    in that approach's preventive set."""
    findings: list[Finding] = []
    seen: set[tuple[str, str, str]] = set()
    for approach in model.approaches.approaches:
        for control_state in sorted(approach.control_states):
            for path in model.mapping.paths_for(control_state):
                for state in path.states:
                    if state in approach.preventive_states:
                        continue
                    key = (approach.name, control_state, state)
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(
                        Finding("error", "approach-misalignment", control_state,
                                f"mapped path state {state} lies outside the "
                                f"{approach.name} preventive set")
                    )

    for side, behavior in (("control", model.control), ("preventive", model.preventive)):
        uncovered = sorted(behavior.states - model.approaches.covered(side))
        if uncovered:
            findings.append(
                Finding("info", "uncovered-states", side,
                        f"{len(uncovered)} state(s) in no approach: {', '.join(uncovered)}")
            )
    return CheckReport("approaches", tuple(findings))


# The sync state of a control path that has already gapped.
_GAP = "gap"


def _reach_test(number, successors, sources: Iterable[str], targets: Iterable[str]):
    """`reaches(src, dst)`: can the preventive graph, numbered by `_numbered`,
    go from src, a state among `sources`, to dst, a state among `targets`?
    `integer_components` runs once on the successor lists; one pass over the
    condensation, sinks first, gives each component the bit set of target
    components it reaches. `_link_test` builds it only for a link that is
    neither one state nor one preventive edge."""
    components, component_of = integer_components(
        successors, [number[s] for s in sources if s in number])
    bit = [0] * len(components)  # per component, its own bit if it holds a target
    for k, c in enumerate({component_of[number[s]] for s in targets if s in number} - {-1}):
        bit[c] = 1 << k
    reach = bit.copy()
    for i, members in enumerate(components):
        for v in members:
            for w in successors[v]:
                reach[i] |= reach[component_of[w]]

    def reaches(src: str, dst: str) -> bool:
        c, d = (component_of[number[s]] if s in number else -1 for s in (src, dst))
        if c < 0:
            raise UnknownStateError(src)
        return d >= 0 and bool(reach[c] & bit[d])

    return reaches


def _link_test(preventive: Behavior, fragment_sets):
    """`_reach_test`'s `reaches` over the last and first states of the
    fragments in `fragment_sets`, built on demand. The first query numbers the
    preventive graph; a link whose ends are one state or one edge apart is
    answered from those successor lists, and only the first link that is
    neither builds `_reach_test` on them, for it and every later link."""
    number = successors = walks = None

    def reaches(src: str, dst: str) -> bool:
        nonlocal number, successors, walks
        if src == dst and src in preventive.states:
            return True
        if number is None:
            number, successors = _numbered(preventive)
        if src in number and number.get(dst) in successors[number[src]]:
            return True
        if walks is None:
            walks = _reach_test(number, successors, {f.last for fs in fragment_sets for f in fs},
                                {g.first for fs in fragment_sets for g in fs})
        return walks(src, dst)

    return reaches


def _sync_step(model: CoupledModel):
    """The stitching rule as a transition function.

    A sync state is None before the first mapped fragment set, `_GAP` after a
    gap, and otherwise (previous, feasible): the interned index of the last
    fragment set and the bit mask of its fragments still linked to the start.
    `step(sync, state)` returns the sync state after `state` and, when `state`
    is where the path gaps, the gap's (state, ends, starts) key.

    Links come from `_link_test`, so a model whose links are all one state or
    one preventive edge never builds the preventive condensation.
    """
    interned: dict[tuple[Path, ...], int] = {}
    slot: dict[str, int | None] = {}
    for state in model.control.states:
        fragments = () if state in model.mapping.exempt else model.mapping.paths_for(state)
        slot[state] = interned.setdefault(fragments, len(interned)) if fragments else None
    fragment_sets = list(interned)
    reaches = _link_test(model.preventive, fragment_sets)
    memo: dict[tuple, tuple] = {}

    def step(sync, state: str):
        current = slot[state]
        if current is None or sync is _GAP:
            return sync, None
        if sync is None:
            return (current, (1 << len(fragment_sets[current])) - 1), None
        if sync[0] == current:
            return sync, None
        out = memo.get((sync, state))
        if out is None:
            previous, live = sync
            feasible = [f for i, f in enumerate(fragment_sets[previous]) if live >> i & 1]
            fragments = fragment_sets[current]
            linked = 0
            for i, g in enumerate(fragments):
                for f in feasible:
                    if reaches(f.last, g.first):
                        linked |= 1 << i
                        break
            if linked:
                out = (current, linked), None
            else:
                ends = ", ".join(sorted({f.last for f in feasible}))
                starts = ", ".join(sorted({g.first for g in fragments}))
                out = _GAP, (state, ends, starts)
            memo[sync, state] = out
        return out

    return step


def _unwind(cell) -> Path:
    """The control path held as nested (state, label, rest) cells."""
    states, labels = [], []
    while cell is not None:
        state, label, cell = cell
        states.append(state)
        if label is not None:
            labels.append(label)
    return Path(tuple(states), tuple(labels))


def _path_order(cell) -> tuple:
    return path_order(_unwind(cell))


def _stitch_paths(control: Behavior, final: str, step, component_of, bit):
    """(number of simple control paths from the initial state to `final`,
    {gap key: the smallest such path by (labels, states) that gaps there}).

    A memoized depth-first walk. A node is (control state, sync state, states
    of the current path in the state's SCC): every other state of the path is
    unreachable from here, so what lies ahead depends on nothing else. A
    result holds its smallest completions as shared cells; below a gap they
    sit under the key None until the gap names them.

    `visit` is the recursion, except that where it would call itself it
    yields the child node and is sent the child's result. The loop below it
    keeps the suspended visits on a list, not on Python's stack, so a long
    control chain needs no recursion. (`visit` does not call itself by name:
    that would make it a reference cycle, and the memo would outlive the
    walk until the garbage collector found it.)
    """
    if control.initial == final:
        return 1, {}
    memo: dict[tuple, tuple] = {}

    def visit(state: str, sync, on_path: int):
        count, gaps = 0, {}
        for label, nxt in control.successor_map[state]:
            if component_of[nxt] != component_of[state]:
                nxt_on_path = bit[nxt]
            elif on_path & bit[nxt]:
                continue
            else:
                nxt_on_path = on_path | bit[nxt]
            nxt_sync, gap = step(sync, nxt)
            node = (nxt, nxt_sync, nxt_on_path)
            result = memo.get(node)
            if result is None:
                if nxt == final:
                    result = 1, ({None: (final, None, None)} if nxt_sync is _GAP else {})
                else:
                    result = yield node
            count += result[0]
            for key, cell in result[1].items():
                key = key if gap is None else gap  # the gap this edge opened names the paths
                candidate = (state, label, cell)
                best = gaps.get(key)
                if best is None or _path_order(candidate) < _path_order(best):
                    gaps[key] = candidate
        memo[state, sync, on_path] = count, gaps
        return count, gaps

    walk = [visit(control.initial, step(None, control.initial)[0], bit[control.initial])]
    result = None
    while walk:
        try:
            walk.append(visit(*walk[-1].send(result)))
            result = None
        except StopIteration as done:
            walk.pop()
            result = done.value
    return result


def _finishing(control: Behavior) -> set[str]:
    """The control states from which a final state is reachable: a search
    backwards from the finals."""
    into: dict[str, list[str]] = {}
    for t in control.transitions:
        into.setdefault(t.target, []).append(t.source)
    todo = list(control.finals)
    found = set(todo)
    while todo:
        for source in into.get(todo.pop(), ()):
            if source not in found:
                found.add(source)
                todo.append(source)
    return found


def _may_gap(control: Behavior, step, names, successors) -> bool:
    """Whether some walk over (control state, sync state) pairs from the
    initial state opens a gap at a state from which a final is reachable, on
    the control graph `successors` with its states `names` by `_numbered`'s
    numbers. The pairs are polynomially many, and every simple control path
    is such a walk, so False proves that no simple path to a final gaps
    (product reachability, as in Vardi and Wolper's automata-theoretic model
    checking). Without control cycles every walk is a simple path: exact."""
    finishing = None
    start = (names.index(control.initial), step(None, control.initial)[0])
    seen, todo = {start}, [start]
    while todo:
        state, sync = todo.pop()
        for nxt in successors[state]:
            nxt_sync, gap = step(sync, names[nxt])
            if gap is not None:
                if finishing is None:
                    finishing = _finishing(control)
                if names[nxt] in finishing:
                    return True
            elif (nxt, nxt_sync) not in seen:
                seen.add((nxt, nxt_sync))
                todo.append((nxt, nxt_sync))
    return False


def _dominated_edges(successors, components, component_of, names) -> set[tuple[str, str]]:
    """The control edges (source, target) whose target dominates their source:
    every path from the initial state to the source passes through the
    target, so no simple path from the initial state takes such an edge.
    `successors` and `names` are the control graph and its states by number,
    `components` and `component_of` its `integer_components` from the
    initial state. Such an edge closes a cycle, so only edges inside a
    component are tested. Dominator sets are bit sets over the numbers, from
    the iterative data-flow solution Dom(n) = {n} | the meet of Dom(p) over
    n's predecessors p, swept in topological order of the components (the
    iterative scheme of Cooper, Harvey and Kennedy, "A Simple, Fast Dominance
    Algorithm", 2001). On a reducible control graph the edges left form a DAG."""
    order = [v for members in reversed(components) for v in members]  # initial first
    preds: list[list[int]] = [[] for _ in successors]
    inner = []
    for v in order:
        for w in successors[v]:
            preds[w].append(v)
            if component_of[w] == component_of[v]:
                inner.append((v, w))
    if not inner:
        return set()
    everything = (1 << len(successors)) - 1
    dom = [everything] * len(successors)
    dom[order[0]] = 1 << order[0]
    changed = True
    while changed:
        changed = False
        for v in order[1:]:
            meet = everything
            for u in preds[v]:
                meet &= dom[u]
            if dom[v] != meet | 1 << v:
                dom[v] = meet | 1 << v
                changed = True
    return {(names[v], names[w]) for v, w in inner if dom[v] >> w & 1}


def check_synchronization(model: CoupledModel, *, count_paths: bool = True) -> CheckReport:
    """Stitching check for the coupled pair: along every simple control path
    from the control initial state to a control final state, the mapped
    preventive fragments (exempt states skipped, consecutive identical
    fragment sets deduplicated) must chain up, each fragment's first state
    reachable from some previous fragment's last state by zero or more
    preventive transitions. The first gap per control path is reported.

    Paths are counted, not listed: a memoized walk over (control state,
    feasible fragments, previous fragments, path states in the state's SCC)
    visits each such node once per final. It walks the control graph without
    the edges into a dominator of their source, which no simple path takes.
    On a reducible control graph the edges left form a DAG (Hecht and Ullman,
    1974), so the walk is polynomial; it is exponential only in the SCCs left
    after those edges are dropped, which only an irreducible graph has. The
    walk is written as a recursion whose suspended calls wait on a list, so
    no depth of control path overflows the stack. Each distinct gap is
    reported once, along the first control path that meets it in (labels,
    states) order, finals in name order. Both graphs are read as int
    successor lists (`_numbered`), and their SCCs come from one Tarjan,
    `integer_components`. A link one preventive edge long, or none, needs no
    search; any other is answered from one pass over the preventive
    condensation, made on the first such link.

    With `count_paths` false, a polynomial pass over (control state, sync
    state) pairs runs first on the whole control graph and, if that leaves a
    gap, again without the dropped edges, where it is exact on a reducible
    graph. When it proves that no path gaps, the report passes without the
    walk and without the `control-paths` count. A "may gap" answer, or the
    default, runs the walk on the same graph and the same step memo.
    """
    findings: list[Finding] = []
    control = model.control

    finals = sorted(control.finals)
    if not finals:
        findings.append(
            Finding("warning", "no-final-states", "control",
                    "control behavior declares no final states; nothing to stitch")
        )

    step = _sync_step(model)
    number, successors = _numbered(control)
    names = list(number)
    if not count_paths and not _may_gap(control, step, names, successors):
        return CheckReport("synchronization", tuple(findings))
    components, component_of = integer_components(successors, [number[control.initial]])
    dropped = _dominated_edges(successors, components, component_of, names)
    if dropped:  # no simple path takes them: walk the graph without them
        control = Behavior(control.states, control.initial, control.labels,
                           tuple(t for t in control.transitions
                                 if (t.source, t.target) not in dropped), control.finals)
        successors = _numbered(control)[1]  # the same states, so the same numbers
        if not count_paths and not _may_gap(control, step, names, successors):
            return CheckReport("synchronization", tuple(findings))
        components, component_of = integer_components(successors, [number[control.initial]])
    component_of = dict(zip(names, component_of))
    bit = {names[v]: 1 << j for members in components for j, v in enumerate(members)}
    seen_gaps: set[tuple] = set()
    checked = 0
    for final in finals:
        count, gaps = _stitch_paths(control, final, step, component_of, bit)
        checked += count
        for key, cell in sorted(gaps.items(), key=lambda item: _path_order(item[1])):
            if key in seen_gaps:
                continue
            seen_gaps.add(key)
            control_state, ends, starts = key
            findings.append(
                Finding("error", "sync-gap", control_state,
                        f"along control path {_unwind(cell)}: no preventive walk "
                        f"from {{{ends}}} to {{{starts}}}")
            )
    findings.append(
        Finding("info", "control-paths", "control", f"checked {checked} control path(s)")
    )
    return CheckReport("synchronization", tuple(findings))
