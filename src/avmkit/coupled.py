"""Coupled behavior models: the preventive/control pair, the state-to-paths
mapping between them, the four-approach partition, and the cross-behavior
consistency checks."""

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .lts import Behavior, Path, enumerate_simple_paths, reachable_states
from .report import CheckReport, Finding, ModelValidationError, SourcePos

APPROACH_NAMES = ("Protection", "Detection", "Identification", "Removal")


@dataclass(frozen=True)
class MappingProcess:
    """Finite map from control states to sets of preventive paths, plus the
    control states explicitly exempted from mapping."""

    entries: tuple[tuple[str, tuple[Path, ...]], ...]
    exempt: frozenset[str] = frozenset()

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
    normalized = tuple(
        (state, tuple(sorted(set(paths), key=lambda p: (p.labels, p.states))))
        for state, paths in sorted(entries.items())
    )
    return MappingProcess(entries=normalized, exempt=frozenset(exempt))


@dataclass(frozen=True)
class Approach:
    name: str
    control_states: frozenset[str]
    preventive_states: frozenset[str]


@dataclass(frozen=True)
class ApproachPartition:
    """The four named approaches, each covering states on both sides."""

    approaches: tuple[Approach, ...]

    def get(self, name: str) -> Approach:
        for approach in self.approaches:
            if approach.name == name:
                return approach
        raise KeyError(name)

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


@dataclass(frozen=True)
class CoupledModel:
    name: str
    preventive: Behavior
    control: Behavior
    mapping: MappingProcess
    approaches: ApproachPartition


def coupled_diagnostics(preventive: Behavior, control: Behavior, maps, exempts, approaches,
                        control_positions: Mapping[str, SourcePos] | None = None) -> list[Finding]:
    """The coupling checks, over every place a model names a state or approach.

    `maps` holds (key, position, [(path, state positions), ...]) per map
    statement, `exempts` holds (state, position) and `approaches` holds
    (name, position, {side: [(state, position), ...]}), all in source order.
    Positions are None for a model built in code; `control_positions` places
    partial-mapping findings. A name that fails one check sits out the later
    ones: a map key that is not a control state skips its paths, a rejected
    exempt state is not also a conflict, and a rejected approach member claims
    no ownership. Whether mapped paths actually walk the preventive transition
    relation is check_mapping's job, so that broken models stay constructible
    and reportable.
    """
    findings: list[Finding] = []

    def error(code: str, subject: str, detail: str, position: SourcePos | None) -> None:
        findings.append(Finding("error", code, subject, detail, position))

    def wrong_side(name: str, expected: str) -> str:
        other = preventive.states if expected == "control" else control.states
        if name in other:
            flip = "preventive" if expected == "control" else "control"
            return f"names a {flip} state where a {expected} state is required"
        return f"is not a {expected} state"

    mapped: set[str] = set()
    for key, position, paths in maps:
        if key not in control.states:
            error("cross-behavior-reference", key, f"mapping key {wrong_side(key, 'control')}",
                  position)
            continue
        mapped.add(key)
        for path, spots in paths:
            for state, spot in zip(path.states, spots):
                if state not in preventive.states:
                    error("cross-behavior-reference", state,
                          f"mapping for {key}: path state {wrong_side(state, 'preventive')}",
                          spot)

    exempt: set[str] = set()
    for state, position in exempts:
        if state not in control.states:
            error("cross-behavior-reference", state,
                  f"exempt state {wrong_side(state, 'control')}", position)
        elif state in mapped:
            error("exempt-conflict", state, "state is both mapped and declared exempt", position)
        else:
            exempt.add(state)

    control_positions = control_positions or {}
    for state in sorted(control.states - mapped - exempt):
        error("partial-mapping", state, "control state is neither mapped nor declared exempt",
              control_positions.get(state))

    declared: set[str] = set()
    owners: dict[tuple[str, str], str] = {}
    for name, position, sides in approaches:
        if name not in APPROACH_NAMES:
            error("unknown-approach", name,
                  f"approach must be one of {', '.join(APPROACH_NAMES)}", position)
            continue
        if name in declared:
            error("duplicate-approach", name, "approach block appears more than once", position)
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


def check_synchronization(model: CoupledModel) -> CheckReport:
    """Stitching check for the coupled pair: along every simple control path
    from the control initial state to a control final state, the mapped
    preventive fragments (exempt states skipped, consecutive identical
    fragment sets deduplicated) must chain up, each fragment's first state
    reachable from some previous fragment's last state by zero or more
    preventive transitions. The first gap per control path is reported."""
    findings: list[Finding] = []
    control = model.control
    preventive = model.preventive

    reach_memo: dict[str, frozenset[str]] = {}

    def reaches(src: str, dst: str) -> bool:
        if src not in reach_memo:
            reach_memo[src] = reachable_states(preventive, src)
        return dst in reach_memo[src]

    finals = sorted(control.finals)
    if not finals:
        findings.append(
            Finding("warning", "no-final-states", "control",
                    "control behavior declares no final states; nothing to stitch")
        )

    seen_gaps: set[tuple] = set()
    checked = 0
    for final in finals:
        for control_path in enumerate_simple_paths(control, control.initial, final):
            checked += 1
            feasible: tuple[Path, ...] | None = None
            previous: tuple[Path, ...] | None = None
            for control_state in control_path.states:
                if control_state in model.mapping.exempt:
                    continue
                fragments = model.mapping.paths_for(control_state)
                if not fragments or fragments == previous:
                    continue
                if feasible is None:
                    feasible = fragments
                else:
                    linked = tuple(
                        g for g in fragments if any(reaches(f.last, g.first) for f in feasible)
                    )
                    if not linked:
                        ends = ", ".join(sorted({f.last for f in feasible}))
                        starts = ", ".join(sorted({g.first for g in fragments}))
                        key = (control_state, ends, starts)
                        if key not in seen_gaps:
                            seen_gaps.add(key)
                            findings.append(
                                Finding("error", "sync-gap", control_state,
                                        f"along control path {control_path}: no preventive walk "
                                        f"from {{{ends}}} to {{{starts}}}")
                            )
                        break
                    feasible = linked
                previous = fragments
    findings.append(
        Finding("info", "control-paths", "control", f"checked {checked} control path(s)")
    )
    return CheckReport("synchronization", tuple(findings))
