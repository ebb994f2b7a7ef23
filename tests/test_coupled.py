import gc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avmkit.coupled import (
    APPROACH_NAMES,
    approach_partition,
    build_coupled_model,
    check_approach_alignment,
    check_mapping,
    check_synchronization,
    coupled_diagnostics,
    mapping_process,
    model_occurrences,
)
from avmkit.lts import Path, Transition, build_behavior
from avmkit.report import ModelValidationError

from generators import (
    is_valid_path,
    naive_check_synchronization,
    random_behavior,
    random_coupled_model,
)

PROTECTION_PATH = Path(
    ("SystemProtection", "PCProtection", "RealTimeProtection"), ("offline", "auto")
)


def rebuild(coupled, *, preventive=None, control=None, mapping=None, approaches=None):
    return build_coupled_model(
        preventive or coupled.preventive,
        control or coupled.control,
        mapping or coupled.mapping,
        approaches or coupled.approaches,
        name=coupled.name,
    )


def drop_transition(behavior, source, label, target):
    kept = [t for t in behavior.transitions if t != Transition(source, label, target)]
    assert len(kept) == len(behavior.transitions) - 1
    return build_behavior(behavior.states, behavior.initial, behavior.labels, kept,
                          behavior.finals)


def mapping_dict(mapping):
    return {state: list(paths) for state, paths in mapping.entries}


def partition_dict(partition):
    return {
        a.name: (set(a.control_states), set(a.preventive_states))
        for a in partition.approaches
    }


class TestBuildCoupledModel:
    def test_bundled_model_is_valid(self, coupled):
        assert coupled.mapping.mapped_states == frozenset(
            {"NotActivated", "Activated", "Process", "Recognition", "Done", "Aborted"}
        )
        assert coupled.mapping.exempt == frozenset({"End"})

    def test_single_state_mapping_entry(self, coupled):
        assert coupled.mapping.paths_for("Process") == (Path(("DetectingFiles",)),)

    def test_behavior_by_side(self, coupled):
        assert coupled.behavior("control") is coupled.control
        assert coupled.behavior("preventive") is coupled.preventive
        with pytest.raises(ValueError):
            coupled.behavior("sideways")

    def test_mapping_into_control_behavior_rejected(self, coupled):
        bad = mapping_dict(coupled.mapping)
        bad["NotActivated"] = [Path(("Activated",))]
        with pytest.raises(ModelValidationError) as err:
            rebuild(coupled, mapping=mapping_process(bad, coupled.mapping.exempt))
        assert any(f.code == "cross-behavior-reference" and f.subject == "Activated"
                   for f in err.value.findings)

    def test_unmapped_state_rejected(self, coupled):
        entries = mapping_dict(coupled.mapping)
        del entries["Process"]
        with pytest.raises(ModelValidationError) as err:
            rebuild(coupled, mapping=mapping_process(entries, coupled.mapping.exempt))
        assert any(f.code == "partial-mapping" and f.subject == "Process"
                   for f in err.value.findings)

    def test_overlapping_approach_rejected(self, coupled):
        assignments = partition_dict(coupled.approaches)
        assignments["Removal"][1].add("CheckCleaningOperations")
        with pytest.raises(ModelValidationError) as err:
            rebuild(coupled, approaches=approach_partition(assignments))
        assert any(f.code == "overlapping-approach" and
                   f.subject == "CheckCleaningOperations" for f in err.value.findings)

    def test_exempt_conflict_rejected(self, coupled):
        with pytest.raises(ModelValidationError) as err:
            rebuild(coupled, mapping=mapping_process(
                mapping_dict(coupled.mapping), coupled.mapping.exempt | {"Done"}))
        assert any(f.code == "exempt-conflict" for f in err.value.findings)

    def test_non_control_key_skips_its_paths(self, coupled):
        entries = mapping_dict(coupled.mapping)
        entries["Nowhere"] = [Path(("Elsewhere",))]
        with pytest.raises(ModelValidationError) as err:
            rebuild(coupled, mapping=mapping_process(entries, coupled.mapping.exempt))
        assert [f.format() for f in err.value.findings] == [
            "[error] cross-behavior-reference Nowhere: mapping key is not a control state"
        ]

    def test_broken_path_still_constructible(self, coupled):
        # triple validity is check_mapping's job, not construction's
        trimmed = drop_transition(coupled.preventive, "PCProtection", "auto",
                                  "RealTimeProtection")
        model = rebuild(coupled, preventive=trimmed)
        assert coupled_diagnostics(model.preventive, model.control,
                                   *model_occurrences(model.mapping, model.approaches)) == []


class TestCheckMapping:
    def test_bundled_passes(self, coupled):
        report = check_mapping(coupled)
        assert report.passed
        for state in ("NotActivated", "Activated"):
            assert coupled.mapping.paths_for(state) == (PROTECTION_PATH,)

    def test_deleted_transition_reports_broken_triple(self, coupled):
        trimmed = drop_transition(coupled.preventive, "PCProtection", "auto",
                                  "RealTimeProtection")
        report = check_mapping(rebuild(coupled, preventive=trimmed))
        assert not report.passed
        broken = [f for f in report.findings if f.code == "invalid-mapped-path"]
        assert broken
        assert all("PCProtection -auto-> RealTimeProtection" in f.detail for f in broken)

    def test_fully_exempt_warns(self, coupled):
        model = rebuild(coupled, mapping=mapping_process({}, coupled.control.states))
        report = check_mapping(model)
        assert report.passed
        assert any(f.code == "fully-exempt-mapping" and "fully exempt mapping" in f.detail
                   for f in report.findings)

    def test_initial_not_anchored_warns(self, coupled):
        entries = mapping_dict(coupled.mapping)
        entries["NotActivated"] = [Path(("PCProtection", "RealTimeProtection"), ("auto",))]
        report = check_mapping(rebuild(coupled, mapping=mapping_process(
            entries, coupled.mapping.exempt)))
        assert report.passed  # a warning, not a failure
        assert any(f.code == "initial-mapping-start" for f in report.findings)

    def test_pass_iff_every_path_valid(self, coupled):
        report = check_mapping(coupled)
        recheck = all(
            is_valid_path(coupled.preventive, path)
            for _, paths in coupled.mapping.entries
            for path in paths
        )
        assert report.passed == recheck

    def test_every_breaking_deletion_is_caught(self, coupled):
        mapped_triples = {
            t
            for _, paths in coupled.mapping.entries
            for path in paths
            for t in path.triples()
        }
        for t in coupled.preventive.transitions:
            trimmed = drop_transition(coupled.preventive, t.source, t.label, t.target)
            report = check_mapping(rebuild(coupled, preventive=trimmed))
            assert report.passed == (t not in mapped_triples), t


class TestApproachAlignment:
    def test_bundled_passes(self, coupled):
        report = check_approach_alignment(coupled)
        assert report.passed
        # uncovered states are reported, not failed
        assert any(f.code == "uncovered-states" for f in report.findings)

    def test_recognition_maps_inside_identification(self, coupled):
        identification = coupled.approaches.get("Identification")
        assert identification.control_states == frozenset({"Recognition"})
        assert identification.preventive_states == frozenset({"CheckCleaningOperations"})

    def test_done_maps_to_deliver_safe_status(self, coupled):
        assert coupled.mapping.paths_for("Done") == (Path(("DeliverSafeStatus",)),)
        assert "DeliverSafeStatus" in coupled.approaches.get("Removal").preventive_states

    def test_moving_cleaning_ops_breaks_alignment(self, coupled):
        assignments = partition_dict(coupled.approaches)
        assignments["Identification"][1].discard("CheckCleaningOperations")
        assignments["Removal"][1].add("CheckCleaningOperations")
        model = rebuild(coupled, approaches=approach_partition(assignments))
        report = check_approach_alignment(model)
        assert not report.passed
        assert any(
            f.code == "approach-misalignment" and f.subject == "Recognition"
            and "CheckCleaningOperations" in f.detail
            for f in report.findings
        )

    def test_invariant_under_renaming(self, coupled):
        def rename(name):
            return f"X_{name}"

        def rename_behavior(b):
            return build_behavior(
                {rename(s) for s in b.states}, rename(b.initial), b.labels,
                [(rename(t.source), t.label, rename(t.target)) for t in b.transitions],
                {rename(s) for s in b.finals},
            )

        entries = {
            rename(state): [Path(tuple(rename(s) for s in p.states), p.labels)
                            for p in paths]
            for state, paths in coupled.mapping.entries
        }
        assignments = {
            a.name: ({rename(s) for s in a.control_states},
                     {rename(s) for s in a.preventive_states})
            for a in coupled.approaches.approaches
        }
        renamed = build_coupled_model(
            rename_behavior(coupled.preventive),
            rename_behavior(coupled.control),
            mapping_process(entries, {rename(s) for s in coupled.mapping.exempt}),
            approach_partition(assignments),
        )
        assert check_approach_alignment(renamed).passed == check_approach_alignment(coupled).passed
        assert check_mapping(renamed).passed == check_mapping(coupled).passed
        assert check_synchronization(renamed).passed == check_synchronization(coupled).passed


class TestSynchronization:
    def test_bundled_passes(self, coupled):
        report = check_synchronization(coupled)
        assert report.passed
        assert any(f.code == "control-paths" and "2" in f.detail for f in report.findings)

    def test_fragments_stitch_through_done(self, coupled):
        # Recognition's fragment ends at CheckCleaningOperations; Done's starts
        # at DeliverSafeStatus; the delete transition links them.
        assert Transition("CheckCleaningOperations", "delete", "DeliverSafeStatus") \
            in coupled.preventive.transition_set

    def test_remapped_done_breaks_stitching(self, coupled):
        entries = mapping_dict(coupled.mapping)
        entries["Done"] = [Path(("RealTimeProtection",))]
        model = rebuild(coupled, mapping=mapping_process(entries, coupled.mapping.exempt))
        report = check_synchronization(model)
        assert not report.passed
        gap = [f for f in report.findings if f.code == "sync-gap"]
        assert gap
        assert gap[0].subject == "Done"
        assert "CheckCleaningOperations" in gap[0].detail
        assert "RealTimeProtection" in gap[0].detail

    def test_monotone_under_added_preventive_transitions(self, coupled):
        base = coupled.preventive
        extra = build_behavior(
            base.states, base.initial, base.labels | {"shortcut"},
            list(base.transitions)
            + [("DeliverUnsafeStatus", "shortcut", "SystemProtection")],
            base.finals,
        )
        model = rebuild(coupled, preventive=extra)
        assert check_synchronization(coupled).passed
        assert check_synchronization(model).passed

    def test_no_final_states_warns(self, coupled):
        base = coupled.control
        no_finals = build_behavior(base.states, base.initial, base.labels,
                                   base.transitions, frozenset())
        model = rebuild(coupled, control=no_finals)
        report = check_synchronization(model)
        assert report.passed
        assert any(f.code == "no-final-states" for f in report.findings)


# Paths to F in depth-first order: I -a-> A -b-> F (gaps at A), I -a-> Alt -b-> F
# and I -a-> B -a-> F (both gap at F). In (labels, states) order the path
# through B comes first, so the F gap is named by it and reported first.
DFS_ORDER_MISLEADS = {
    "preventive": (["P0", "X", "Y", "Z"], "P0", ["p"], [("P0", "p", "Y")]),
    "control": (["I", "A", "Alt", "B", "F"], "I", ["a", "b"],
                [("I", "a", "A"), ("I", "a", "Alt"), ("I", "a", "B"),
                 ("A", "b", "F"), ("Alt", "b", "F"), ("B", "a", "F")], ["F"]),
    "map": {"I": "P0", "A": "Z", "Alt": "Y", "B": "Y", "F": "X"},
}


class TestSynchronizationWalk:
    def test_reported_in_labels_then_states_order(self):
        spec = DFS_ORDER_MISLEADS
        model = build_coupled_model(
            build_behavior(*spec["preventive"]), build_behavior(*spec["control"]),
            mapping_process({c: [Path((p,))] for c, p in spec["map"].items()}),
            approach_partition({}))
        expected = [
            ("sync-gap", "F", "along control path I -a-> B -a-> F: "
                              "no preventive walk from {Y} to {X}"),
            ("sync-gap", "A", "along control path I -a-> A -b-> F: "
                              "no preventive walk from {P0} to {Z}"),
            ("control-paths", "control", "checked 3 control path(s)"),
        ]
        for check in (check_synchronization, naive_check_synchronization):
            assert [(f.code, f.subject, f.detail) for f in check(model).findings] == expected

    def test_long_control_chain_needs_no_recursion(self):
        names = [f"C{i}" for i in range(5000)]
        control = build_behavior(names, "C0", {"l"},
                                 [(a, "l", c) for a, c in zip(names, names[1:])], {names[-1]})
        fragments = {c: [Path(("P",))] for c in names[:-2]}
        fragments.update({c: [Path(("Q",))] for c in names[-2:]})
        model = build_coupled_model(build_behavior({"P", "Q"}, "P", set(), []), control,
                                    mapping_process(fragments), approach_partition({}))
        findings = check_synchronization(model).findings
        assert [(f.code, f.subject) for f in findings] == [("sync-gap", names[-2]),
                                                           ("control-paths", "control")]
        assert findings[-1].detail == "checked 1 control path(s)"

    def test_walk_frees_its_memo_on_return(self, coupled):
        gc.collect()
        gc.disable()
        try:
            check_synchronization(coupled)
            assert gc.collect() == 0  # nothing left for the cycle collector
        finally:
            gc.enable()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=1_000_000), st.booleans())
    def test_matches_path_enumeration(self, seed, acyclic):
        model = random_coupled_model(Random(seed), acyclic)
        assert check_synchronization(model) == naive_check_synchronization(model)


class TestApproachPartition:
    def test_always_four_entries(self, coupled):
        assert tuple(a.name for a in coupled.approaches.approaches) == APPROACH_NAMES

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            approach_partition({"Cleanup": ((), ())})

    def test_states_by_side(self, coupled):
        control_side = coupled.approaches.states_by_side("control")
        assert control_side["Protection"] == frozenset({"NotActivated", "Activated"})
        with pytest.raises(ValueError):
            coupled.approaches.states_by_side("sideways")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.randoms(use_true_random=False))
def test_random_models_mapping_check_matches_revalidation(seed, rng):
    base_rng = Random(seed)
    preventive = random_behavior(base_rng, max_states=5)
    control = random_behavior(base_rng, max_states=4)

    entries = {}
    exempt = set()
    preventive_states = sorted(preventive.states)
    for state in sorted(control.states):
        if rng.random() < 0.3:
            exempt.add(state)
            continue
        # random single-state fragments, occasionally nonsense two-step paths
        if rng.random() < 0.7:
            entries[state] = [Path((rng.choice(preventive_states),))]
        else:
            a, b = rng.choice(preventive_states), rng.choice(preventive_states)
            entries[state] = [Path((a, b), (rng.choice(sorted(preventive.labels)),))]
    model = build_coupled_model(
        preventive,
        control,
        mapping_process(entries, exempt),
        approach_partition({}),
    )
    report = check_mapping(model)
    expected = all(
        is_valid_path(preventive, path) for paths in entries.values() for path in paths
    )
    assert report.passed == expected
