import contextlib
import gc
import io
import json
import re
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avmkit.coupled
from avmkit.cli import main
from avmkit.coupled import (
    APPROACH_NAMES,
    CoupledModel,
    approach_partition,
    build_coupled_model,
    check_approach_alignment,
    check_mapping,
    check_synchronization,
    coupled_diagnostics,
    mapping_process,
    model_occurrences,
)
from avmkit.dsl import ModelDocument, parse_model, render_model
from avmkit.lts import Path, Transition, build_behavior, strongly_connected_components
from avmkit.report import Finding, ModelValidationError, SourcePos

from conftest import CORPUS_DIR, MODEL_FILE
from generators import (
    complete_coupled_model,
    is_valid_path,
    looped_ladder_model,
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
        approaches = coupled.approaches
        assert approaches.states_by_side("control")["Identification"] == frozenset({"Recognition"})
        assert approaches.states_by_side("preventive")["Identification"] == frozenset(
            {"CheckCleaningOperations"})

    def test_done_maps_to_deliver_safe_status(self, coupled):
        assert coupled.mapping.paths_for("Done") == (Path(("DeliverSafeStatus",)),)
        assert "DeliverSafeStatus" in coupled.approaches.states_by_side("preventive")["Removal"]

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


def fast_check(model):
    """The synchronization report text `validate` makes: decided by the pass
    over (control state, sync state) pairs where it clears."""
    return check_synchronization(model, count_paths=False)


def clears(model):
    """Whether the pass clears the model: `fast_check` decides it without the
    exact walk."""
    with mock.patch.object(avmkit.coupled, "_stitch_paths",
                           wraps=avmkit.coupled._stitch_paths) as walk:
        fast_check(model)
    return not walk.called


def dominated_edges(control):
    return avmkit.coupled._dominated_edges(
        control, strongly_connected_components(control, [control.initial]))


def small_model(preventive_edges, control_edges, finals, fragments):
    """A coupled model with initial states P0 and I over one-state fragments:
    `fragments` maps a control state to its preventive state, or to None for
    an exempt one."""
    pstates = {p for edge in preventive_edges for p in edge[::2]} | {
        p for p in fragments.values() if p}
    cstates = {c for edge in control_edges for c in edge[::2]}
    preventive = build_behavior(pstates, "P0", {"p"}, preventive_edges)
    control = build_behavior(cstates, "I", {"a"}, control_edges, finals)
    return build_coupled_model(
        preventive, control,
        mapping_process({c: [Path((p,))] for c, p in fragments.items() if p},
                        {c for c, p in fragments.items() if not p}),
        approach_partition({}))


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestSynchronizationPass:
    """The polynomial pass that decides text `validate`'s synchronization
    check: it may answer "may gap" on a model that passes, never "no gap" on
    one that fails, and on a reducible control graph it is exact."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=1_000_000), st.booleans())
    def test_no_gap_is_sound_and_exact_on_acyclic(self, seed, acyclic):
        model = random_coupled_model(Random(seed), acyclic)
        exact = naive_check_synchronization(model)
        cleared = clears(model)
        if cleared:
            assert exact.passed
        if acyclic:
            assert cleared == exact.passed
        fast = fast_check(model)
        assert fast.passed == exact.passed
        if not fast.passed:  # a "may gap" answer runs the walk: the full report
            assert fast == exact

    def test_bundled_model_is_cleared_through_its_rescan_loop(self, coupled):
        # Recognition - rescan -> Process enters a dominator of its source: only
        # walks that repeat Process gap, so the first stage alone may not clear.
        assert ("Recognition", "Process") in dominated_edges(coupled.control)
        assert clears(coupled)
        gc.collect()
        gc.disable()
        try:
            assert fast_check(coupled).findings == ()
            assert gc.collect() == 0  # nothing left for the cycle collector
        finally:
            gc.enable()

    def test_gap_on_the_edge_into_a_final(self):
        # I -a-> F, and P0 does not reach F's fragment Q.
        model = small_model([("P0", "p", "P0")], [("I", "a", "F")], ["F"],
                            {"I": "P0", "F": "Q"})
        assert not clears(model)
        assert fast_check(model) == naive_check_synchronization(model)
        assert not fast_check(model).passed

    def test_walks_on_through_a_final(self):
        # I -a-> F1 -a-> G -a-> F2 gaps at G, past the final F1.
        model = small_model([("P0", "p", "P0")],
                            [("I", "a", "F1"), ("F1", "a", "G"), ("G", "a", "F2")],
                            ["F1", "F2"], {"I": "P0", "F1": "P0", "G": "Q", "F2": None})
        assert not clears(model)
        assert not fast_check(model).passed

    def test_gap_before_a_final_is_seen(self):
        # I -a-> A -a-> F gaps at A, which reaches the final but is reached from none.
        model = small_model([("P0", "p", "P0")], [("I", "a", "A"), ("A", "a", "F")], ["F"],
                            {"I": "P0", "A": "Q", "F": None})
        assert not clears(model)
        assert not fast_check(model).passed

    def test_gap_that_reaches_no_final_is_ignored(self):
        # I -a-> A gaps at A, a dead end; I -a-> F is the only path to the final.
        model = small_model([("P0", "p", "P0")], [("I", "a", "A"), ("I", "a", "F")], ["F"],
                            {"I": "P0", "A": "Q", "F": None})
        assert clears(model)
        assert fast_check(model).passed and naive_check_synchronization(model).passed

    def test_keeps_an_edge_inside_an_scc_into_a_non_dominator(self):
        # I enters the loop A <-> B at both states, so neither loop edge enters
        # a dominator of its source (the graph is irreducible), and simple paths
        # take both: I -a-> B -a-> A -a-> F gaps at A (PB does not reach PA),
        # every other path stitches.
        model = small_model([("P0", "p", "PA"), ("P0", "p", "PB"), ("PA", "p", "PB")],
                            [("I", "a", "A"), ("I", "a", "B"), ("A", "a", "B"),
                             ("B", "a", "A"), ("A", "a", "F"), ("B", "a", "F")],
                            ["F"], {"I": "P0", "A": "PA", "B": "PB", "F": None})
        assert dominated_edges(model.control) == set()
        assert not clears(model)
        assert not naive_check_synchronization(model).passed
        assert not fast_check(model).passed

    def test_drops_each_edge_into_a_dominator(self):
        # A loop A -> B -> A under I, plus B -> I: both back edges enter a
        # dominator of their source; the self-loop on F does too.
        model = small_model([("P0", "p", "P0")],
                            [("I", "a", "A"), ("A", "a", "B"), ("B", "a", "A"),
                             ("B", "a", "I"), ("B", "a", "F"), ("F", "a", "F")],
                            ["F"], {"I": "P0", "A": None, "B": None, "F": None})
        assert dominated_edges(model.control) == {
            ("B", "A"), ("B", "I"), ("F", "F")}

    def test_text_validate_on_a_complete_graph_does_not_walk(self, tmp_path, monkeypatch):
        path = tmp_path / "complete_16.avm"
        path.write_text(render_model(ModelDocument(complete_coupled_model(16), ())),
                        encoding="utf-8")

        def refuse(*args):
            raise AssertionError("the exact walk ran")

        monkeypatch.setattr(avmkit.coupled, "_stitch_paths", refuse)
        for quiet in ((), ("--quiet",)):
            code, out = call([*quiet, "validate", str(path)])
            assert code == 0
            assert out.splitlines() == ["mapping: pass", "approaches: pass",
                                        "synchronization: pass"]

    def test_structured_validate_still_counts_paths(self, tmp_path):
        model = complete_coupled_model(5)
        path = tmp_path / "complete_5.avm"
        path.write_text(render_model(ModelDocument(model, ())), encoding="utf-8")
        code, out = call(["--format", "structured", "validate", str(path)])
        assert code == 0
        (sync,) = [c for c in json.loads(out)["checks"] if c["name"] == "synchronization"]
        assert [f["detail"] for f in sync["findings"]] == ["checked 16 control path(s)"]
        assert naive_check_synchronization(model).findings[-1].detail == \
            "checked 16 control path(s)"

    @pytest.mark.parametrize("document", [
        MODEL_FILE, *sorted(CORPUS_DIR.glob("*.avm")),
        looped_ladder_model(6, False), looped_ladder_model(6, True),
    ], ids=lambda d: d.name if isinstance(d, CoupledModel) else d.stem)
    def test_text_and_structured_validate_agree_on_the_corpus(self, document, tmp_path):
        if isinstance(document, CoupledModel):  # a generated model, rendered
            path = tmp_path / f"{document.name}.avm"
            path.write_text(render_model(ModelDocument(document, ())), encoding="utf-8")
            document = path
        self.assert_text_matches_structured(str(document))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=1_000_000), st.booleans())
    def test_text_and_structured_validate_agree(self, tmp_path_factory, seed, acyclic):
        model = random_coupled_model(Random(seed), acyclic)
        exempt = model.mapping.exempt | (model.control.states - model.mapping.mapped_states)
        model = model._replace(mapping=mapping_process(dict(model.mapping.entries), exempt))
        path = tmp_path_factory.mktemp("parity") / "model.avm"
        path.write_text(render_model(ModelDocument(model, ())), encoding="utf-8")
        self.assert_text_matches_structured(str(path))

    @staticmethod
    def assert_text_matches_structured(path):
        for quiet in ((), ("--quiet",)):
            code, text = call([*quiet, "validate", path])
            structured_code, out = call([*quiet, "--format", "structured", "validate", path])
            assert code == structured_code
            payload = json.loads(out)
            checks = payload.get("checks", [])
            statuses = [f"{c['name']}: {c['status']}" for c in checks]
            assert [line for line in text.splitlines()
                    if re.fullmatch(r"\w+: (pass|fail)", line)] == statuses
            errors = [Finding(**r | {"position": r["position"] and SourcePos(**r["position"])})
                      .format()
                      for r in payload["findings"] + [f for c in checks for f in c["findings"]]
                      if r["severity"] == "error"]
            assert [line.strip() for line in text.splitlines()
                    if line.strip().startswith("[error]")] == errors


def chain_model(n):
    """A control chain C0 -> ... -> Cn, final Cn, mapped onto the preventive
    chain P0 -> ... -> Pn: C0 onto the two-state path P0 - p -> P1 and each
    later Ci onto Pi, so one link joins P1 to itself and every other one
    follows a single preventive edge."""
    preventive = [f"P{i}" for i in range(n + 1)]
    control = [f"C{i}" for i in range(n + 1)]
    fragments = {"C0": [Path(("P0", "P1"), ("p",))]}
    fragments.update({c: [Path((p,))] for c, p in zip(control[1:], preventive[1:])})
    return build_coupled_model(
        build_behavior(preventive, "P0", {"p"},
                       [(a, "p", b) for a, b in zip(preventive, preventive[1:])]),
        build_behavior(control, "C0", {"a"},
                       [(a, "a", b) for a, b in zip(control, control[1:])], {control[-1]}),
        mapping_process(fragments), approach_partition({}))


REMAPPED_DONE_GAP = Finding(
    "error", "sync-gap", "Done",
    "along control path NotActivated -activate-> Activated -start-> Process -found-> "
    "Recognition -remove-> Done -finish-> End: no preventive walk from "
    "{CheckCleaningOperations} to {RealTimeProtection}")
TWO_PATHS = Finding("info", "control-paths", "control", "checked 2 control path(s)")


class TestLinksOnDemand:
    """The synchronization check answers a link one preventive edge makes, or
    one state, without a search, and builds the preventive condensation once,
    on the first link it cannot answer so."""

    def test_one_edge_links_need_no_condensation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the condensation was built")

        monkeypatch.setattr(avmkit.coupled, "_reach_test", refuse)
        model = chain_model(40)
        assert fast_check(model).findings == ()
        assert check_synchronization(model).findings == (
            Finding("info", "control-paths", "control", "checked 1 control path(s)"),)

    def test_a_link_follows_an_edge_forward_only(self):
        # P0 -p-> P1, but I's fragment P1 must reach F's fragment P0.
        model = small_model([("P0", "p", "P1")], [("I", "a", "F")], ["F"],
                            {"I": "P1", "F": "P0"})
        assert not fast_check(model).passed
        assert fast_check(model) == naive_check_synchronization(model)

    # Per document, count_paths -> (the report's findings, condensations built).
    @pytest.mark.parametrize("document, expected", [
        (MODEL_FILE, {False: ((), 1), True: ((TWO_PATHS,), 0)}),
        (CORPUS_DIR / "mutant_remapped_done.avm",
         {False: ((REMAPPED_DONE_GAP, TWO_PATHS), 1), True: ((REMAPPED_DONE_GAP, TWO_PATHS), 1)}),
    ], ids=["bundled", "mutant_remapped_done"])
    def test_the_rescan_link_builds_the_condensation_once(self, document, expected,
                                                          monkeypatch):
        # In the bundled model every link is one preventive edge but
        # CheckCleaningOperations -> DetectingFiles, which only the text pass
        # asks: no simple control path takes the rescan edge back to Process.
        # The mutant adds the gap CheckCleaningOperations -> RealTimeProtection,
        # which the walk asks too.
        coupled = parse_model(document.read_text(encoding="utf-8")).coupled
        built = []
        reach_test = avmkit.coupled._reach_test

        def counted(*args):
            built.append(args)
            return reach_test(*args)

        monkeypatch.setattr(avmkit.coupled, "_reach_test", counted)
        for count_paths, (findings, builds) in expected.items():
            built.clear()
            assert check_synchronization(coupled, count_paths=count_paths).findings == findings
            assert len(built) == builds

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=1_000_000), st.booleans())
    def test_agrees_with_the_condensation(self, seed, acyclic):
        model = random_coupled_model(Random(seed), acyclic)
        fragment_sets = [paths for _, paths in model.mapping.entries]
        fragments = [f for paths in fragment_sets for f in paths]
        full = avmkit.coupled._reach_test(model.preventive, {f.last for f in fragments},
                                          {g.first for g in fragments})
        on_demand = avmkit.coupled._link_test(model.preventive, fragment_sets)
        for f in fragments:
            for g in fragments:
                assert on_demand(f.last, g.first) == full(f.last, g.first)


class TestReducedControlGraph:
    """The walk, and the pass's second stage, run on the control graph
    without the edges into a dominator of their source, which no simple path
    takes: on a reducible control loop the walk is polynomial."""

    @pytest.mark.parametrize("gap", [False, True])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_looped_ladder_matches_path_enumeration(self, k, gap):
        model = looped_ladder_model(k, gap)
        exact = naive_check_synchronization(model)
        assert exact.passed != gap
        assert check_synchronization(model) == exact
        fast = fast_check(model)
        assert fast.passed == exact.passed
        if not fast.passed:
            assert fast == exact

    # Structured validate walks to count the 2^k paths. On the ladder with a
    # gap, text validate runs the pass on the whole control graph, again
    # without the back edge, and then the walk, all within the one bound.
    @pytest.mark.parametrize("count_paths, gap", [(True, False), (False, True)],
                             ids=["structured", "text-with-gap"])
    def test_validate_on_a_looped_ladder_steps_linearly(self, monkeypatch, count_paths, gap):
        k = 16
        bound = 8 * k + 8
        calls = 0
        sync_step = avmkit.coupled._sync_step

        def counted_sync_step(model):
            step = sync_step(model)

            def counted(sync, state):
                nonlocal calls
                calls += 1
                if calls > bound:
                    raise AssertionError(f"the sync step ran more than {bound} times")
                return step(sync, state)

            return counted

        monkeypatch.setattr(avmkit.coupled, "_sync_step", counted_sync_step)
        report = check_synchronization(looped_ladder_model(k, gap), count_paths=count_paths)
        j = k // 2 + 1  # the preventive chain has no edge into Pj
        first = "".join(f"s{i} -l-> l{i} -l-> " for i in range(k)) + f"s{k} -done-> end"
        assert report.findings == (
            *[Finding("error", "sync-gap", f"s{j}", f"along control path {first}: "
                      f"no preventive walk from {{P{j - 1}}} to {{P{j}}}")] * gap,
            Finding("info", "control-paths", "control", f"checked {2 ** k} control path(s)"))

    def test_control_sccs_computed_once_when_nothing_is_dropped(self, monkeypatch):
        model = chain_model(40)
        runs = []
        scc = avmkit.coupled.strongly_connected_components

        def counted(behavior, roots):
            if behavior is not model.preventive:
                runs.append(behavior)
            return scc(behavior, roots)

        monkeypatch.setattr(avmkit.coupled, "strongly_connected_components", counted)
        for count_paths in (True, False):
            runs.clear()
            check_synchronization(model, count_paths=count_paths)
            assert runs == ([model.control] if count_paths else [])


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
