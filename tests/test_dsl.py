from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avmkit.coupled import (
    approach_partition,
    build_coupled_model,
    mapping_process,
)
from avmkit.ctl import CtlSyntaxError, parse_ctl
from avmkit.dsl import ModelSyntaxError, parse_model, render_model
from avmkit.lts import Path, build_behavior
from avmkit.report import ModelValidationError

from conftest import CORPUS_DIR, MODEL_FILE
from generators import random_behavior

MINIMAL = """
behavior preventive {
  initial P
  P - go -> Q
}
behavior control {
  initial C
  final C
}
map C => P
"""


def findings_of(text, code):
    with pytest.raises(ModelValidationError) as err:
        parse_model(text)
    return [f for f in err.value.findings if f.code == code]


class TestParseBundled:
    def test_counts(self, bundled_doc):
        coupled = bundled_doc.coupled
        assert len(coupled.preventive.states) == 11
        assert len(coupled.preventive.transitions) == 12
        assert len(coupled.control.states) == 7
        assert len(coupled.control.transitions) == 8
        assert len(coupled.mapping.entries) == 6
        assert len(coupled.mapping.exempt) == 1
        assert len(bundled_doc.properties) == 5

    def test_package_copy_matches_repo_copy(self):
        from avmkit.models import antivirus_text

        assert antivirus_text() == MODEL_FILE.read_text(encoding="utf-8")

    def test_property_expectations(self, bundled_doc):
        expected = {
            "reach_done": "holds",
            "always_done": "fails",
            "recognition_resolves": "holds",
            "reach_aborted": "holds",
            "removal_is_done": "holds",
        }
        assert {p.name: p.expected for p in bundled_doc.properties} == expected
        assert all(p.target == "control" for p in bundled_doc.properties)

    def test_minimal_document(self):
        doc = parse_model(MINIMAL)
        assert doc.coupled.mapping.paths_for("C") == (Path(("P",)),)


class TestParseErrors:
    def test_empty_behavior_block(self):
        text = MINIMAL.replace("behavior control {\n  initial C\n  final C\n}",
                               "behavior control {\n}")
        found = findings_of(text, "empty-state-set")
        assert found and found[0].position is not None
        assert found[0].position.line == 6  # the control block's line

    def test_missing_behavior(self):
        found = findings_of("behavior control { initial C final C }\nexempt C\n",
                            "missing-behavior")
        assert found and found[0].subject == "preventive"

    def test_missing_initial(self):
        text = MINIMAL.replace("  initial C\n  final C\n", "  state C\n")
        found = findings_of(text, "bad-initial")
        assert found and found[0].position is not None

    def test_unclosed_block_is_syntax_error(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model("behavior control {\n  initial C\n")
        assert err.value.position.line == 3

    def test_unknown_statement(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model("banana C\n")
        assert err.value.position.line == 1
        assert err.value.position.column == 1

    def test_bad_character_positioned(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(MINIMAL + "map C => P$\n")
        assert err.value.position.column == 11

    def test_error_text_has_the_position_and_detail_does_not(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(MINIMAL + "map C => P$\n")
        assert str(err.value) == "unexpected character '$' at line 11, col 11"
        assert err.value.detail == "unexpected character '$'"
        with pytest.raises(CtlSyntaxError) as err:
            parse_ctl("EF at(Done", start_line=4, start_column=7)
        assert str(err.value) == "expected ')' at line 4, col 17; expected one of: )"
        assert err.value.detail == "expected ')'; expected one of: )"

    def test_mapping_unknown_state(self):
        found = findings_of(MINIMAL + "map C => Nowhere\n", "cross-behavior-reference")
        assert found
        assert found[0].position is not None

    def test_mapping_control_state_in_path(self):
        found = findings_of(MINIMAL.replace("map C => P", "map C => C"),
                            "cross-behavior-reference")
        assert "control" in found[0].detail or "not a preventive" in found[0].detail

    def test_unmapped_control_state(self):
        text = MINIMAL.replace("map C => P", "")
        found = findings_of(text, "partial-mapping")
        assert found and found[0].subject == "C"
        assert found[0].position is not None

    def test_duplicate_property(self):
        text = MINIMAL + "spec p on control: true\nspec p on control: false\n"
        found = findings_of(text, "duplicate-property")
        assert found and found[0].position.line == 12

    def test_ctl_syntax_finding(self):
        text = MINIMAL + "spec p on control: EF at(C\n"
        found = findings_of(text, "ctl-syntax")
        assert found
        assert found[0].position.line == 11
        assert found[0].position.column == 27

    def test_unknown_atom_in_property(self):
        text = MINIMAL + "spec p on control: EF at(Q)\n"  # Q is preventive
        found = findings_of(text, "unknown-atom")
        assert found and found[0].subject == "at(Q)"

    def test_unknown_atom_reported_once_per_property(self):
        text = MINIMAL + "spec p on control: EF at(Nope) | AG !at(Nope)\n"
        found = findings_of(text, "unknown-atom")
        assert [f.subject for f in found] == ["at(Nope)"]

    def test_unknown_approach_atom_in_property(self):
        text = MINIMAL + "spec p on control: EF in(Cleanup)\n"
        found = findings_of(text, "unknown-atom")
        assert [(f.subject, f.detail) for f in found] == [
            ("in(Cleanup)", "property p: no approach named Cleanup")]

    def test_unknown_approach_block(self):
        text = MINIMAL + "approach Cleanup {\n  control: C\n  preventive: P\n}\n"
        found = findings_of(text, "unknown-approach")
        assert found and found[0].subject == "Cleanup"

    def test_overlap_positioned(self):
        text = MINIMAL + (
            "approach Protection {\n  control: C\n  preventive: P\n}\n"
            "approach Removal {\n  control:\n  preventive: P\n}\n"
        )
        found = findings_of(text, "overlapping-approach")
        assert found and found[0].subject == "P"
        assert found[0].position.line == 17

    def test_duplicate_edge(self):
        text = MINIMAL.replace("  P - go -> Q\n", "  P - go -> Q\n  P - go -> Q\n")
        found = findings_of(text, "duplicate-transition")
        assert found and found[0].position.line == 5

    def test_every_finding_is_positioned(self):
        text = MINIMAL + "map C => Nowhere\nspec p on control: EF at(\n"
        with pytest.raises(ModelValidationError) as err:
            parse_model(text)
        assert err.value.findings
        for f in err.value.findings:
            assert f.position is not None, f


class TestComments:
    def test_hash_comments_anywhere(self):
        doc = parse_model(MINIMAL.replace("map C => P", "map C => P  # anchor\n# done"))
        assert doc.coupled.mapping.paths_for("C") == (Path(("P",)),)

    def test_crlf_accepted(self):
        doc = parse_model(MINIMAL.replace("\n", "\r\n"))
        assert doc.coupled.control.initial == "C"

    def test_comment_ends_spec_formula(self):
        doc = parse_model(MINIMAL + "spec p on control: EF at(C)  # note\n")
        assert str(doc.properties[0].formula) == "EF at(C)"

    def test_bad_character_in_formula_is_ctl_finding(self):
        text = MINIMAL.replace("map C", "spec p on control: EF at(C) $\nmap C")
        with pytest.raises(ModelValidationError) as err:
            parse_model(text)
        [found] = err.value.findings
        assert found.code == "ctl-syntax"
        assert "unexpected character '$'" in found.detail
        assert str(found.position) == "line 10, col 29"


class TestRender:
    def test_roundtrip_bundled(self, bundled_doc):
        text = render_model(bundled_doc)
        assert parse_model(text, name="antivirus") == bundled_doc

    def test_render_is_stable(self, bundled_doc):
        once = render_model(bundled_doc)
        assert once == render_model(parse_model(once, name="antivirus"))

    def test_one_state_behavior_renders_three_lines(self):
        doc = build_minimal_doc()
        text = render_model(doc)
        assert "behavior preventive {\n  initial P\n}" in text

    def test_edges_sorted_within_each_block(self, bundled_doc):
        text = render_model(bundled_doc)
        block: list[str] = []
        for line in text.splitlines():
            if line == "}":
                edges = [l for l in block if " -> " in l]
                assert edges == sorted(edges)
                block = []
            else:
                block.append(line)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.randoms(use_true_random=False))
    def test_roundtrip_random_documents(self, seed, rng):
        base_rng = Random(seed)
        # the format declares labels through edges, so unused labels are not
        # expressible; restrict the generator accordingly
        preventive = trim_labels(random_behavior(base_rng, max_states=5))
        control = trim_labels(random_behavior(base_rng, max_states=4))
        entries = {}
        exempt = set()
        for state in sorted(control.states):
            if rng.random() < 0.4:
                exempt.add(state)
            else:
                entries[state] = [Path((rng.choice(sorted(preventive.states)),))]
        partition = approach_partition(
            {"Protection": ([control.initial], [preventive.initial])}
        )
        doc_model = build_coupled_model(
            preventive,
            control,
            mapping_process(entries, exempt),
            partition,
        )
        from avmkit.dsl import ModelDocument

        doc = ModelDocument(coupled=doc_model, properties=())
        assert parse_model(render_model(doc)) == doc


def trim_labels(behavior):
    used = {t.label for t in behavior.transitions}
    return build_behavior(behavior.states, behavior.initial, used,
                          behavior.transitions, behavior.finals)


def build_minimal_doc():
    preventive = build_behavior({"P"}, "P", set(), [])
    control = build_behavior({"C"}, "C", set(), [])
    coupled = build_coupled_model(
        preventive,
        control,
        mapping_process({}, {"C"}),
        approach_partition({}),
    )
    from avmkit.dsl import ModelDocument

    return ModelDocument(coupled=coupled, properties=())


# -- golden diagnostics ----------------------------------------------------------
#
# The exact text of parse_model's coupling findings: code, subject, detail and
# position, for the parse-time corpus mutants and for small documents that hit
# each check and both wordings of a wrong-side reference.

TWO_CONTROL_STATES = """behavior preventive {
  initial P
  P - go -> Q
}
behavior control {
  initial C
  C - step -> D
}
"""

GOLDEN_DOCUMENTS = {
    "exempt_conflict": MINIMAL + "exempt C\nexempt C\n",
    "unknown_approach": MINIMAL + (
        "approach Cleanup {\n  control: C Z\n  preventive: Nowhere\n}\n"
    ),
    "duplicate_approach": MINIMAL + (
        "approach Protection {\n  control: C\n}\n"
        "approach Protection {\n  control: Z\n}\n"
    ),
    # a key that is not a control state skips its paths
    "map_key_cross_reference": MINIMAL + "map P => C\nmap Z => Nowhere\n",
    "path_state_cross_reference": MINIMAL + "map C => C, P - go -> Nowhere - go -> Q\n",
    "exempt_cross_reference": MINIMAL + "exempt P\nexempt Z\n",
    "approach_cross_reference": MINIMAL + (
        "approach Detection {\n  preventive: C Y Q\n  control: P Z C\n}\n"
    ),
    # overlap follows document order, not the canonical approach order, and a
    # state rejected by cross-reference does not claim ownership
    "overlap_out_of_canonical_order": TWO_CONTROL_STATES + (
        "map C => P\nmap D => Q\n"
        "approach Removal {\n  control: D\n  preventive: Q Q\n}\n"
        "approach Identification {\n  control: D C\n  preventive: Q D P\n}\n"
        "approach Protection {\n  control: P\n  preventive: D P\n}\n"
    ),
    "partial_mapping_after_rejections": TWO_CONTROL_STATES + "map Z => P\nexempt Q\n",
    # each repeat is placed at its own edge, in both behavior blocks
    "duplicate_transitions": TWO_CONTROL_STATES.replace(
        "  P - go -> Q\n", "  P - go -> Q\n  P - go -> Q\n"
    ).replace(
        "  C - step -> D\n", "  C - step -> D\n  D - back -> C\n  C - step -> D\n  C - step -> D\n"
    ),
}
GOLDEN_MUTANTS = ("cross_reference", "overlapping_approach", "unmapped_state")

GOLDEN_LINES = {
    'exempt_conflict': [
        '[error] exempt-conflict C: state is both mapped and declared exempt (line 11, col 8)',
        '[error] exempt-conflict C: state is both mapped and declared exempt (line 12, col 8)',
    ],
    'unknown_approach': [
        '[error] unknown-approach Cleanup: approach must be one of Protection, Detection, Identification, Removal (line 11, col 10)',
    ],
    'duplicate_approach': [
        '[error] duplicate-approach Protection: approach block appears more than once (line 14, col 10)',
    ],
    'map_key_cross_reference': [
        '[error] cross-behavior-reference P: mapping key names a preventive state where a control state is required (line 11, col 5)',
        '[error] cross-behavior-reference Z: mapping key is not a control state (line 12, col 5)',
    ],
    'path_state_cross_reference': [
        '[error] cross-behavior-reference C: mapping for C: path state names a control state where a preventive state is required (line 11, col 10)',
        '[error] cross-behavior-reference Nowhere: mapping for C: path state is not a preventive state (line 11, col 23)',
    ],
    'exempt_cross_reference': [
        '[error] cross-behavior-reference P: exempt state names a preventive state where a control state is required (line 11, col 8)',
        '[error] cross-behavior-reference Z: exempt state is not a control state (line 12, col 8)',
    ],
    'approach_cross_reference': [
        '[error] cross-behavior-reference C: approach Detection (preventive side) names a control state where a preventive state is required (line 12, col 15)',
        '[error] cross-behavior-reference Y: approach Detection (preventive side) is not a preventive state (line 12, col 17)',
        '[error] cross-behavior-reference P: approach Detection (control side) names a preventive state where a control state is required (line 13, col 12)',
        '[error] cross-behavior-reference Z: approach Detection (control side) is not a control state (line 13, col 14)',
    ],
    'overlap_out_of_canonical_order': [
        '[error] overlapping-approach D: claimed by both Removal and Identification (control side) (line 16, col 12)',
        '[error] overlapping-approach Q: claimed by both Removal and Identification (preventive side) (line 17, col 15)',
        '[error] cross-behavior-reference D: approach Identification (preventive side) names a control state where a preventive state is required (line 17, col 17)',
        '[error] cross-behavior-reference P: approach Protection (control side) names a preventive state where a control state is required (line 20, col 12)',
        '[error] cross-behavior-reference D: approach Protection (preventive side) names a control state where a preventive state is required (line 21, col 15)',
        '[error] overlapping-approach P: claimed by both Identification and Protection (preventive side) (line 21, col 17)',
    ],
    'partial_mapping_after_rejections': [
        '[error] partial-mapping C: control state is neither mapped nor declared exempt (line 6, col 11)',
        '[error] partial-mapping D: control state is neither mapped nor declared exempt (line 7, col 3)',
        '[error] cross-behavior-reference Z: mapping key is not a control state (line 9, col 5)',
        '[error] cross-behavior-reference Q: exempt state names a preventive state where a control state is required (line 10, col 8)',
    ],
    'duplicate_transitions': [
        '[error] duplicate-transition P -go-> Q: transition appears more than once (line 4, col 3)',
        '[error] duplicate-transition C -step-> D: transition appears more than once (line 10, col 3)',
        '[error] duplicate-transition C -step-> D: transition appears more than once (line 11, col 3)',
    ],
    'mutant_cross_reference': [
        '[error] cross-behavior-reference Activated: mapping for NotActivated: path state names a control state where a preventive state is required (line 63, col 21)',
    ],
    'mutant_overlapping_approach': [
        '[error] overlapping-approach CheckCleaningOperations: claimed by both Identification and Removal (preventive side) (line 60, col 33)',
    ],
    'mutant_unmapped_state': [
        '[error] partial-mapping Process: control state is neither mapped nor declared exempt (line 34, col 3)',
    ],
}


def golden_text(case):
    if case.startswith("mutant_"):
        return (CORPUS_DIR / f"{case}.avm").read_text(encoding="utf-8")
    return GOLDEN_DOCUMENTS[case]


class TestGoldenDiagnostics:
    def test_cases_cover_documents_and_mutants(self):
        expected = set(GOLDEN_DOCUMENTS) | {f"mutant_{m}" for m in GOLDEN_MUTANTS}
        assert set(GOLDEN_LINES) == expected

    @pytest.mark.parametrize("case", sorted(GOLDEN_LINES))
    def test_exact_finding_lines(self, case):
        with pytest.raises(ModelValidationError) as err:
            parse_model(golden_text(case))
        assert [f.format() for f in err.value.findings] == GOLDEN_LINES[case]
