import re

import pytest

from avmkit.coupled import (
    approach_partition,
    build_coupled_model,
    mapping_process,
)
from avmkit.dsl import ModelDocument, parse_model, render_model
from avmkit.export import NameCollisionError, to_dot, to_smv
from avmkit.lts import build_behavior

from conftest import MODEL_FILE


def one_state_doc(state_name):
    preventive = build_behavior({"P"}, "P", set(), [])
    control = build_behavior({state_name}, state_name, set(), [])
    coupled = build_coupled_model(
        preventive,
        control,
        mapping_process({}, {state_name}),
        approach_partition({}),
    )
    return ModelDocument(coupled=coupled, properties=())


class TestSmv:
    def test_module_header_and_var_enum(self, bundled_doc):
        text = to_smv(bundled_doc, "control")
        assert text.count("MODULE main") == 1
        assert ("VAR state : {Aborted, Activated, Done, End, NotActivated, "
                "Process, Recognition};") in text
        assert "init(state) := NotActivated;" in text

    def test_recognition_branch_successors(self, bundled_doc):
        text = to_smv(bundled_doc, "control")
        match = re.search(r"state = Recognition : \{([^}]*)\};", text)
        assert match is not None
        assert set(match.group(1).split(", ")) == {"Done", "Aborted", "Process"}

    def test_branch_per_state(self, bundled_doc):
        for target in ("control", "preventive"):
            behavior = (bundled_doc.coupled.control if target == "control"
                        else bundled_doc.coupled.preventive)
            text = to_smv(bundled_doc, target)
            branches = re.findall(r"^    state = (\w+) : \{([^}]*)\};$", text, re.M)
            assert len(branches) == len(behavior.states)
            pairs = {(s, t) for s, succ in branches for t in succ.split(", ")}
            behavior_pairs = {(t.source, t.target) for t in behavior.transitions}
            dead_ends = {(s, s) for s in behavior.states
                         if not behavior.successor_map[s]}
            assert pairs == behavior_pairs | dead_ends

    def test_totalized_self_loop_branch(self, bundled_doc):
        text = to_smv(bundled_doc, "control")
        assert "state = End : {End};" in text

    def test_defines(self, bundled_doc):
        text = to_smv(bundled_doc, "control")
        assert "at_Done := state = Done;" in text
        assert "in_Removal := state = Done;" in text
        assert "in_Protection := state = Activated | state = NotActivated;" in text

    def test_empty_approach_on_preventive_target(self, bundled_doc):
        text = to_smv(bundled_doc, "preventive")
        # Protection has preventive members; every approach line still appears
        assert "in_Protection := " in text
        assert text.count("in_") == 4

    def test_spec_lines_rewritten(self, bundled_doc):
        text = to_smv(bundled_doc, "control")
        assert "SPEC EF at_Done" in text
        assert "SPEC AG (at_Recognition -> EF (at_Done | at_Aborted))" in text
        assert "SPEC AG (in_Removal -> at_Done)" in text
        assert text.count("SPEC ") == 5

    def test_single_state_case(self):
        text = to_smv(one_state_doc("Solo"), "control")
        assert "next(state) := case" in text
        assert "state = Solo : {Solo};" in text
        assert "esac;" in text

    def test_single_letter_state_is_reserved_in_smv(self):
        # A/E/F/G/X/U are NuSMV keywords; they must sanitize, not collide
        text = to_smv(one_state_doc("A"), "control")
        assert "state = A_ : {A_};" in text

    def test_name_collision(self):
        preventive = build_behavior({"P"}, "P", set(), [])
        control = build_behavior({"state", "state_"}, "state", {"l"},
                                 [("state", "l", "state_")])
        coupled = build_coupled_model(
            preventive,
            control,
            mapping_process({}, {"state", "state_"}),
            approach_partition({}),
        )
        doc = ModelDocument(coupled=coupled, properties=())
        with pytest.raises(NameCollisionError):
            to_smv(doc, "control")

    @pytest.mark.parametrize("state", ["at_Foo", "in_Protection"])
    def test_state_named_like_a_define(self, state):
        # at_Foo is state Foo's DEFINE; in_Protection is an approach's
        preventive = build_behavior({"P"}, "P", set(), [])
        control = build_behavior({"Foo", state}, "Foo", set(), [])
        coupled = build_coupled_model(
            preventive,
            control,
            mapping_process({}, {"Foo", state}),
            approach_partition({}),
        )
        doc = ModelDocument(coupled=coupled, properties=())
        with pytest.raises(NameCollisionError, match=state):
            to_smv(doc, "control")

    def test_reserved_word_sanitized(self):
        text = to_smv(one_state_doc("case"), "control")
        assert "state = case_ : {case_};" in text

    def test_deterministic(self, bundled_doc):
        assert to_smv(bundled_doc, "control") == to_smv(bundled_doc, "control")

    def test_bad_target(self, bundled_doc):
        with pytest.raises(ValueError):
            to_smv(bundled_doc, "sideways")


class TestDot:
    def test_control_counts(self, bundled_doc, control):
        text = to_dot(control, name="control")
        nodes = re.findall(r'"(\w+)" \[shape=(?:double)?circle\];', text)
        assert len(nodes) == 7
        edges = re.findall(r'"(\w+)" -> "(\w+)" \[label="(\w+)"\];', text)
        assert len(edges) == 8

    def test_finals_double_circled(self, bundled_doc, control):
        text = to_dot(control)
        assert '"End" [shape=doublecircle];' in text

    def test_initial_marked(self, control):
        text = to_dot(control)
        assert '"__start__" [shape=point, label=""];' in text
        assert '"__start__" -> "NotActivated";' in text

    def test_clusters(self, bundled_doc, control):
        text = to_dot(control, approaches=bundled_doc.coupled.approaches.states_by_side("control"))
        cluster = re.search(r"subgraph cluster_Identification \{(.*?)\}", text, re.S)
        assert cluster is not None
        assert '"Recognition"' in cluster.group(1)

    def test_edge_labels_kept(self, control):
        text = to_dot(control)
        assert '"Recognition" -> "Process" [label="rescan"];' in text

    def test_transition_free_behavior_has_nodes_only(self):
        b = build_behavior({"A", "B"}, "A", set(), [])
        text = to_dot(b)
        assert '"A" [shape=circle];' in text
        assert '"B" [shape=circle];' in text
        edges = [line for line in text.splitlines() if "->" in line]
        assert edges == ['  "__start__" -> "A";']

    def test_deterministic(self, bundled_doc, preventive):
        approaches = bundled_doc.coupled.approaches.states_by_side("preventive")
        assert to_dot(preventive, approaches=approaches) == \
            to_dot(preventive, approaches=approaches)


class TestRenderDeterminism:
    def test_render_and_exports_stable_across_parses(self, bundled_doc):
        text = MODEL_FILE.read_text(encoding="utf-8")
        docs = [parse_model(text, name="antivirus") for _ in range(2)]
        assert render_model(docs[0]) == render_model(docs[1])
        assert to_smv(docs[0], "control") == to_smv(docs[1], "control")
        assert to_dot(docs[0].coupled.control) == to_dot(docs[1].coupled.control)
