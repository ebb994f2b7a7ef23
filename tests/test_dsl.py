import re
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avmkit.coupled import (
    approach_partition,
    build_coupled_model,
    mapping_process,
)
from avmkit.ctl import CtlSyntaxError, parse_ctl
from avmkit.dsl import (
    _DOC_MARKS,
    _STATEMENT,
    _assemble_behavior,
    _DocParser,
    ModelDocument,
    ModelSyntaxError,
    PropertySpec,
    parse_model,
    render_model,
)
from avmkit.lts import Path, Transition, build_behavior
from avmkit.report import ModelValidationError, SourcePos

from conftest import BENCH_CORPUS_DIR, CORPUS_DIR, MODEL_FILE, workload_text
from generators import random_behavior, random_coupled_model, random_formula

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


class TestErrorOrder:
    """A document reports its first fault in reading order: a stray character
    is an error only once the parser reaches it."""

    @pytest.mark.parametrize("replacement, message, column", [
        ("map C P $", "expected '=>'", 7),
        ("map C P\nexempt $", "expected '=>'", 7),
        ("map C => P - go Q $", "expected '->'", 17),
    ])
    def test_grammar_error_before_a_later_stray(self, replacement, message, column):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(MINIMAL.replace("map C => P", replacement))
        assert err.value.detail == message
        assert tuple(err.value.position) == (10, column)

    def test_spec_line_with_ctl_marks_leaves_later_statements(self):
        spec = "spec p on control: !(E [ at(C) U at(C) ] & true) | $ false  # [ $ ]"
        text = MINIMAL.replace("map C => P", f"{spec}\nmap C => P\nspec q on control: EF at(C)")
        with pytest.raises(ModelValidationError) as err:
            parse_model(text)
        [found] = err.value.findings
        assert (found.code, found.subject) == ("ctl-syntax", "p")
        assert found.detail == "unexpected character '$'"
        assert tuple(found.position) == (10, spec.index("$") + 1)
        doc = parse_model(text.replace("| $ false", "| false"))
        assert doc.coupled.mapping == parse_model(MINIMAL).coupled.mapping
        assert [(p.name, str(p.formula)) for p in doc.properties] == [
            ("p", "!(E [ at(C) U at(C) ] & true) | false"), ("q", "EF at(C)")]

    # A spec line that ends inside a path step: the step's parts on the next
    # line are read as the statements there, not taken with the formula.
    @pytest.mark.parametrize("tail, after, column", [
        ("-", " go -> Q", 2),
        (" - # c", " go -> Q", 2),
        (" - go", " -> Q", 2),
        (" -", "go -> Q", 1),
        (" - go ->", " Q", 2),
    ])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_spec_line_ending_in_a_step_leaves_the_next_line(self, tail, after, column, newline):
        text = MINIMAL + f"spec z on control: EF at(C){tail}\n{after}\n"
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(text.replace("\n", newline))
        assert err.value.detail == _STATEMENT
        assert tuple(err.value.position) == (12, column)

    def test_final_comment_without_newline(self):
        # Scanned as text, the comment would exempt a mapped state.
        doc = parse_model(MINIMAL + "# exempt C")
        assert doc.coupled.mapping.exempt == frozenset()

    @pytest.mark.parametrize("body, message, column", [
        ("bogus }", "expected 'control:', 'preventive:', or '}'", 23),
        ("bogus $ }", "unexpected character '$'", 29),
        ("control { }", "expected 'control:', 'preventive:', or '}'", 23),
        ("- l -> x $ }", "expected 'control:', 'preventive:', or '}'", 23),
    ])
    def test_approach_section_head_is_read_as_a_pair(self, body, message, column):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(MINIMAL + "approach Protection { " + body)
        assert err.value.detail == message
        assert tuple(err.value.position) == (11, column)


class TestMapStatements:
    """A map statement is read whole by index arithmetic; where a token does
    not fit, the error is raised at that token, as reading it token by token
    would."""

    @pytest.mark.parametrize("mark", [mark for mark in _DOC_MARKS if mark != "=>"])
    def test_only_the_map_arrow_follows_the_key(self, mark):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(MINIMAL.replace("map C => P", f"map C {mark} P"))
        assert err.value.detail == "expected '=>'"
        assert tuple(err.value.position) == (10, 7)

    @pytest.mark.parametrize("replacement, message, position", [
        ("map => P", "expected a control state name", (10, 5)),
        ("map $ => P", "unexpected character '$'", (10, 5)),
        ("map C $ P", "unexpected character '$'", (10, 7)),
        ("map C =>", "expected a preventive state name", (11, 1)),
        ("map C => P,", "expected a preventive state name", (11, 1)),
        ("map C => P, $", "unexpected character '$'", (10, 13)),
        ("map C => P - -> Q", "expected a transition label", (10, 14)),
        ("map C => P - go", "expected '->'", (11, 1)),
        ("map C => P, Q - go - Q", "expected '->'", (10, 20)),
        ("map C => P - go ->", "expected a target state", (11, 1)),
        ("map C => P - go -> Q, R - x -> $", "unexpected character '$'", (10, 32)),
        ("map C => P - - go -> Q", "expected a transition label", (10, 14)),
        ("map C => P - go - > Q", "expected '->'", (10, 17)),
        ("map C => P - 1go -> Q", "unexpected character '1'", (10, 14)),
        ("map C => P, P - go -> # Q\n", "expected a target state", (12, 1)),
        ("map C => P -> Q", _STATEMENT, (10, 12)),
        ("map C => P Q", "expected 'behavior', 'approach', 'map', 'exempt', or 'spec'", (10, 12)),
    ])
    def test_fault_reported_at_its_token(self, replacement, message, position):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(MINIMAL.replace("map C => P", replacement))
        assert err.value.detail == message
        assert tuple(err.value.position) == position


# What may stand between a step's parts: blanks, line ends and comments.
_GAPS = (" ", "\t", "\n", "\r\n", " # c -> x\n", "#-\r\n")


class TestSteps:
    """A path step, ``- label -> target``, is one token, whatever stands
    between its parts; a step that does not fit is reported at the token at
    fault, as reading it token by token would."""

    @pytest.mark.parametrize("edge, message, position", [
        ("P - go ->\n}", "expected a target state", (5, 1)),
        ("P - - go -> Q", "expected a transition label", (4, 7)),
        ("P -> Q", "expected '-'", (4, 5)),
        ("P - go - > Q", "expected '->'", (4, 10)),
        ("P - go - x -> Q", "expected '->'", (4, 10)),
        ("P - 1go -> Q", "unexpected character '1'", (4, 7)),
        ("P - go -> 1Q", "unexpected character '1'", (4, 13)),
        ("P - go # -> Q\n}", "expected '->'", (5, 1)),
    ])
    def test_malformed_edge_reported_at_its_token(self, edge, message, position):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(MINIMAL.replace("P - go -> Q", edge))
        assert err.value.detail == message
        assert tuple(err.value.position) == position

    def test_final_run_stops_before_an_edge(self):
        doc = parse_model(MINIMAL.replace("P - go -> Q", "final P Q - go -> P"))
        assert doc.coupled.preventive.finals == {"P"}
        assert doc.coupled.preventive.transitions == (("Q", "go", "P"),)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_spaced_steps_read_as_the_rendered_ones(self, seed):
        rng = Random(seed)
        model = random_coupled_model(rng, acyclic=rng.random() < 0.5)
        exempt = model.mapping.exempt | (model.control.states - model.mapping.mapped_states)
        model = model._replace(mapping=mapping_process(dict(model.mapping.entries), exempt))
        specs = tuple(PropertySpec(f"p{i}", "control", random_formula(rng, model.control.states, 3))
                      for i in range(2))
        text = render_model(ModelDocument(model, specs))

        def gap():
            return "".join(rng.choice(_GAPS) for _ in range(rng.randint(0, 2)))

        def space(step):
            return f"{gap()}-{gap()}{step[1]}{gap()}->{gap()}"

        statements, formulas = text.split("\nspec ", 1)
        spaced = re.sub(r" - (\w+) -> ", space, statements) + "\nspec " + formulas
        doc = parse_model(spaced)
        assert doc == parse_model(text)
        for state, (line, column) in doc.source_positions.items():
            assert re.match(rf"{state}\b", spaced.split("\n")[line - 1][column - 1:])


# Edge runs, whole and cut short: by a malformed step, a declaration, a
# comment or line break inside a step, or a spec line whose trailing step is
# split, before a behavior block, by `take_rest_of_line`. The expected values
# were recorded from the reader that took one edge at a time: each block's
# edges in document order with their sources' and targets' places, and the
# syntax error, the findings or every state's position.
_RUN_BASE = """behavior preventive {
  initial P
  P - go -> Q
  Q - go -> R
  R - back -> P
}
behavior control {
  initial C
  final D
  C - a -> D
  D - b -> C
}
map C => P
map D => P - go -> Q
"""

_RUN_CASES = {
    "whole_runs": _RUN_BASE,
    "label_without_arrow": _RUN_BASE.replace("Q - go -> R", "Q - x"),
    "arrow_without_label": _RUN_BASE.replace("Q - go -> R", "Q - -> R"),
    "dash_then_broken_arrow": _RUN_BASE.replace("R - back -> P", "R - back - > P"),
    "state_line_in_run": _RUN_BASE.replace("  Q - go -> R\n",
                                           "  Q - go -> R\n  state S\n  T - go -> S\n"),
    "final_line_in_run": _RUN_BASE.replace("  final D\n  C - a -> D\n",
                                           "  C - a -> D\n  final D\n"),
    "initial_line_in_run": _RUN_BASE.replace("  Q - go -> R\n", "  Q - go -> R\n  initial R\n"),
    "comment_in_step": _RUN_BASE.replace("Q - go -> R", "Q - go # c -> x\n     -> R"),
    "line_break_in_step": _RUN_BASE.replace("Q - go -> R", "Q -\n go\n -> R"),
    "repeated_edge_in_run": _RUN_BASE.replace("  R - back -> P\n",
                                              "  R - back -> P\n  Q - go -> R\n"),
    "spec_line_split_before_block": "spec z on control: EF at(C) - go ->\n" + _RUN_BASE,
    "spec_line_split_comment_before_block":
        "spec z on control: EF at(C) - go -> # c\n\n" + _RUN_BASE,
}

_RUN_OUTCOMES = {
    "whole_runs": {
        "edges": {
            "preventive": [
                ("P", "go", "Q", (3, 3), (3, 13)),
                ("Q", "go", "R", (4, 3), (4, 13)),
                ("R", "back", "P", (5, 3), (5, 15)),
            ],
            "control": [
                ("C", "a", "D", (10, 3), (10, 12)),
                ("D", "b", "C", (11, 3), (11, 12)),
            ],
        },
        "positions": {
            "C": (13, 5), "D": (14, 5), "P": (2, 11), "Q": (3, 13), "R": (4, 13),
        },
    },
    "label_without_arrow": {
        "syntax": ("expected '->'", (5, 3)),
    },
    "arrow_without_label": {
        "syntax": ('expected a transition label', (4, 7)),
    },
    "dash_then_broken_arrow": {
        "syntax": ("expected '->'", (5, 12)),
    },
    "state_line_in_run": {
        "edges": {
            "preventive": [
                ("P", "go", "Q", (3, 3), (3, 13)),
                ("Q", "go", "R", (4, 3), (4, 13)),
                ("T", "go", "S", (6, 3), (6, 13)),
                ("R", "back", "P", (7, 3), (7, 15)),
            ],
            "control": [
                ("C", "a", "D", (12, 3), (12, 12)),
                ("D", "b", "C", (13, 3), (13, 12)),
            ],
        },
        "positions": {
            "C": (15, 5), "D": (16, 5), "P": (2, 11), "Q": (3, 13), "R": (4, 13), "S": (5, 9),
            "T": (6, 3),
        },
    },
    "final_line_in_run": {
        "edges": {
            "preventive": [
                ("P", "go", "Q", (3, 3), (3, 13)),
                ("Q", "go", "R", (4, 3), (4, 13)),
                ("R", "back", "P", (5, 3), (5, 15)),
            ],
            "control": [
                ("C", "a", "D", (9, 3), (9, 12)),
                ("D", "b", "C", (11, 3), (11, 12)),
            ],
        },
        "positions": {
            "C": (13, 5), "D": (14, 5), "P": (2, 11), "Q": (3, 13), "R": (4, 13),
        },
    },
    "initial_line_in_run": {
        "edges": {
            "preventive": [
                ("P", "go", "Q", (3, 3), (3, 13)),
                ("Q", "go", "R", (4, 3), (4, 13)),
                ("R", "back", "P", (6, 3), (6, 15)),
            ],
            "control": [
                ("C", "a", "D", (11, 3), (11, 12)),
                ("D", "b", "C", (12, 3), (12, 12)),
            ],
        },
        "findings": [
            "[error] duplicate-initial R: behavior block declares more than one initial state"
            " (line 5, col 11)",
        ],
    },
    "comment_in_step": {
        "edges": {
            "preventive": [
                ("P", "go", "Q", (3, 3), (3, 13)),
                ("Q", "go", "R", (4, 3), (5, 9)),
                ("R", "back", "P", (6, 3), (6, 15)),
            ],
            "control": [
                ("C", "a", "D", (11, 3), (11, 12)),
                ("D", "b", "C", (12, 3), (12, 12)),
            ],
        },
        "positions": {
            "C": (14, 5), "D": (15, 5), "P": (2, 11), "Q": (3, 13), "R": (5, 9),
        },
    },
    "line_break_in_step": {
        "edges": {
            "preventive": [
                ("P", "go", "Q", (3, 3), (3, 13)),
                ("Q", "go", "R", (4, 3), (6, 5)),
                ("R", "back", "P", (7, 3), (7, 15)),
            ],
            "control": [
                ("C", "a", "D", (12, 3), (12, 12)),
                ("D", "b", "C", (13, 3), (13, 12)),
            ],
        },
        "positions": {
            "C": (15, 5), "D": (16, 5), "P": (2, 11), "Q": (3, 13), "R": (6, 5),
        },
    },
    "repeated_edge_in_run": {
        "edges": {
            "preventive": [
                ("P", "go", "Q", (3, 3), (3, 13)),
                ("Q", "go", "R", (4, 3), (4, 13)),
                ("R", "back", "P", (5, 3), (5, 15)),
                ("Q", "go", "R", (6, 3), (6, 13)),
            ],
            "control": [
                ("C", "a", "D", (11, 3), (11, 12)),
                ("D", "b", "C", (12, 3), (12, 12)),
            ],
        },
        "findings": [
            "[error] duplicate-transition Q -go-> R: transition appears more than once"
            " (line 6, col 3)",
        ],
    },
    "spec_line_split_before_block": {
        "edges": {
            "preventive": [
                ("P", "go", "Q", (4, 3), (4, 13)),
                ("Q", "go", "R", (5, 3), (5, 13)),
                ("R", "back", "P", (6, 3), (6, 15)),
            ],
            "control": [
                ("C", "a", "D", (11, 3), (11, 12)),
                ("D", "b", "C", (12, 3), (12, 12)),
            ],
        },
        "findings": [
            "[error] ctl-syntax z: unexpected character '-' (line 1, col 29)",
        ],
    },
    "spec_line_split_comment_before_block": {
        "edges": {
            "preventive": [
                ("P", "go", "Q", (5, 3), (5, 13)),
                ("Q", "go", "R", (6, 3), (6, 13)),
                ("R", "back", "P", (7, 3), (7, 15)),
            ],
            "control": [
                ("C", "a", "D", (12, 3), (12, 12)),
                ("D", "b", "C", (13, 3), (13, 12)),
            ],
        },
        "findings": [
            "[error] ctl-syntax z: unexpected character '-' (line 1, col 29)",
        ],
    },
}


def read_edges(text):
    """The reader's outcome on `text`, in the recorded values' form."""
    parser = _DocParser(text)
    try:
        parser.parse()
    except ModelSyntaxError as exc:
        return {"syntax": (exc.detail, tuple(exc.position))}
    place = parser.lx.locate
    edges = {kind: [(*edge, tuple(place(source)), tuple(place(target)))
                    for edge, source, target in zip(raw.edges, raw.edge_positions,
                                                    raw.target_positions, strict=True)]
             for kind, raw in parser.behaviors.items()}
    try:
        doc = parse_model(text)
    except ModelValidationError as exc:
        return {"edges": edges, "findings": [f.format() for f in exc.findings]}
    return {"edges": edges,
            "positions": {state: tuple(doc.source_positions[state])
                          for state in sorted(doc.source_positions)}}


class TestEdgeRuns:
    """A behavior block's edges are read a run at a time; the first token that
    does not fit an edge is read token by token. Edges, places, errors and
    findings are those of reading one edge at a time."""

    @pytest.mark.parametrize("case", sorted(_RUN_CASES))
    def test_recorded_outcome(self, case):
        assert read_edges(_RUN_CASES[case]) == _RUN_OUTCOMES[case]


_TOKEN = re.compile(r"->|=>|[{}:,-]|\w+")


def line_and_column(text, offset):
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class TestErrorPositionOracle:
    """A stray `$` or `{` inserted before a token of a rendered document, or
    one `->` deleted, is reported at the token at fault."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["$", "{", "->"]),
           st.data())
    def test_fault_reported_at_its_token(self, seed, fault, data):
        rng = Random(seed)
        model = random_coupled_model(rng, acyclic=rng.random() < 0.5)
        specs = tuple(PropertySpec(f"p{i}", "control", random_formula(rng, model.control.states, 3))
                      for i in range(2))
        text = render_model(ModelDocument(model, specs))
        specs_start = text.index("\nspec ")
        tokens = [m for m in _TOKEN.finditer(text) if m.start() < specs_start]
        if fault == "->":
            arrows = [m for m in tokens if m[0] == "->"]
            assume(arrows)
            arrow = data.draw(st.sampled_from(arrows))
            broken = text[:arrow.start()] + text[arrow.end() + 1:]
            at = arrow.start()  # where the arrow's target moved to
        else:
            index = data.draw(st.integers(min_value=0, max_value=len(tokens) - 1))
            token = tokens[index]
            broken = text[:token.start()] + fault + " " + text[token.start():]
            at = token.start()
            if fault == "{" and token[0] == "{":
                at += 2  # the inserted brace is the one expected
            elif fault == "{" and token[0] == ":" and tokens[index - 2][0] == "{":
                # `control {` opening the block is no section head; after a
                # section, `preventive` would be read as one of its members.
                at = tokens[index - 1].start()
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(broken)
        assert tuple(err.value.position) == line_and_column(broken, at)
        if fault == "$":
            assert err.value.detail == "unexpected character '$'"


_STATEMENTS = ("behavior", "approach", "map", "exempt", "spec")
_COMMENTS = ("#", "# map C0 => P0", "#exempt C1 $ {", "  # spec q on control: EF")
# Formulas cut short: each is a `ctl-syntax` error at the end of its text.
_CUT_FORMULAS = ("EF", "at(C0) &", "E [ true U", "(at(C0)", "!")


def naive_positions(text):
    """(state -> (line, column), property -> (line, column)) by a plain scan
    of an LF text, after the documented rule: a state sits where it is
    mapped, else exempted, else first mentioned in its behavior block (an
    edge's target at its own name); a property sits at its name."""
    first, named = {}, {"map": {}, "exempt": {}, "spec": {}}
    in_behavior = False
    for number, line in enumerate(text.split("\n"), 1):
        tokens = [(m[0], (number, m.start() + 1))
                  for m in _TOKEN.finditer(line.partition("#")[0])]
        words = [word for word, _ in tokens]
        if not words:
            continue
        if words[0] in _STATEMENTS:
            in_behavior = words[0] == "behavior"
            if words[0] in named:
                named[words[0]][words[1]] = tokens[1][1]
        elif in_behavior and words[0] in ("initial", "final", "state"):
            for name, spot in tokens[1:]:
                first.setdefault(name, spot)
        elif in_behavior and words[0] != "}":  # source - label -> target
            first.setdefault(words[0], tokens[0][1])
            first.setdefault(words[4], tokens[4][1])
    return first | named["map"] | named["exempt"], named["spec"]


class TestPositionOracle:
    """Positions worked out from token offsets agree with a plain scan of a
    rendered document, whatever its line endings, indents and comment lines,
    and a formula cut short is reported where its text ends."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(_CUT_FORMULAS),
           st.sampled_from(["", "  ", "\t", "  # note"]))
    def test_positions_follow_the_rule_with_lf_and_crlf(self, seed, cut, tail):
        rng = Random(seed)
        model = random_coupled_model(rng, acyclic=rng.random() < 0.5)
        exempt = model.mapping.exempt | (model.control.states - model.mapping.mapped_states)
        model = model._replace(mapping=mapping_process(dict(model.mapping.entries), exempt))
        specs = tuple(PropertySpec(f"p{i}", "control", random_formula(rng, model.control.states, 3))
                      for i in range(2))
        lines = []
        for line in render_model(ModelDocument(model, specs)).splitlines():
            if rng.random() < 0.2:
                lines.append(rng.choice(_COMMENTS))
            lines.append(" " * rng.randint(0, 3) + line.lstrip())  # an edge may start a line
        text = "\n".join(lines) + "\n"
        states, properties = naive_positions(text)
        for source in (text, text.replace("\n", "\r\n")):
            doc = parse_model(source)
            assert {s: tuple(p) for s, p in doc.source_positions.items()} == states
            assert {p.name: tuple(p.position) for p in doc.properties} == properties
            for state, (line, column) in doc.source_positions.items():
                assert re.match(rf"{state}\b", lines[line - 1][column - 1:])

        at = rng.choice([i for i, line in enumerate(lines)
                         if line.lstrip().startswith(_STATEMENTS)])
        spec = f"spec cut on control: {cut}{tail}"
        text = "\n".join(lines[:at] + [spec] + lines[at:]) + "\n"
        for source in (text, text.replace("\n", "\r\n")):
            with pytest.raises(ModelValidationError) as err:
                parse_model(source)
            [found] = err.value.findings
            assert (found.code, found.subject) == ("ctl-syntax", "cut")
            assert tuple(found.position) == (at + 1, len(spec.partition("#")[0]) + 1)


def chain_text(n):
    """A control chain of n states, each mapped onto the one preventive state,
    and two properties."""
    names = [f"c{i:04d}" for i in range(n)]
    return "\n".join([
        "behavior preventive {", "  initial P", "  P - stay -> P", "}",
        "behavior control {", f"  initial {names[0]}", f"  final {names[-1]}",
        *[f"  {a} - go -> {b}" for a, b in zip(names, names[1:])], "}",
        *[f"map {name} => P" for name in names],
        f"spec reach on control expect holds: EF at({names[-1]})",
        f"spec never on control expect fails: AG !at({names[-1]})",
    ]) + "\n"


def test_only_kept_positions_are_built(monkeypatch):
    """A passing parse builds at most two SourcePos per property (its own and
    its formula's start), none per state, token, edge or name read; looking a
    state's position up builds that one."""
    text = chain_text(300)
    built = []
    new = SourcePos.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(SourcePos, "__new__", counted)
    doc = parse_model(text)
    assert len(doc.source_positions) == 301 and "c0150" in doc.source_positions
    assert len(built) <= 2 * len(doc.properties)
    built.clear()
    position = doc.source_positions["c0150"]
    assert len(built) == 1
    monkeypatch.undo()
    assert position == (text.split("\n").index("map c0150 => P") + 1, 5)


# The corpus mutants that parse_model rejects: they have no source positions.
REJECTED = ("mutant_cross_reference", "mutant_overlapping_approach", "mutant_unmapped_state")
PARSED_DOCUMENTS = [
    pytest.param(path, id=f"{path.parent.name}/{path.stem}")
    for path in [MODEL_FILE, *sorted(CORPUS_DIR.glob("*.avm")),
                 *sorted(BENCH_CORPUS_DIR.glob("*.avm"))]
    if path.stem not in REJECTED
]


def validated(behavior):
    """`build_behavior`, the library's validator, over the behavior's own fields."""
    return build_behavior(behavior.states, behavior.initial, behavior.labels,
                          behavior.transitions, behavior.finals)


class TestParserOracle:
    """The parser builds each behavior without `build_behavior`: what it
    builds, the validator accepts and equals, and a repeated edge gets the
    validator's finding, placed at the repeat."""

    @pytest.mark.parametrize("source", [
        *[pytest.param(path, id=f"{path.parent.parent.name}/{path.parent.name}/{path.stem}")
          for path in [MODEL_FILE, *sorted(CORPUS_DIR.glob("*.avm")),
                       *sorted(BENCH_CORPUS_DIR.glob("*.avm"))]],
        *[pytest.param(generator, id=f"{generator}-1")
          for generator in ("chain_deep", "random_wide", "ladder_sync")],
    ])
    def test_documents(self, source):
        text = (workload_text(source, 1) if isinstance(source, str)
                else source.read_text(encoding="utf-8"))
        parser = _DocParser(text)
        parser.parse()
        assert set(parser.behaviors) == {"preventive", "control"}
        for raw in parser.behaviors.values():
            findings = []
            behavior, _ = _assemble_behavior(raw, findings, parser.lx.locate)
            assert findings == []
            assert validated(behavior) == behavior
            assert validated(behavior).transitions == behavior.transitions == tuple(raw.edges)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_random_documents_and_a_repeated_edge(self, seed, data):
        rng = Random(seed)
        model = random_coupled_model(rng, acyclic=rng.random() < 0.5)
        exempt = model.mapping.exempt | (model.control.states - model.mapping.mapped_states)
        model = model._replace(mapping=mapping_process(dict(model.mapping.entries), exempt))
        specs = tuple(PropertySpec(f"p{i}", "control", random_formula(rng, model.control.states, 3))
                      for i in range(2))
        text = render_model(ModelDocument(model, specs))
        doc = parse_model(text)
        for kind in ("preventive", "control"):
            behavior = doc.coupled.behavior(kind)
            assert validated(behavior) == behavior

        lines = text.split("\n")
        edge_lines = [k for k, line in enumerate(lines) if line.startswith("  ") and " -> " in line]
        assume(edge_lines)
        k = data.draw(st.sampled_from(edge_lines))
        source, _, label, _, target = lines[k].split()
        edge = Transition(source, label, target)
        kind = "preventive" if edge in doc.coupled.preventive.transition_set else "control"
        behavior = doc.coupled.behavior(kind)
        with pytest.raises(ModelValidationError) as err:
            parse_model("\n".join(lines[:k + 1] + lines[k:]))
        with pytest.raises(ModelValidationError) as reference:
            build_behavior(behavior.states, behavior.initial, behavior.labels,
                           [*behavior.transitions, edge], behavior.finals)
        [found] = err.value.findings
        assert [found._replace(position=None)] == list(reference.value.findings)
        assert found.position == SourcePos(k + 2, 3)


class TestLazyPositions:
    """`source_positions` places a state only when it is looked up, and reads
    as the dict of every kept state's position."""

    @pytest.mark.parametrize("document", PARSED_DOCUMENTS)
    def test_equals_the_placed_dict_on_the_corpus(self, document):
        self.assert_placed(document.read_text(encoding="utf-8"))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_equals_the_placed_dict_on_random_documents(self, seed):
        rng = Random(seed)
        model = random_coupled_model(rng, acyclic=rng.random() < 0.5)
        exempt = model.mapping.exempt | (model.control.states - model.mapping.mapped_states)
        model = model._replace(mapping=mapping_process(dict(model.mapping.entries), exempt))
        self.assert_placed(render_model(ModelDocument(model, ())))

    @staticmethod
    def assert_placed(text):
        states, _ = naive_positions(text)
        placed = {state: SourcePos(*spot) for state, spot in states.items()}
        for source in (text, text.replace("\n", "\r\n")):
            positions = parse_model(source).source_positions
            assert positions == placed and placed == positions
            assert not positions != placed
            assert dict(positions) == placed and dict(positions.items()) == placed
            assert len(positions) == len(placed) and set(positions) == set(placed)
            assert all(state in positions for state in placed)

    def test_reads_as_a_mapping(self, bundled_doc):
        positions = bundled_doc.source_positions
        assert "NoSuchState" not in positions and "done" not in positions
        assert positions.get("NoSuchState") is None
        with pytest.raises(KeyError):
            positions["NoSuchState"]
        assert positions["Done"] == positions.get("Done") == SourcePos(67, 5)
        assert repr(positions) == repr(dict(positions))
        with pytest.raises(TypeError):
            positions["Done"] = SourcePos(1, 1)


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
        '[error] partial-mapping D: control state is neither mapped nor declared exempt (line 7, col 15)',
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
        '[error] partial-mapping Process: control state is neither mapped nor declared exempt (line 34, col 24)',
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
