import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avmkit.cli
from avmkit import ctl
from avmkit.checker import KripkeStructure
from avmkit.cli import main
from avmkit.ctl import MAX_NESTING
from avmkit.coupled import mapping_process
from avmkit.dsl import ModelDocument, PropertySpec, parse_model, render_model
from avmkit.lts import build_behavior
from avmkit.report import CheckReport, Finding, SourcePos

from conftest import CORPUS_DIR, MODEL_FILE
from generators import naive_build_behavior, random_coupled_model, random_formula

BUNDLED = str(MODEL_FILE)
DOCUMENTS = [MODEL_FILE, *sorted(CORPUS_DIR.glob("*.avm"))]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_subprocess(*argv, hash_seed="0", **env_vars):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "avmkit", *argv],
        capture_output=True, text=True, env=env,
    )


class TestValidate:
    def test_bundled_passes(self, capsys):
        code, out = run_cli(capsys, "validate", BUNDLED)
        assert code == 0
        for line in ("mapping: pass", "approaches: pass", "synchronization: pass"):
            assert line in out

    def test_missing_file_exits_two(self, capsys):
        code, out = run_cli(capsys, "validate", "no_such_file.avm")
        assert code == 2
        assert "io-error" in out

    def test_mutant_broken_path_exits_one(self, capsys):
        code, out = run_cli(capsys, "validate", str(CORPUS_DIR / "mutant_missing_edge.avm"))
        assert code == 1
        assert "mapping: fail" in out
        assert "missing transition PCProtection -auto-> RealTimeProtection" in out
        assert "(line " in out

    def test_no_sync_flag(self, capsys):
        code, out = run_cli(capsys, "validate", "--no-sync", BUNDLED)
        assert code == 0
        assert "synchronization: skipped" in out
        assert "synchronization: pass" not in out

    def test_quiet_hides_warnings_not_errors(self, capsys, tmp_path):
        path = tmp_path / "no_finals.avm"
        path.write_text(MODEL_FILE.read_text(encoding="utf-8").replace("  final End\n", ""),
                        encoding="utf-8")
        code, out = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert "  [warning] no-final-states control: " in out
        code, quiet = run_cli(capsys, "--quiet", "validate", str(path))
        assert quiet.splitlines() == [line for line in out.splitlines() if "[warning]" not in line]
        code, quiet = run_cli(capsys, "--quiet", "validate",
                              str(CORPUS_DIR / "mutant_missing_edge.avm"))
        assert code == 1
        assert ("  [error] invalid-mapped-path Activated: path SystemProtection -offline-> "
                "PCProtection -auto-> RealTimeProtection is not a preventive path: missing "
                "transition PCProtection -auto-> RealTimeProtection (line 63, col 5)"
                ) in quiet.splitlines()

    def test_structured_output(self, capsys):
        code, out = run_cli(capsys, "--format", "structured", "validate", BUNDLED)
        assert code == 0
        payload = json.loads(out)
        assert payload["exit_code"] == 0
        assert [c["name"] for c in payload["checks"]] == [
            "mapping", "approaches", "synchronization"]
        assert all(c["status"] == "pass" for c in payload["checks"])

    def test_structured_findings_schema(self, capsys):
        code, out = run_cli(capsys, "--format", "structured", "validate",
                            str(CORPUS_DIR / "mutant_remapped_done.avm"))
        assert code == 1
        payload = json.loads(out)
        failing = [c for c in payload["checks"] if c["status"] == "fail"]
        assert failing
        record = failing[0]["findings"][0]
        assert set(record) == {"severity", "code", "subject", "detail", "position"}
        assert record["position"] is not None


# Done is a control state and, with name=Done, a property too.
SPEC_NAMED_LIKE_A_STATE = """behavior preventive {{
  initial P
  state Q
}}
behavior control {{
  initial Start
  final Done
  Start - run -> Done
}}
map Start => P
map Done => Q
spec {name} on control: EF at(Done)
"""

# Control states named like the two sides; saved as preventive.avm, the model
# is named like one of them too.
STATES_NAMED_LIKE_SIDES = """behavior preventive {
  initial P
}
behavior control {
  initial control
  state preventive
  control - run -> preventive
}
exempt control
exempt preventive
"""


class TestFindingPositions:
    # The gap in mutant_remapped_done needs the preventive condensation.
    @pytest.mark.parametrize("text, detail, line", [
        *((SPEC_NAMED_LIKE_A_STATE.format(name=name),
           "Start -run-> Done: no preventive walk from {P} to {Q}", 11)
          for name in ("Done", "reach")),
        ((CORPUS_DIR / "mutant_remapped_done.avm").read_text(encoding="utf-8"),
         "NotActivated -activate-> Activated -start-> Process -found-> Recognition -remove-> "
         "Done -finish-> End: no preventive walk from {CheckCleaningOperations} to "
         "{RealTimeProtection}", 67),
    ], ids=["Done", "reach", "mutant_remapped_done"])
    def test_state_finding_placed_at_its_map(self, capsys, tmp_path, text, detail, line):
        path = tmp_path / "spec.avm"
        path.write_text(text, encoding="utf-8")
        code, out = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert (f"  [error] sync-gap Done: along control path {detail} (line {line}, col 5)"
                in out.splitlines())
        code, out = run_cli(capsys, "--format", "structured", "validate", str(path))
        assert code == 1
        [gap] = [f for c in json.loads(out)["checks"] for f in c["findings"]
                 if f["code"] == "sync-gap"]
        assert gap["position"] == {"line": line, "column": 5}

    def test_side_and_model_findings_are_not_placed(self, capsys, tmp_path):
        path = tmp_path / "preventive.avm"
        path.write_text(STATES_NAMED_LIKE_SIDES, encoding="utf-8")
        code, out = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert "  [warning] no-final-states control: control behavior declares no final " \
               "states; nothing to stitch" in out.splitlines()
        assert "  [warning] fully-exempt-mapping preventive: fully exempt mapping: every " \
               "control state is exempt" in out.splitlines()
        code, out = run_cli(capsys, "--format", "structured", "validate", str(path))
        assert code == 0
        positions = {(f["code"], f["subject"]): f["position"]
                     for c in json.loads(out)["checks"] for f in c["findings"]}
        assert positions == {
            ("exempt-state", "control"): {"line": 9, "column": 8},
            ("exempt-state", "preventive"): {"line": 10, "column": 8},
            ("fully-exempt-mapping", "preventive"): None,
            ("uncovered-states", "control"): None,
            ("uncovered-states", "preventive"): None,
            ("no-final-states", "control"): None,
            ("control-paths", "control"): None,
        }


class TestInputText:
    # A byte-order mark, or a comment and a carriage return at the end of every
    # line and a last line that is only a comment with no newline, change no
    # finding, position, verdict or exit code: validate and check print what
    # they print on the plain file, but for the structured "file" key.
    @pytest.mark.parametrize("document", DOCUMENTS, ids=lambda path: path.stem)
    @pytest.mark.parametrize("edit", [
        lambda text: "\ufeff" + text,
        lambda text: text.replace("\n", " # note\r\n") + "# note",
    ], ids=["byte-order-mark", "comments"])
    def test_ignored_text_changes_no_output(self, capsys, tmp_path, edit, document):
        path = tmp_path / document.name
        path.write_bytes(edit(document.read_text(encoding="utf-8")).encode("utf-8"))
        for command in ("validate", "check"):
            assert run_cli(capsys, command, str(path)) == run_cli(capsys, command, str(document))
            outcomes = []
            for file in (path, document):
                code, out = run_cli(capsys, "--format", "structured", command, str(file))
                outcomes.append((code, json.loads(out) | {"file": None}))
            assert outcomes[0] == outcomes[1]

    # A finding's detail carries no position: the finding prints it once.
    @pytest.mark.parametrize("tail, subject, detail, position, line", [
        (None, None, "unexpected character '$'", {"line": 2, "column": 13},
         "[error] syntax-error {path}: unexpected character '$' (line 2, col 13)"),
        ("spec bad on control: EF at(Done\n", "bad", "expected ')'; expected one of: )",
         {"line": 76, "column": 32},
         "[error] ctl-syntax bad: expected ')'; expected one of: ) (line 76, col 32)"),
    ], ids=["document", "formula"])
    def test_syntax_findings_print_position_once(self, capsys, tmp_path, tail, subject, detail,
                                                 position, line):
        path = tmp_path / "bad.avm"
        if tail is None:
            path.write_text("behavior control {\n  initial C $\n}\n", encoding="utf-8")
        else:
            path.write_text(MODEL_FILE.read_text(encoding="utf-8") + tail, encoding="utf-8")
        code, out = run_cli(capsys, "validate", str(path))
        assert (code, out) == (1, line.format(path=path) + "\n")
        code, out = run_cli(capsys, "--format", "structured", "validate", str(path))
        assert code == 1
        assert json.loads(out)["findings"] == [{
            "severity": "error", "code": "ctl-syntax" if tail else "syntax-error",
            "subject": subject or str(path), "detail": detail, "position": position,
        }]


class TestCheck:
    def test_bundled_suite(self, capsys):
        code, out = run_cli(capsys, "check", BUNDLED)
        assert code == 0
        assert "reach_done on control: holds (expected holds)" in out
        assert "always_done on control: fails (expected fails)" in out
        assert "0 expectation mismatch(es)" in out
        assert ("witness: NotActivated -activate-> Activated -start-> Process "
                "-found-> Recognition -remove-> Done") in out

    # Each engine exits alike and prints the same structured report once every
    # "engine" key is removed.
    @pytest.mark.parametrize("document", DOCUMENTS, ids=lambda path: path.stem)
    def test_engines_agree(self, capsys, document):
        outcomes = []
        for engine in ("explicit", "symbolic", "both"):
            code, out = run_cli(capsys, "--format", "structured", "check",
                                "--engine", engine, str(document))
            payload = json.loads(out)
            for record in (payload, *payload.get("properties", ())):
                record.pop("engine", None)
            outcomes.append((code, payload))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_unreachable_done_mismatch(self, capsys):
        code, out = run_cli(capsys, "check", str(CORPUS_DIR / "mutant_unreachable_done.avm"))
        assert code == 1
        assert "reach_done on control: fails (expected holds, MISMATCH)" in out
        assert "expectation-mismatch" in out

    def test_one_bdd_manager_per_target(self, capsys, monkeypatch):
        import avmkit.checker

        created = []

        class CountingManager(avmkit.checker.BddManager):
            def __init__(self, var_count):
                super().__init__(var_count)
                created.append(self)

        monkeypatch.setattr(avmkit.checker, "BddManager", CountingManager)
        code, _ = run_cli(capsys, "check", BUNDLED)
        assert code == 0
        # all five bundled specs target the control behavior
        assert len(created) == 1

    def test_quiet_hides_witnesses(self, capsys):
        code, out = run_cli(capsys, "--quiet", "check", BUNDLED)
        assert code == 0
        assert "witness:" not in out


class TestDeepFormulas:
    def check_spec(self, capsys, tmp_path, formula, *flags, command=("check",)):
        path = tmp_path / "deep.avm"
        path.write_text(MODEL_FILE.read_text(encoding="utf-8")
                        + f"spec deep on control: {formula}\n", encoding="utf-8")
        return run_cli(capsys, *flags, *command, str(path))

    @pytest.mark.parametrize("formula", [
        "(" * 200 + "at(Done)" + ")" * 200,
        "!" * 3000 + "at(Done)",
    ])
    def test_too_deep_is_a_positioned_ctl_syntax_finding(self, capsys, tmp_path, formula):
        code, out = self.check_spec(capsys, tmp_path, formula, "--format", "structured")
        assert code == 1
        findings = json.loads(out)["findings"]
        assert [f["code"] for f in findings] == ["ctl-syntax"]
        assert findings[0]["detail"].startswith("formula nested too deep")
        assert findings[0]["position"] == {"line": 76, "column": 23 + MAX_NESTING}

    @pytest.mark.parametrize("prefix, suffix", [("!", ""), ("AG ", ""), ("(", ")")])
    def test_formula_at_the_limit_is_checked(self, capsys, tmp_path, prefix, suffix):
        formula = prefix * MAX_NESTING + "at(Done)" + suffix * MAX_NESTING
        for report_format in ("text", "structured"):
            code, out = self.check_spec(capsys, tmp_path, formula, "--format", report_format)
            assert code == 0, out
            assert "deep" in out

    # Flat chains are not nesting: they parse into one left-deep tree.
    @pytest.mark.parametrize("operator, count", [("|", 1200), ("&", 3000)])
    def test_long_flat_chain_is_checked_and_exported(self, capsys, tmp_path, operator, count):
        formula = f" {operator} ".join(["at(Done)"] * (count + 1))
        code, out = self.check_spec(capsys, tmp_path, formula)
        assert code == 0, out
        assert "deep on control: fails" in out
        code, out = self.check_spec(capsys, tmp_path, formula, "--format", "structured")
        assert code == 0
        assert json.loads(out)["properties"][-1]["formula"] == formula
        code, out = self.check_spec(capsys, tmp_path, formula, command=(
            "export", "--format", "smv", "--target", "control"))
        assert code == 0
        assert out.splitlines()[-1] == "SPEC " + formula.replace("at(Done)", "at_Done")


# Idle and Busy are in both behaviors. Protection holds Idle on the control
# side and Busy on the preventive side, and each behavior sees its own side only.
SHARED_NAMES = """behavior preventive {
  initial Idle
  Idle - go -> Busy
}
behavior control {
  initial Idle
  Idle - step -> Busy
}
approach Protection {
  control: Idle
  preventive: Busy
}
map Idle => Idle
map Busy => Busy
spec leak on control expect fails: EF (at(Busy) & in(Protection))
spec own on control expect holds: at(Idle) & in(Protection)
spec other on preventive expect holds: EF (at(Busy) & in(Protection))
"""


class TestApproachSides:
    @pytest.fixture
    def shared_names(self, tmp_path):
        path = tmp_path / "shared.avm"
        path.write_text(SHARED_NAMES, encoding="utf-8")
        return str(path)

    def test_check_labels_each_side_separately(self, capsys, shared_names):
        code, out = run_cli(capsys, "check", shared_names)
        assert code == 0, out
        assert "0 expectation mismatch(es)" in out

    @pytest.mark.parametrize("target, member", [("control", "Idle"), ("preventive", "Busy")])
    def test_exports_use_the_target_side(self, capsys, shared_names, target, member):
        code, out = run_cli(capsys, "export", shared_names, "--format", "smv",
                            "--target", target)
        assert code == 0
        assert f"  in_Protection := state = {member};" in out.splitlines()
        code, out = run_cli(capsys, "export", shared_names, "--format", "dot",
                            "--target", target)
        assert code == 0
        cluster = out.split("subgraph cluster_Protection {")[1].split("}")[0]
        assert f'"{member}"' in cluster
        assert cluster.count("shape=") == 1


def write_document(tmp_path, preventive_edges, control_edges, initial, final, maps,
                   extra_preventive=()):
    lines = ["behavior preventive {", f"  initial {preventive_edges[0][0]}"]
    lines += [f"  state {state}" for state in extra_preventive]
    lines += [f"  {a} - {label} -> {b}" for a, label, b in preventive_edges]
    lines += ["}", "behavior control {", f"  initial {initial}", f"  final {final}"]
    lines += [f"  {a} - {label} -> {b}" for a, label, b in control_edges]
    lines += ["}"] + [f"map {c} => {p}" for c, p in maps]
    path = tmp_path / "generated.avm"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def ladder(tmp_path, k, gap_after=False):
    """k diamonds s00 -> a01|b01 -> s01 -> ... -> sk over a preventive chain,
    each control state mapped to the preventive state at its depth. Both arms
    enter on x; the a-arm leaves on y and the b-arm on x, so the first path
    in (labels, states) order takes every b-arm, where a depth-first walk
    takes every a-arm first. `gap_after` appends a final state mapped to a
    preventive state no fragment reaches."""
    joins = [f"s{i:02d}" for i in range(k + 1)]
    depth = {s: 2 * i for i, s in enumerate(joins)}
    control_edges = []
    for i in range(1, k + 1):
        a, b = f"a{i:02d}", f"b{i:02d}"
        depth[a] = depth[b] = 2 * i - 1
        control_edges += [(joins[i - 1], "x", a), (a, "y", joins[i]),
                          (joins[i - 1], "x", b), (b, "x", joins[i])]
    chain = [f"p{d:02d}" for d in range(2 * k + 1)]
    preventive_edges = [(p, "step", q) for p, q in zip(chain, chain[1:])]
    maps = [(state, chain[d]) for state, d in depth.items()]
    final = joins[-1]
    if gap_after:
        control_edges.append((final, "x", "tail"))
        maps.append(("tail", "island"))
        final = "tail"
    return write_document(tmp_path, preventive_edges, control_edges, joins[0], final, maps,
                          extra_preventive=["island"] if gap_after else ())


def sync_findings(out):
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    return [(f["code"], f["subject"], f["detail"]) for f in checks["synchronization"]["findings"]]


class TestLargeControlGraphs:
    def test_long_chain_validates_and_lists_its_path(self, capsys, tmp_path):
        names = [f"c{i:04d}" for i in range(1500)]
        path = write_document(tmp_path, [("P", "stay", "P")],
                              [(a, "go", b) for a, b in zip(names, names[1:])],
                              names[0], names[-1], [(c, "P") for c in names])
        code, out = run_cli(capsys, "validate", path)
        assert code == 0, out
        assert "synchronization: pass" in out
        code, out = run_cli(capsys, "--format", "structured", "validate", path)
        assert code == 0
        assert sync_findings(out) == [("control-paths", "control", "checked 1 control path(s)")]
        paths_argv = ("paths", path, "--behavior", "control", "--from", names[0], "--to", names[-1])
        code, out = run_cli(capsys, *paths_argv)
        assert code == 0
        assert out.splitlines()[-1] == f"1 path(s) from {names[0]} to {names[-1]}"
        code, out = run_cli(capsys, "--format", "structured", *paths_argv)
        assert code == 0
        assert json.loads(out)["paths"] == [{"states": names, "labels": ["go"] * 1499}]

    def test_ladder_paths_are_counted_not_listed(self, capsys, tmp_path):
        path = ladder(tmp_path, 40)
        code, out = run_cli(capsys, "validate", path)
        assert code == 0, out
        code, out = run_cli(capsys, "--format", "structured", "validate", path)
        assert code == 0
        assert sync_findings(out) == [
            ("control-paths", "control", "checked 1099511627776 control path(s)")]

    def test_gap_after_ladder_names_the_first_path(self, capsys, tmp_path):
        code, out = run_cli(capsys, "--format", "structured", "validate",
                            ladder(tmp_path, 40, gap_after=True))
        assert code == 1
        first = "s00" + "".join(f" -x-> b{i:02d} -x-> s{i:02d}" for i in range(1, 41))
        assert sync_findings(out) == [
            ("sync-gap", "tail", f"along control path {first} -x-> tail: "
                                 "no preventive walk from {p80} to {island}"),
            ("control-paths", "control", "checked 1099511627776 control path(s)"),
        ]


def chain_document(tmp_path, n=200):
    """A control chain of n states, each mapped onto one preventive state, so
    validate reports n info `mapping-entry` findings and nothing else to
    show, plus two properties with a witness and a counterexample."""
    names = [f"c{i:04d}" for i in range(n)]
    path = write_document(tmp_path, [("P", "stay", "P")],
                          [(a, "go", b) for a, b in zip(names, names[1:])],
                          names[0], names[-1], [(c, "P") for c in names])
    with open(path, "a", encoding="utf-8") as out:
        out.write(f"spec reach on control expect holds: EF at({names[-1]})\n"
                  f"spec never on control expect fails: AG !at({names[-1]})\n")
    return path


class TestOnlyPrintedOutputIsBuilt:
    @pytest.fixture
    def built(self, monkeypatch):
        """Counts records, formula texts and findings placed, by severity."""
        counts = Counter()

        def counted(key, function):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return function(*args, **kwargs)
            return wrapper

        replace = Finding._replace

        def place(finding, **changes):
            if "position" in changes:
                counts[f"placed {finding.severity}"] += 1
            return replace(finding, **changes)

        monkeypatch.setattr(Finding, "to_record", counted("finding", Finding.to_record))
        monkeypatch.setattr(CheckReport, "to_record", counted("report", CheckReport.to_record))
        monkeypatch.setattr(ctl, "render", counted("render", ctl.render))
        monkeypatch.setattr(Finding, "_replace", place)
        return counts

    def test_text_validate_builds_no_record_and_places_no_info_finding(self, capsys, tmp_path,
                                                                       built):
        code, out = run_cli(capsys, "validate", chain_document(tmp_path))
        assert code == 0
        assert out.splitlines() == ["mapping: pass", "approaches: pass", "synchronization: pass"]
        assert (built["finding"], built["report"], built["placed info"]) == (0, 0, 0)

    def test_structured_validate_records_and_places_every_finding(self, capsys, tmp_path,
                                                                   built):
        code, out = run_cli(capsys, "--format", "structured", "validate",
                            chain_document(tmp_path))
        assert code == 0
        records = [f for c in json.loads(out)["checks"] for f in c["findings"]]
        assert sum(f["code"] == "mapping-entry" and f["position"] is not None
                   for f in records) == 200
        assert built["report"] == 3
        assert built["finding"] == len(records)
        assert built["placed info"] == 200

    def test_text_check_renders_no_formula(self, capsys, tmp_path, built):
        code, out = run_cli(capsys, "check", chain_document(tmp_path))
        assert code == 0
        assert "  counterexample: c0000 -go-> " in out
        assert built["render"] == 0

    def test_structured_check_renders_each_formula(self, capsys, tmp_path, built):
        code, out = run_cli(capsys, "--format", "structured", "check", chain_document(tmp_path))
        assert code == 0
        formulas = [p["formula"] for p in json.loads(out)["properties"]]
        assert formulas == ["EF at(c0199)", "AG !at(c0199)"]
        assert built["render"] == 2

    @pytest.fixture
    def witnesses(self, monkeypatch):
        """Counts `witness` calls made through the CLI."""
        calls = []
        found = avmkit.cli.witness
        monkeypatch.setattr(avmkit.cli, "witness",
                            lambda k, formula: calls.append(formula) or found(k, formula))
        return calls

    def test_text_quiet_check_computes_no_witness(self, capsys, witnesses):
        code, out = run_cli(capsys, "--quiet", "check", BUNDLED)
        assert code == 0
        assert "witness:" not in out and "counterexample:" not in out
        assert witnesses == []

    @pytest.mark.parametrize("quiet", [(), ("--quiet",)], ids=["loud", "quiet"])
    def test_shown_witnesses_are_computed(self, capsys, witnesses, quiet):
        code, out = run_cli(capsys, *quiet, "--format", "structured", "check", BUNDLED)
        assert code == 0
        shown = [p["witness"] for p in json.loads(out)["properties"] if p["witness"]]
        assert shown and len(witnesses) == 2
        code, out = run_cli(capsys, "check", BUNDLED)
        assert "  witness: " in out and len(witnesses) == 4

    @pytest.fixture
    def views(self, monkeypatch):
        """Counts the builds of the structure views the engines do not read."""
        counts = Counter()
        for name in ("atoms", "labeling", "edge_labels"):
            view = vars(KripkeStructure)[name]
            monkeypatch.setattr(view, "func", lambda k, name=name, build=view.func:
                                counts.update([name]) or build(k))
        return counts

    def test_quiet_check_builds_no_view(self, capsys, tmp_path, views):
        code, out = run_cli(capsys, "--quiet", "check", chain_document(tmp_path))
        assert code == 0
        assert views == Counter()

    def test_shown_witnesses_build_edge_labels_once(self, capsys, tmp_path, views):
        code, out = run_cli(capsys, "check", chain_document(tmp_path))
        assert code == 0
        assert "  witness: c0000 -go-> " in out and "  counterexample: c0000 -go-> " in out
        assert views == Counter({"edge_labels": 1})


def printed_findings(out):
    """The finding lines of a text report, without the indent under a check."""
    lines = (line.removeprefix("  ") for line in out.splitlines())
    return [line for line in lines if line.startswith("[")]


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestTextStructuredParity:
    # Generated documents with one line deleted or repeated: most still parse
    # and fail or pass their checks; some are syntax or validation errors.
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.booleans(), st.data())
    def test_text_prints_the_shown_structured_findings(self, seed, repeat, data):
        rng = Random(seed)
        model = random_coupled_model(rng, acyclic=rng.random() < 0.5)
        lines = render_model(ModelDocument(model, ())).splitlines()
        at = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
        if repeat:
            lines.insert(at, lines[at])
        else:
            del lines[at]
        with tempfile.TemporaryDirectory() as scratch:
            path = str(Path(scratch) / "model.avm")
            Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
            for quiet in ((), ("--quiet",)):
                code, text = call([*quiet, "validate", path])
                structured_code, out = call([*quiet, "--format", "structured", "validate", path])
                payload = json.loads(out)
                records = payload["findings"] + [
                    f for c in payload.get("checks", ()) for f in c["findings"]]
                shown = ("error",) if quiet else ("error", "warning")
                expected = [
                    Finding(**r | {"position": r["position"] and SourcePos(**r["position"])})
                    .format()
                    for r in records if r["severity"] in shown]
                assert code == structured_code
                assert printed_findings(text) == expected


def shuffled_lines(text, rng):
    """`text` with the edge lines of each behavior block, and the map lines,
    shuffled among themselves; and, for each line of the result, the number
    of the line of `text` it came from."""
    lines = text.split("\n")
    groups: dict[object, list[int]] = {}
    block = None
    for at, line in enumerate(lines):
        if line.startswith("behavior "):
            block = line
        elif line == "}":
            block = None
        elif line.startswith("map ") or (block and " -> " in line):
            groups.setdefault(block or "map", []).append(at)
    origin = list(range(len(lines)))
    for places in groups.values():
        moved = places[:]
        rng.shuffle(moved)
        for at, source in zip(places, moved):
            origin[at] = source
    return "\n".join(lines[source] for source in origin), [source + 1 for source in origin]


class TestLineOrder:
    """The order of a document's edge lines and map lines changes no output:
    a behavior keeps its edges in document order, but equals, hashes and
    reports as the behavior of any order. A validate finding placed at a map
    statement moves with its line, and only so."""

    COMMANDS = [
        ("validate",), ("validate", "--no-sync"), ("info",),
        *[("check", "--engine", engine) for engine in ("explicit", "symbolic", "both")],
        ("paths", "--behavior", "control", "--from", "C0", "--to", "C1"),
        ("paths", "--behavior", "preventive", "--from", "P0", "--to", "P1"),
        *[("export", "--format", kind, "--target", target)
          for kind in ("smv", "dot") for target in ("control", "preventive")],
    ]

    @pytest.mark.parametrize("seed", range(12))
    def test_shuffled_lines_give_the_same_output(self, tmp_path, seed):
        rng = Random(seed)
        model = random_coupled_model(rng, acyclic=rng.random() < 0.5)
        exempt = model.mapping.exempt | (model.control.states - model.mapping.mapped_states)
        model = model._replace(mapping=mapping_process(dict(model.mapping.entries), exempt))
        specs = tuple(PropertySpec(f"p{i}", "control", random_formula(rng, model.control.states, 3))
                      for i in range(3))
        text = render_model(ModelDocument(model, specs))
        shuffled, origin = shuffled_lines(text, rng)
        assert shuffled != text

        def unshuffle(out):  # a printed line number, read as the unshuffled line's
            return re.sub(r'\bline(\W+)(\d+)', lambda m: f"line{m[1]}{origin[int(m[2]) - 1]}", out)

        path = tmp_path / "model.avm"
        outputs = []
        for document in (text, shuffled):
            path.write_text(document, encoding="utf-8")
            outputs.append([call([*style, *command[:1], str(path), *command[1:]])
                            for command in self.COMMANDS
                            for style in ((), ("--format", "structured"))])
        assert [(code, unshuffle(out)) for code, out in outputs[1]] == outputs[0]

        before, after = parse_model(text), parse_model(shuffled)
        assert after == before and hash(after) == hash(before)
        for kind in ("preventive", "control"):
            behavior = after.coupled.behavior(kind)
            assert behavior == before.coupled.behavior(kind)
            assert hash(behavior) == hash(before.coupled.behavior(kind))
            block = shuffled.split(f"behavior {kind} {{\n")[1].split("\n}")[0]
            edges = [tuple(re.fullmatch(r"\s*(\w+) - (\w+) -> (\w+)", line).groups())
                     for line in block.split("\n") if " -> " in line]
            assert behavior.transitions == tuple(edges)
            args = (behavior.states, behavior.initial, behavior.labels, edges, behavior.finals)
            assert build_behavior(*args) == naive_build_behavior(*args) == behavior


class TestPaths:
    def test_two_paths_to_end(self, capsys):
        code, out = run_cli(capsys, "paths", BUNDLED, "--behavior", "control",
                            "--from", "NotActivated", "--to", "End")
        assert code == 0
        assert "2 path(s)" in out

    def test_single_path_to_done(self, capsys):
        code, out = run_cli(capsys, "--format", "structured", "paths", BUNDLED,
                            "--behavior", "control", "--from", "NotActivated",
                            "--to", "Done")
        payload = json.loads(out)
        assert payload["paths"] == [{
            "states": ["NotActivated", "Activated", "Process", "Recognition", "Done"],
            "labels": ["activate", "start", "found", "remove"],
        }]

    def test_unknown_state_exits_one(self, capsys):
        code, out = run_cli(capsys, "paths", BUNDLED, "--behavior", "control",
                            "--from", "Nowhere", "--to", "End")
        assert code == 1
        assert "unknown-state" in out


class TestExport:
    def test_smv_to_stdout(self, capsys):
        code, out = run_cli(capsys, "export", BUNDLED, "--format", "smv",
                            "--target", "control")
        assert code == 0
        assert out.startswith("MODULE main")

    def test_dot_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "control.dot"
        code, _ = run_cli(capsys, "export", BUNDLED, "--format", "dot",
                          "--target", "control", "--output", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith('digraph "control"')

    def test_byte_identical_across_processes(self):
        # different hash seeds shake out any accidental set-order dependence
        first = run_subprocess("export", BUNDLED, "--format", "smv",
                               "--target", "control", hash_seed="1")
        second = run_subprocess("export", BUNDLED, "--format", "smv",
                                "--target", "control", hash_seed="2")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestInfo:
    def test_summary_lines(self, capsys):
        code, out = run_cli(capsys, "info", BUNDLED)
        assert code == 0
        assert "preventive: 11 states / 12 transitions" in out
        assert "control: 7 states / 8 transitions" in out
        assert "mapping: 6 entries / 1 exempt" in out
        assert "properties: 5" in out


class TestExitCodes:
    def test_usage_error_is_two(self):
        result = run_subprocess("export", BUNDLED, "--format", "yaml",
                                "--target", "control")
        assert result.returncode == 2

    def test_console_script_entry(self):
        result = run_subprocess("validate", BUNDLED)
        assert result.returncode == 0


SYNTAX_ERROR = "behavior control {\n  initial C $\n}\n"
# States state and state_ both become the SMV identifier state_.
NAME_COLLISION = """behavior preventive {
  initial P
}
behavior control {
  initial state
  state - l -> state_
}
exempt state
exempt state_
"""
PATH_TO = ("--behavior", "control", "--to", "Done", "--from")


class TestStructuredEnvelope:
    @pytest.mark.parametrize("command, file, options, exit_code", [
        ("validate", BUNDLED, (), 0),
        ("validate", "no_such_file.avm", (), 2),
        ("check", BUNDLED, (), 0),
        ("check", "syntax.avm", (), 1),
        ("info", BUNDLED, (), 0),
        ("info", "syntax.avm", (), 1),
        ("paths", BUNDLED, (*PATH_TO, "NotActivated"), 0),
        ("paths", BUNDLED, (*PATH_TO, "Nowhere"), 1),
        ("export", BUNDLED, ("--format", "smv", "--target", "control"), 0),
        ("export", BUNDLED, ("--format", "dot", "--target", "control", "--output", "c.dot"), 0),
        ("export", "collision.avm", ("--format", "smv", "--target", "control"), 1),
    ])
    def test_one_json_document(self, capsys, tmp_path, monkeypatch, command, file, options,
                               exit_code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "syntax.avm").write_text(SYNTAX_ERROR, encoding="utf-8")
        (tmp_path / "collision.avm").write_text(NAME_COLLISION, encoding="utf-8")
        code, out = run_cli(capsys, "--format", "structured", command, file, *options)
        payload = json.loads(out)
        assert isinstance(payload, dict)
        assert code == payload["exit_code"] == exit_code
        assert (payload["command"], payload["file"]) == (command, file)
        assert isinstance(payload["findings"], list)

    @pytest.mark.parametrize("export_format", ["smv", "dot"])
    def test_export_carries_the_text(self, capsys, tmp_path, export_format):
        options = ("--format", export_format, "--target", "preventive")
        _, text = run_cli(capsys, "export", BUNDLED, *options)
        _, out = run_cli(capsys, "--format", "structured", "export", BUNDLED, *options)
        payload = json.loads(out)
        assert payload["text"] == text
        assert (payload["target"], payload["format"], payload["output"]) == (
            "preventive", export_format, None)
        out_file = tmp_path / f"preventive.{export_format}"
        _, out = run_cli(capsys, "--format", "structured", "export", BUNDLED, *options,
                         "--output", str(out_file))
        payload = json.loads(out)
        assert payload["output"] == str(out_file)
        assert payload["text"] == out_file.read_text(encoding="utf-8") == text


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ("validate", BUNDLED),
        ("check", BUNDLED),
        ("--format", "structured", "info", BUNDLED),
        ("export", BUNDLED, "--format", "smv", "--target", "control"),
    ])
    def test_exits_two_without_traceback(self, argv):
        # The read end is closed before the spawn, so the first write fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run([sys.executable, "-m", "avmkit", *argv], stdout=write_end,
                                    stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr == ""


class TestUnencodableOutput:
    # A stdout encoding that lacks a character of the output prints it escaped;
    # a UTF-8 stdout prints it as it is.
    @pytest.mark.parametrize("command, name, text, exit_code, ascii_out, utf8_out", [
        ("check", "cedilla.avm", "behavior control {\n  initial Ç\n}\n", 1,
         "unexpected character '\\xc7'", "unexpected character 'Ç'"),
        ("validate", "nö.avm", None, 2, "n\\xf6.avm", "nö.avm"),
    ], ids=["finding", "file-name"])
    def test_escaped_not_raised(self, tmp_path, command, name, text, exit_code, ascii_out,
                                utf8_out):
        path = tmp_path / name
        if text is not None:
            path.write_text(text, encoding="utf-8")
        for encoding, expected in (("ascii", ascii_out), ("utf-8", utf8_out)):
            result = run_subprocess(command, str(path), PYTHONIOENCODING=encoding)
            assert (result.returncode, result.stderr) == (exit_code, "")
            assert expected in result.stdout
