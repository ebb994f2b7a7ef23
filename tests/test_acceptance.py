"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
The random suites use fixed seeds and exact sample counts.
"""

import json
import os
import subprocess
import sys
import time
from random import Random

import pytest

from avmkit.bdd import BddManager
from avmkit.checker import check_explicit, check_symbolic, to_kripke
from avmkit.cli import main
from avmkit.dsl import parse_model, render_model
from avmkit.export import to_dot, to_smv
from avmkit.lts import Path, enumerate_simple_paths, find_deadlocks
from avmkit.report import ModelValidationError

from conftest import CORPUS_DIR, MODEL_FILE
from generators import (
    bool_to_bdd,
    naive_simple_paths,
    random_behavior,
    random_bool_formula,
    random_formula,
    random_kripke,
    sat_count,
    truth_table,
)

BUNDLED = str(MODEL_FILE)

EXPECTED_VERDICTS = {
    "reach_done": "holds",
    "always_done": "fails",
    "recognition_resolves": "holds",
    "reach_aborted": "holds",
    "removal_is_done": "holds",
}

MUTANTS = [
    ("mutant_missing_edge.avm", "validate", "invalid-mapped-path"),
    ("mutant_remapped_done.avm", "validate", "sync-gap"),
    ("mutant_overlapping_approach.avm", "validate", "overlapping-approach"),
    ("mutant_unmapped_state.avm", "validate", "partial-mapping"),
    ("mutant_unreachable_done.avm", "check", "expectation-mismatch"),
    ("mutant_misaligned_approach.avm", "validate", "approach-misalignment"),
    ("mutant_cross_reference.avm", "validate", "cross-behavior-reference"),
]


def report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label})"


def structured(capsys, *argv):
    code = main(["--format", "structured", *argv])
    return code, json.loads(capsys.readouterr().out)


def all_findings(payload):
    found = list(payload.get("findings", []))
    for check in payload.get("checks", []):
        found.extend(check["findings"])
    return found


def test_c1_bundled_model_fidelity():
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "avmkit", "validate", BUNDLED],
        capture_output=True, text=True,
    )
    elapsed = time.monotonic() - start
    ok = (
        result.returncode == 0
        and "mapping: pass" in result.stdout
        and "approaches: pass" in result.stdout
        and "synchronization: pass" in result.stdout
        and elapsed < 1.0
    )
    report(1, f"bundled model validates in {elapsed:.2f}s", ok)


def test_c2_paper_path_reproduction(control):
    to_done = enumerate_simple_paths(control, "NotActivated", "Done")
    to_end = enumerate_simple_paths(control, "NotActivated", "End")
    ok = to_done == [
        Path(("NotActivated", "Activated", "Process", "Recognition", "Done"),
             ("activate", "start", "found", "remove"))
    ] and len(to_end) == 2
    report(2, "control paths to Done and End", ok)


def test_c3_oracle_equivalence(bundled_doc):
    start = time.monotonic()
    rng = Random(2024)
    agreed = 0
    for _ in range(500):
        k = random_kripke(rng, max_states=8)
        f = random_formula(rng, k.states, depth=4)
        if check_symbolic(k, f) == check_explicit(k, f):
            agreed += 1
    bundled_ok = True
    for target in ("control", "preventive"):
        behavior = (bundled_doc.coupled.control if target == "control"
                    else bundled_doc.coupled.preventive)
        k = to_kripke(behavior, bundled_doc.coupled.approaches.states_by_side(target))
        for prop in bundled_doc.properties:
            if prop.target != target:
                continue
            bundled_ok &= check_symbolic(k, prop.formula) == check_explicit(k, prop.formula)
    elapsed = time.monotonic() - start
    ok = agreed == 500 and bundled_ok and elapsed < 30.0
    report(3, f"explicit vs symbolic agree on {agreed}/500 random + bundled "
              f"in {elapsed:.1f}s", ok)


def test_c4_path_enumeration_oracle():
    rng = Random(77)
    ok = True
    for _ in range(200):
        behavior = random_behavior(rng, max_states=6)
        states = sorted(behavior.states)
        for source in states:
            for target in states:
                got = enumerate_simple_paths(behavior, source, target)
                ok &= len(got) == len(set(got))
                ok &= set(got) == naive_simple_paths(behavior, source, target)
    report(4, "simple-path enumeration matches brute force on 200 behaviors", ok)


def test_c5_bdd_soundness():
    rng = Random(31337)
    mgr = BddManager(6)
    table_to_node = {}
    node_to_table = {}
    violations = 0
    for _ in range(1000):
        formula = random_bool_formula(rng, 6)
        node = bool_to_bdd(mgr, formula)
        table = truth_table(formula, 6)
        if sat_count(mgr, node, 6) != sum(table):
            violations += 1
        if table_to_node.setdefault(table, node) != node:
            violations += 1  # equivalent functions must share one node
        if node_to_table.setdefault(node, table) != table:
            violations += 1  # one node must mean one function
    scan = mgr.check_invariants()
    ok = violations == 0 and scan == []
    report(5, f"BDD canonicity/sat_count on 1000 formulas, "
              f"{mgr.node_count()} nodes, scan={'clean' if not scan else scan}", ok)


def test_c6_bundled_property_suite(bundled_doc, control, preventive):
    k = to_kripke(bundled_doc.coupled.control,
                  bundled_doc.coupled.approaches.states_by_side("control"))
    ok = set(EXPECTED_VERDICTS) == {p.name for p in bundled_doc.properties}
    for prop in bundled_doc.properties:
        for engine in (check_explicit, check_symbolic):
            verdict = "holds" if k.initial in engine(k, prop.formula) else "fails"
            ok &= verdict == EXPECTED_VERDICTS[prop.name]
    ok &= find_deadlocks(control) == frozenset()
    ok &= find_deadlocks(preventive) == frozenset()
    report(6, "bundled verdicts via both engines + deadlock freedom", ok)


def test_c7_mutation_sensitivity(capsys):
    ok = len(MUTANTS) >= 5
    for filename, command, expected_code in MUTANTS:
        path = str(CORPUS_DIR / filename)
        code, payload = structured(capsys, command, path)
        hits = [f for f in all_findings(payload)
                if f["code"] == expected_code and f["severity"] == "error"]
        positioned = [f for f in hits if f["position"] is not None]
        ok &= code == 1 and bool(positioned)
        if not (code == 1 and positioned):
            print(f"  mutant {filename}: exit={code}, {expected_code} findings={hits}")
    report(7, f"{len(MUTANTS)} single-edit mutants each fail with a "
              f"positioned diagnostic", ok)


def test_c8_determinism(bundled_doc):
    corpus = [MODEL_FILE] + sorted(CORPUS_DIR.glob("*.avm"))
    ok = True
    for path in corpus:
        text = path.read_text(encoding="utf-8")
        outcomes = []
        for _ in range(2):
            try:
                doc = parse_model(text, name=path.stem)
            except ModelValidationError as exc:
                outcomes.append(tuple(f.format() for f in exc.findings))
                continue
            outcomes.append((
                render_model(doc),
                to_smv(doc, "control"),
                to_smv(doc, "preventive"),
                to_dot(doc.coupled.control,
                       approaches=doc.coupled.approaches.states_by_side("control")),
                to_dot(doc.coupled.preventive,
                       approaches=doc.coupled.approaches.states_by_side("preventive")),
            ))
        ok &= outcomes[0] == outcomes[1]

    # cross-process: different hash seeds must not change exported bytes
    runs = [
        subprocess.run(
            [sys.executable, "-m", "avmkit", "export", BUNDLED,
             "--format", "smv", "--target", "control"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed),
        )
        for seed in ("101", "202")
    ]
    ok &= runs[0].stdout == runs[1].stdout and runs[0].returncode == 0
    report(8, f"render/to_smv/to_dot byte-stable on {len(corpus)} corpus files", ok)


@pytest.mark.skip(reason="manual cross-check, not CI-gated: export the control "
                         "model with `avm export --format smv --target control "
                         "src/avmkit/models/antivirus.avm` and run it through an "
                         "external NuSMV; the SPEC verdicts must match `avm check` "
                         "(see README)")
def test_c9_external_smv_cross_check():
    pass
