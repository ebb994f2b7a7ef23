"""Golden record of `avm` output: the exit code and stdout of every subcommand,
in text and structured format, on the bundled model, two corpus mutants and a
missing file. The calls run in the repository root, so every path in the
record is relative to it.

After a deliberate change to the output, re-record from the root with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import itertools
import json
import os
import random
from pathlib import Path

import pytest

from avmkit.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILE = Path(__file__).with_name("cli_golden.json")
FILES = (
    "src/avmkit/models/antivirus.avm",
    "tests/corpus/mutant_missing_edge.avm",
    "tests/corpus/mutant_unreachable_done.avm",
    "no_such_file.avm",
)
COMMANDS = (
    ("validate",),
    ("validate", "--no-sync"),
    *(("check", "--engine", engine) for engine in ("explicit", "symbolic", "both")),
    ("info",),
    ("paths", "--behavior", "control", "--from", "NotActivated", "--to", "Done"),
    ("paths", "--behavior", "control", "--from", "Nowhere", "--to", "Done"),
    *(("export", "--format", fmt, "--target", target)
      for fmt in ("smv", "dot") for target in ("control", "preventive")),
)
CALLS = [
    " ".join((*flags, command, path, *options))
    for flags in ((), ("--format", "structured"))
    for path in FILES
    for command, *options in COMMANDS
]


def record(call: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(call.split())
    return {"exit_code": code, "stdout": out.getvalue().split("\n")}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def test_record_covers_every_call(golden):
    assert sorted(golden) == sorted(CALLS)


@pytest.mark.parametrize("call", CALLS)
def test_output_matches_record(call, golden, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert record(call) == golden[call]


# Calls that are not in the record, with the outcome each must give: an exit
# code, or the SystemExit that argparse raises on a usage error or on --help.
EXTRAS = {
    "--quiet validate tests/corpus/mutant_missing_edge.avm": 1,
    "--quiet check src/avmkit/models/antivirus.avm": 0,
    "export src/avmkit/models/antivirus.avm --format yaml --target control": "SystemExit(2)",
    "--help": "SystemExit(0)",
    "check --help": "SystemExit(0)",
}


def run_extra(call: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(call.split())
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    return code, out.getvalue(), err.getvalue()


def test_calls_in_one_process_share_nothing(golden, monkeypatch):
    # Every call after the first reuses one parser: no order of calls, flags or
    # usage errors may change what a later call prints.
    monkeypatch.chdir(REPO_ROOT)
    shuffled = random.Random(0).sample(CALLS, len(CALLS))
    extras = itertools.cycle(EXTRAS)
    first = {}
    for call in [*reversed(CALLS), *shuffled]:
        assert record(call) == golden[call], call
        extra = next(extras)
        outcome = run_extra(extra)
        assert outcome[0] == EXTRAS[extra]
        assert outcome == first.setdefault(extra, outcome), extra
    assert "usage: avm" in first["--help"][1]


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    GOLDEN_FILE.write_text(
        json.dumps({call: record(call) for call in CALLS}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
