"""Golden record of `avm` output: the exit code and stdout of every subcommand,
in text and structured format, on the bundled model, two corpus mutants and a
missing file. The calls run in the repository root, so every path in the
record is relative to it.

After a deliberate change to the output, re-record from the root with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
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


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    GOLDEN_FILE.write_text(
        json.dumps({call: record(call) for call in CALLS}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
