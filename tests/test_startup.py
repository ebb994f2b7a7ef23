"""What a fresh `avm` process loads: the engines, the exporters, `json` and
`dataclasses` stay out of start-up and load in the commands that use them, and
the argument parser is built once, on the first call.

Each test runs a new interpreter on the avmkit under test and diffs
`sys.modules` around each step, since the interpreter's site may import some
of the watched modules before avmkit does.
"""

import os
import subprocess
import sys
from pathlib import Path

import avmkit

from conftest import MODEL_FILE

SRC = str(Path(avmkit.__file__).resolve().parent.parent)

# Modules no command needs at start-up.
DEFERRED = ("dataclasses", "inspect", "json", "avmkit.bdd", "avmkit.checker", "avmkit.export")

STEPS = f"""
import contextlib, io, sys
start = set(sys.modules)

def report(step):
    added = sorted(set(sys.modules) - start)
    print(step + ":", " ".join(added))

import avmkit.cli
report("import")
with contextlib.redirect_stdout(io.StringIO()):
    validated = avmkit.cli.main(["validate", {str(MODEL_FILE)!r}])
report("validate")
with contextlib.redirect_stdout(io.StringIO()):
    checked = avmkit.cli.main(["check", {str(MODEL_FILE)!r}])
report("check")
print("exit codes:", validated, checked)
"""


def run_fresh(script: str) -> dict[str, list[str]]:
    """Runs `script` in a new interpreter; its `step: word word` lines as a dict."""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), check=True)
    steps = {}
    for line in done.stdout.splitlines():
        step, _, words = line.partition(":")
        steps[step] = words.split()
    return steps


def test_each_command_loads_only_what_it_uses():
    steps = run_fresh(STEPS)
    assert steps["exit codes"] == ["0", "0"]
    assert [m for m in DEFERRED if m in steps["import"]] == []
    assert [m for m in DEFERRED if m in steps["validate"]] == []
    assert {"avmkit.checker", "avmkit.bdd"} <= set(steps["check"])
    assert "dataclasses" not in steps["check"]


def test_the_parser_is_built_once_on_first_use():
    # One build is six parsers: `avm` and its five subcommands.
    steps = run_fresh(f"""
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import avmkit.cli
print("import:", len(built))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [avmkit.cli.main([command, {str(MODEL_FILE)!r}]) for command in ("validate", "info")]
print("calls:", len(built))
print("exit codes:", *codes)
""")
    assert steps["import"] == ["0"]
    assert steps["calls"] == ["6"]
    assert steps["exit codes"] == ["0", "0"]


def test_a_wrapper_bound_before_the_first_check_is_called():
    # As the benchmark's tracer does: read the name from `avmkit.cli`, then
    # rebind it there; and rebind one that was never read.
    steps = run_fresh(f"""
import contextlib, io
import avmkit.cli as cli
from avmkit.checker import check_symbolic
calls = []
explicit = cli.check_explicit
cli.check_explicit = lambda *args: calls.append("explicit") or explicit(*args)
cli.check_symbolic = lambda *args: calls.append("symbolic") or check_symbolic(*args)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["check", {str(MODEL_FILE)!r}])
print("calls:", *sorted(set(calls)))
print("counts:", calls.count("explicit"), calls.count("symbolic"))
print("exit code:", code)
""")
    assert steps["calls"] == ["explicit", "symbolic"]
    assert steps["counts"] == ["5", "5"]  # one per bundled property
    assert steps["exit code"] == ["0"]


def test_engine_names_resolve_on_the_cli_module():
    steps = run_fresh("""
import avmkit.cli as cli, avmkit.checker as checker
names = ("to_kripke", "check_explicit", "check_symbolic", "witness")
print("same:", *[name for name in names if getattr(cli, name) is getattr(checker, name)])
print("missing:", hasattr(cli, "nope"))
""")
    assert steps["same"] == ["to_kripke", "check_explicit", "check_symbolic", "witness"]
    assert steps["missing"] == ["False"]


def test_package_names_resolve_on_first_use():
    steps = run_fresh("""
import sys
start = set(sys.modules)
import avmkit
print("import:", *sorted(set(sys.modules) - start))
print("listed:", all(name in dir(avmkit) for name in avmkit.__all__))
print("missing:", hasattr(avmkit, "nope"))
from avmkit import to_smv, BddManager
print("loaded:", *sorted(set(sys.modules) - start))
print("same:", to_smv is sys.modules["avmkit.export"].to_smv,
      avmkit.BddManager is sys.modules["avmkit.bdd"].BddManager)
""")
    assert [m for m in DEFERRED if m in steps["import"]] == []
    assert steps["listed"] == ["True"]
    assert steps["missing"] == ["False"]
    assert {"avmkit.export", "avmkit.checker", "avmkit.bdd"} <= set(steps["loaded"])
    assert steps["same"] == ["True", "True"]
