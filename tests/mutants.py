"""Mutation gate: every row below breaks avmkit in one known way, and the
tests it names must catch that break.

For each row the script copies `src/`, `tests/` and `pyproject.toml` into a
temporary directory, replaces the row's snippet (which must occur exactly
once in its file) and runs `pytest -x -q -p no:cacheprovider <selector>` on
the copy, with Hypothesis seeded so that every run draws the same examples.
The unedited copy is run first on every selector, so a mutant counts as
caught only where the same tests pass without it. Standard library only;
run from anywhere:

    python3 tests/mutants.py

Exits 0 when every mutant is caught, 1 when a mutant survives, a snippet
does not occur exactly once, or the unedited copy fails its selectors.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/avmkit
    snippet: str
    replacement: str
    selector: tuple[str, ...]


MUTANTS = (
    Mutant(
        "explicit EX widened to keep its operand's states",
        "checker.py",
        "return frozenset([p for t in targets for p in pred[t]])",
        "return frozenset([p for t in targets for p in pred[t]]) | targets",
        ("tests/test_checker.py::TestNaiveReference",),
    ),
    Mutant(
        "symbolic EG stopped after one step",
        "checker.py",
        "while (shrunk := conj(current, ex(current))) != current:",
        "if (shrunk := conj(current, ex(current))) != current:",
        ("tests/test_checker.py::TestDeepFixpoints",),
    ),
    Mutant(
        "member guard in to_kripke dropped",
        "checker.py",
        "sorted(index[s] for s in members if s in index)",
        "sorted(index[s] for s in members)",
        ("tests/test_smv_roundtrip.py::test_random_models_round_trip",),
    ),
    Mutant(
        "code sort in _codes_to_bdd dropped",
        "checker.py",
        "dict.fromkeys(sorted(codes), _TRUE)",
        "dict.fromkeys(codes, _TRUE)",
        ("tests/test_checker.py::TestCodesToBdd",),
    ),
    Mutant(
        "relational product called on two TRUE operands",
        "checker.py",
        "return _TRUE if relation == shifted == _TRUE else self._product(relation, shifted)",
        "return self._product(relation, shifted)",
        ("tests/test_checker.py::TestTerminalOperands",),
    ),
    Mutant(
        "repeated states stored",
        "checker.py",
        "names = tuple(sorted(set(states)))",
        "names = tuple(sorted(states))",
        ("tests/test_checker.py::TestRepeatedStates",),
    ),
    Mutant(
        "to_smv successors taken from successor_map",
        "export.py",
        "ident[j] for j in targets",
        "ident[k.index[t]] for _, t in doc.coupled.behavior(target).successor_map[k.states[i]]",
        ("tests/test_export.py::TestSmv",),
    ),
    Mutant(
        "predecessors taken as successors",
        "checker.py",
        "into[j].append(i)",
        "into[i].append(j)",
        ("tests/test_checker.py::TestDeepFixpoints",),
    ),
    Mutant(
        "public constructor stops checking at(s) labels",
        "checker.py",
        'raise ValueError(f"labeling of {s} is missing at({s})")',
        "pass",
        ("tests/test_checker.py::TestPublicConstructor",),
    ),
    Mutant(
        "path label count checked only from above",
        "lts.py",
        "if len(labels) != len(states) - 1:",
        "if len(labels) > len(states) - 1:",
        ("tests/test_values.py::TestRecords::test_path_checks_its_shape",),
    ),
    Mutant(
        "a record's __dict__ slot taken for a field",
        "lts.py",
        'for name in self.__slots__ if name != "__dict__"]',
        "for name in self.__slots__]",
        ("tests/test_values.py::TestRecords::test_round_trips",),
    ),
    Mutant(
        "Tarjan low-link taken from states off the stack",
        "lts.py",
        "if nxt in on_stack and index[nxt] < low[state]:",
        "if index[nxt] < low[state]:",
        ("tests/test_lts.py::TestStronglyConnectedComponents",),
    ),
    Mutant(
        "mapping equality ignores the exempt states",
        "coupled.py",
        "return (self.entries, self.exempt)",
        "return (self.entries,)",
        ("tests/test_values.py::TestRecords::test_one_field_apart_is_unequal",),
    ),
    Mutant(
        "sync walk keeps the last path per gap in (labels, states) order",
        "coupled.py",
        "_path_order(candidate) < _path_order(best)",
        "_path_order(candidate) > _path_order(best)",
        ("tests/test_coupled.py::TestSynchronizationWalk::"
         "test_reported_in_labels_then_states_order",),
    ),
    Mutant(
        "sync walk visit calls itself",
        "coupled.py",
        "result = yield node",
        "result = yield from visit(*node)",
        ("tests/test_coupled.py::TestSynchronizationWalk::test_walk_frees_its_memo_on_return",),
    ),
    Mutant(
        "atom subject checked by prefix",
        "ctl.py",
        "if not NAME_RE.fullmatch(subject):",
        "if not NAME_RE.match(subject):",
        ("tests/test_ctl.py::TestAtoms",),
    ),
    Mutant(
        "AND/OR return the identity where zero absorbs",
        "bdd.py",
        "if a == zero or b == zero:\n                return zero",
        "if a == zero or b == zero:\n                return one",
        ("tests/test_bdd.py::TestApply",),
    ),
    Mutant(
        "property equality compares positions",
        "dsl.py",
        "return (self.name, self.target, self.formula, self.expected)",
        "return (self.name, self.target, self.formula, self.expected, self.position)",
        ("tests/test_values.py::TestRecords::test_property_spec_equality_ignores_position",),
    ),
    Mutant(
        "document equality compares source positions",
        "dsl.py",
        "return (self.coupled, self.properties)",
        "return (self.coupled, self.properties, self.source_positions)",
        ("tests/test_values.py::TestRecords::"
         "test_document_equality_and_repr_ignore_source_positions",),
    ),
    Mutant(
        "engine binder overwrites a name already bound",
        "cli.py",
        "globals().setdefault(name, getattr(checker, name))",
        "globals()[name] = getattr(checker, name)",
        ("tests/test_startup.py::test_a_wrapper_bound_before_the_first_check_is_called",),
    ),
)


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_pytest(tree: Path, selector) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *selector],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def apply(tree: Path, mutant: Mutant) -> str | None:
    """Edit the copy; the error text when the snippet is not there exactly once."""
    path = tree / "src" / "avmkit" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        return f"snippet occurs {count} times in {mutant.file}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    return None


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="avm-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        copy_tree(clean)
        selectors = sorted({s for m in MUTANTS for s in m.selector})
        code = run_pytest(clean, selectors)
        print(f"unedited copy: pytest exit {code}")
        if code != 0:
            return 1
        for number, mutant in enumerate(MUTANTS, 1):
            tree = Path(scratch) / f"mutant{number}"
            copy_tree(tree)
            started = time.perf_counter()
            error = apply(tree, mutant)
            if error is None:
                code = run_pytest(tree, mutant.selector)
                # pytest exits 1 when a test failed; 0 means the mutant survived,
                # anything else is a usage or collection error.
                error = None if code == 1 else (
                    "survived" if code == 0 else f"pytest exit {code}")
            verdict = "caught" if error is None else f"FAILED: {error}"
            print(f"{number}. {mutant.name}: {verdict} "
                  f"({time.perf_counter() - started:.1f} s)")
            failures += error is not None
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
