"""Mutation gate: every row below breaks avmkit in one known way, and the
tests it names must catch that break.

For each row the script copies `src/`, `tests/` and `pyproject.toml` into a
temporary directory, replaces the row's snippet (which must occur exactly
once in its file) and runs `pytest -x -q -p no:cacheprovider <selector>` on
the copy once per selector the row lists: the row is caught only when every
one of them fails. Hypothesis is seeded, so that every run draws the same
examples, and runs under the `mutants` profile of `tests/conftest.py`, which
reports a failing example without shrinking it. The unedited copy is run
first on every selector, so a mutant counts as caught only where the same
tests pass without it. The rows then run `WORKERS` at a time, each in its
own copy, and their verdicts print in row order. Standard library only; run
from anywhere:

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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Rows tested at once; each runs its selector in a pytest process of its own.
WORKERS = 2


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
        "while (shrunk := conj(current, step(current))) != current:",
        "if (shrunk := conj(current, step(current))) != current:",
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
        "pre-image kernel recurses on two TRUE cofactors",
        "bdd.py",
        "r0 = _TRUE if a00 == b0 == _TRUE else product(a00, b0)",
        "r0 = product(a00, b0)",
        ("tests/test_checker.py::TestTerminalOperands",),
    ),
    Mutant(
        "pre-image reads the set one variable down, not at its pair's current bit",
        "bdd.py",
        "vb = var[b]\n",
        "vb = var[b] + 1\n",
        ("tests/test_bdd.py::TestPreImage::test_matches_exists_of_conjunction",),
    ),
    Mutant(
        "pre-image takes the AND, not the OR, over the next bit",
        "bdd.py",
        "r0 = s if r0 == _FALSE else r0 if s == _FALSE or r0 == s else disjoin(r0, s)",
        "r0 = self._and(r0, s)",
        ("tests/test_bdd.py::TestPreImage::test_matches_exists_of_conjunction",),
    ),
    Mutant(
        "pre-image table has one row shared by all relation nodes",
        "bdd.py",
        "[{} for _ in var]",
        "[{}] * len(var)",
        ("tests/test_bdd.py::TestPreImage::test_matches_exists_of_conjunction",),
    ),
    Mutant(
        "pre-image reuses half 0 for half 1 when the relation tests the current bit",
        "bdd.py",
        "if a0 == a1:",
        "if a0 != a1:",
        ("tests/test_bdd.py::TestPreImage::test_five_pairs_with_skipped_bits",),
    ),
    Mutant(
        "symbolic memo key without child ids",
        "checker.py",
        "key = (cls, *sats) if sats else",
        "key = (cls,) if sats else",
        ("tests/test_checker.py::TestMemo::"
         "test_formulas_sharing_one_context_agree_with_explicit",),
    ),
    Mutant(
        "EU skips the AND with its left operand for any operand",
        "checker.py",
        "if holds_f == self.universe:",
        "if True:",
        ("tests/test_checker.py::TestMemo::"
         "test_formulas_sharing_one_context_agree_with_explicit",),
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
        "sync pass ignores a gap on the edge into a final",
        "coupled.py",
        "found = set(todo)",
        "found = set()",
        ("tests/test_coupled.py::TestSynchronizationPass::test_gap_on_the_edge_into_a_final",),
    ),
    Mutant(
        "sync pass stops exploring at a final",
        "coupled.py",
        "elif (nxt, nxt_sync) not in seen:",
        "elif nxt not in control.finals and (nxt, nxt_sync) not in seen:",
        ("tests/test_coupled.py::TestSynchronizationPass::test_walks_on_through_a_final",),
    ),
    Mutant(
        "sync pass drops an edge inside a control SCC whose target does not dominate its source",
        "coupled.py",
        "for i, j in inner if dom[i] >> j & 1}",
        "for i, j in inner}",
        ("tests/test_coupled.py::TestSynchronizationPass::"
         "test_keeps_an_edge_inside_an_scc_into_a_non_dominator",),
    ),
    Mutant(
        "sync pass takes final-reachability forward, not backward",
        "coupled.py",
        "into.setdefault(t.target, []).append(t.source)",
        "into.setdefault(t.source, []).append(t.target)",
        ("tests/test_coupled.py::TestSynchronizationPass::test_gap_before_a_final_is_seen",),
    ),
    Mutant(
        "sync walk keys its memo by the SCCs of the unreduced control graph",
        "coupled.py",
        "        components = strongly_connected_components(control, [control.initial])",
        "        components = strongly_connected_components(model.control, [control.initial])",
        ("tests/test_coupled.py::TestReducedControlGraph::"
         "test_validate_on_a_looped_ladder_steps_linearly",),
    ),
    Mutant(
        "text validate walks the control graph with its dominated edges",
        "coupled.py",
        "    if dropped:",
        "    if dropped and count_paths:",
        ("tests/test_coupled.py::TestReducedControlGraph::"
         "test_validate_on_a_looped_ladder_steps_linearly[text-with-gap]",),
    ),
    Mutant(
        "sync link test reads a preventive edge backwards",
        "coupled.py",
        "if (src, dst) in edges:",
        "if (dst, src) in edges:",
        ("tests/test_coupled.py::TestLinksOnDemand::test_a_link_follows_an_edge_forward_only",),
    ),
    Mutant(
        "atom subject test takes a non-ASCII identifier for a name",
        "ctl.py",
        "str.isidentifier(subject) and str.isascii(subject)",
        "str.isidentifier(subject)",
        ("tests/test_ctl.py::TestAtoms",),
    ),
    Mutant(
        "bulk name test takes a non-ASCII identifier for a name",
        "lts.py",
        "all(map(str.isidentifier, names)) and all(map(str.isascii, names))",
        "all(map(str.isidentifier, names))",
        ("tests/test_dsl.py::TestIdentifierTest",),
    ),
    Mutant(
        "bulk endpoint test asks the targets to cover the states",
        "lts.py",
        "states.issuperset(targets)",
        "states.issubset(targets)",
        ("tests/test_lts.py::TestBulkChecks",),
    ),
    Mutant(
        "bulk transition test lets a duplicate through",
        "lts.py",
        " and len(set(transitions)) == len(transitions)):",
        "):",
        ("tests/test_lts.py::TestBulkChecks",),
    ),
    Mutant(
        "map statement read whole after any mark but a name",
        "dsl.py",
        'values[key + 1] != "=>"',
        "kinds[key + 1] == NAME",
        ("tests/test_dsl.py::TestMapStatements::test_only_the_map_arrow_follows_the_key",),
    ),
    Mutant(
        "scanner skips no comment",
        "ctl.py",
        r'(?:#[^\n]*+[ \t\r\n]*+)*+" if comments',
        '" if comments',
        ("tests/test_ctl.py::TestLexerReference",
         "tests/test_cli.py::TestInputText::test_ignored_text_changes_no_output"),
    ),
    Mutant(
        "scanner skips a comment only when a newline ends it",
        "ctl.py",
        r'(?:#[^\n]*+[',
        r'(?:#[^\n]*+\n[',
        ("tests/test_cli.py::TestInputText::test_ignored_text_changes_no_output",),
    ),
    Mutant(
        "AND/OR return the identity where zero absorbs",
        "bdd.py",
        "if a == zero or b == zero:\n                return zero",
        "if a == zero or b == zero:\n                return one",
        ("tests/test_bdd.py::TestApply",),
    ),
    Mutant(
        "negation returns its terminal unchanged",
        "bdd.py",
        "return 1 - a",
        "return a",
        ("tests/test_bdd.py::TestApply::test_idempotence_and_annihilation",),
    ),
    Mutant(
        "_mk interns a node whose two children are equal",
        "bdd.py",
        "if low == high:\n            return low",
        "if False:\n            return low",
        ("tests/test_bdd.py::TestConstruction::test_constants_are_interned",),
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
        "a name's spot taken at the token after it",
        "dsl.py",
        "return self.values[k], self.starts[k]",
        "return self.values[k], self.starts[k + 1]",
        ("tests/test_dsl.py::TestLazyPositions::test_equals_the_placed_dict_on_the_corpus",),
    ),
    Mutant(
        "a step token starts at its label",
        "ctl.py",
        "add_start(m.start(DASH))",
        "add_start(m.start(5))",
        ("tests/test_ctl.py::TestLexerReference",
         "tests/test_dsl.py::TestSteps::test_malformed_edge_reported_at_its_token"),
    ),
    Mutant(
        "a step's target offset taken from its label",
        "ctl.py",
        "add_value((m[5], m[STEP], m.start(STEP)))",
        "add_value((m[5], m[STEP], m.start(5)))",
        ("tests/test_ctl.py::TestLexerReference",
         "tests/test_dsl.py::TestSteps::test_spaced_steps_read_as_the_rendered_ones"),
    ),
    Mutant(
        "a step from a spec line into the next is not rescanned",
        "ctl.py",
        "if self.kinds[k - 1] == STEP and self.values[k - 1][2] > end:",
        "if False:",
        ("tests/test_dsl.py::TestErrorOrder::"
         "test_spec_line_ending_in_a_step_leaves_the_next_line",),
    ),
    Mutant(
        "the final run does not stop before a step",
        "dsl.py",
        "kinds[end + 1] != STEP and ",
        "",
        ("tests/test_dsl.py::TestSteps::test_final_run_stops_before_an_edge",),
    ),
    Mutant(
        "edge run stops one pair early",
        "dsl.py",
        "zip(values[k:end:2], labels, target_names)",
        "zip(values[k:end - 2:2], labels, target_names)",
        ("tests/test_dsl.py::TestEdgeRuns::test_recorded_outcome",),
    ),
    Mutant(
        "run spots taken from the step token",
        "dsl.py",
        "sources += starts[k:end:2]",
        "sources += starts[k + 1:end:2]",
        ("tests/test_dsl.py::TestEdgeRuns::test_recorded_outcome",),
    ),
    Mutant(
        "behavior equality ignores transitions",
        "lts.py",
        "return (self.states, self.initial, self.labels, self.transition_set, self.finals)",
        "return (self.states, self.initial, self.labels, self.finals)",
        ("tests/test_lts.py::TestBehaviorIdentity",),
    ),
    Mutant(
        "behavior hash ignores transitions",
        "lts.py",
        "return hash(self._key())",
        "return hash(self._key()[:3] + self._key()[4:])",
        ("tests/test_lts.py::TestBehaviorIdentity",),
    ),
    Mutant(
        "behavior identity depends on the order of its transitions",
        "lts.py",
        "self.labels, self.transition_set, self.finals)",
        "self.labels, self.transitions, self.finals)",
        ("tests/test_lts.py::TestBehaviorIdentity",
         "tests/test_cli.py::TestLineOrder::test_shuffled_lines_give_the_same_output"),
    ),
    Mutant(
        "state positions claim to hold every name",
        "dsl.py",
        "return state in self._offsets",
        "return True",
        ("tests/test_dsl.py::TestLazyPositions::test_reads_as_a_mapping",),
    ),
    Mutant(
        "engine binder overwrites a name already bound",
        "cli.py",
        "globals().setdefault(name, getattr(checker, name))",
        "globals()[name] = getattr(checker, name)",
        ("tests/test_startup.py::test_a_wrapper_bound_before_the_first_check_is_called",),
    ),
    Mutant(
        "parser rebuilt on every call",
        "cli.py",
        "@functools.cache\ndef _build_parser()",
        "def _build_parser()",
        ("tests/test_startup.py::test_the_parser_is_built_once_on_first_use",),
    ),
    Mutant(
        "parser built at import",
        "cli.py",
        "_COMMANDS = {",
        "_build_parser()\n_COMMANDS = {",
        ("tests/test_startup.py::test_the_parser_is_built_once_on_first_use",),
    ),
    Mutant(
        "unencodable output raised, not escaped",
        "cli.py",
        'sys.stdout.reconfigure(errors="backslashreplace")',
        "pass",
        ("tests/test_cli.py::TestUnencodableOutput",),
    ),
    Mutant(
        "text --quiet check computes witnesses it does not print",
        "cli.py",
        'shows_witness = args.report_format == "structured" or not args.quiet',
        "shows_witness = True",
        ("tests/test_cli.py::TestOnlyPrintedOutputIsBuilt::"
         "test_text_quiet_check_computes_no_witness",),
    ),
    Mutant(
        "text mode places no finding",
        "cli.py",
        "r.format(min_severity, place)",
        "r.format(min_severity)",
        ("tests/test_cli_golden.py::test_output_matches_record"
         "[validate tests/corpus/mutant_missing_edge.avm]",
         "tests/test_cli.py::TestValidate::test_quiet_hides_warnings_not_errors",
         "tests/test_cli.py::TestFindingPositions::test_state_finding_placed_at_its_map"),
    ),
    Mutant(
        "structured mode places only the findings text shows",
        "cli.py",
        "r.to_record(place)",
        'r.to_record(lambda f: place(f) if f.severity in ("error", "warning") else f)',
        ("tests/test_cli_golden.py::test_output_matches_record"
         "[--format structured validate src/avmkit/models/antivirus.avm]",),
    ),
    Mutant(
        "line lookup is off by one at a newline offset",
        "ctl.py",
        "row = bisect_right(line_starts, offset) - 1",
        "row = bisect_left(line_starts, offset) - 1",
        ("tests/test_dsl.py::TestPositionOracle",),
    ),
    Mutant(
        "first line of a spec formula not shifted by its start column",
        "ctl.py",
        "[1 - start_column, *[",
        "[0, *[",
        ("tests/test_dsl.py::TestComments::test_bad_character_in_formula_is_ctl_finding",),
    ),
    Mutant(
        "take_rest_of_line leaves that line's tokens unconsumed",
        "ctl.py",
        "        self.i = k\n",
        "        pass\n",
        ("tests/test_dsl.py::TestErrorOrder::"
         "test_spec_line_with_ctl_marks_leaves_later_statements",),
    ),
    Mutant(
        "symbolic decode steps a run by two free bits",
        "checker.py",
        "range(code, count, 1 << b)",
        "range(code, count, 1 << (b + 1))",
        ("tests/test_checker.py::TestDecode::test_decode_returns_the_encoded_states",
         "tests/test_cli.py::TestCheck::test_engines_agree"),
    ),
    Mutant(
        "witness table shows AG by a path when it holds",
        "checker.py",
        'ctl.AG: ("fails", "counterexample")',
        'ctl.AG: ("holds", "counterexample")',
        ("tests/test_cli.py::TestOnlyPrintedOutputIsBuilt::test_shown_witnesses_are_computed",),
    ),
    Mutant(
        "an AG counterexample ends where its operand holds",
        "checker.py",
        'if rule[0] == "fails":',
        "if False:",
        ("tests/test_checker.py::TestWitness::test_witness_end_state_satisfies_target",),
    ),
    Mutant(
        "universe of a power-of-two state count left FALSE",
        "checker.py",
        "less, rest = _TRUE, _TRUE if n >> bits else _FALSE",
        "less, rest = _TRUE, _FALSE",
        ("tests/test_checker.py::TestUniverse",),
    ),
    Mutant(
        "members answers at(s) from the stored in(...) atoms",
        "checker.py",
        'if prop.kind == "at":\n            i = self.index.get(prop.subject)',
        'if False:\n            i = self.index.get(prop.subject)',
        ("tests/test_checker.py::TestMembers",),
    ),
    Mutant(
        "edge_labels keeps each pair's largest label",
        "checker.py",
        "sorted(self._transitions, reverse=True)",
        "sorted(self._transitions)",
        ("tests/test_checker.py::TestToKripke::test_edge_labels_keep_each_pairs_smallest_label",),
    ),
    Mutant(
        "to_kripke keeps repeated successors of a multi-target state",
        "checker.py",
        "tuple(sorted(set(ts)))",
        "tuple(sorted(ts))",
        ("tests/test_checker.py::TestToKripke::test_labels_erased_once",),
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
         "--hypothesis-seed=0", "--hypothesis-profile=mutants", *selector],
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


def run_row(scratch: Path, number: int, mutant: Mutant) -> tuple[str | None, float]:
    """Test one row in a copy of its own: (why it failed or None, seconds)."""
    tree = scratch / f"mutant{number}"
    copy_tree(tree)
    started = time.perf_counter()
    error = apply(tree, mutant)
    for selector in mutant.selector if error is None else ():
        code = run_pytest(tree, [selector])
        # pytest exits 1 when a test failed; 0 means the mutant survived,
        # anything else is a usage or collection error.
        if code != 1:
            error = f"survived {selector}" if code == 0 else f"pytest exit {code} on {selector}"
            break
    shutil.rmtree(tree)
    return error, time.perf_counter() - started


def main() -> int:
    failures = 0
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="avm-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        copy_tree(clean)
        selectors = sorted({s for m in MUTANTS for s in m.selector})
        code = run_pytest(clean, selectors)
        print(f"unedited copy: pytest exit {code}", flush=True)
        if code != 0:
            return 1
        with ThreadPoolExecutor(WORKERS) as pool:
            outcomes = pool.map(lambda row: run_row(Path(scratch), *row), enumerate(MUTANTS, 1))
            for number, (mutant, (error, seconds)) in enumerate(zip(MUTANTS, outcomes), 1):
                verdict = "caught" if error is None else f"FAILED: {error}"
                print(f"{number}. {mutant.name}: {verdict} ({seconds:.1f} s)", flush=True)
                failures += error is not None
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
