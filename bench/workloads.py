"""Seeded workload generators and their known answers.

Every generator takes the benchmark seed and returns the `.avm` documents the
program receives, each with the outcome of `avm validate` and `avm check` that
follows from how the document was built. Nothing here imports avmkit: the
answers come from the construction (chain reachability, ring strong
connectivity, ladder acyclicity) or, for the corpus, from a hand-written table.

Names are a seeded stem plus a zero-padded index, so a different seed gives a
different document (names, labels, line order, random edges) while the sorted
state order, and with it the symbolic engine's state encoding, keeps the shape
of the graph. That keeps a run's cost nearly independent of the seed.
"""

import random
import string
from dataclasses import dataclass
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
APPROACHES = ("Protection", "Detection", "Identification", "Removal")
VALIDATE_CHECKS = ("mapping", "approaches", "synchronization")


@dataclass(frozen=True)
class Expect:
    """Known answer for one CLI command on one input.

    `codes` are finding codes that must appear as error findings. `verdicts`
    maps every property to "holds"/"fails"; None means verdicts are not
    compared (the validate command prints none).
    """

    exit_code: int
    codes: tuple[str, ...] = ()
    verdicts: dict[str, str] | None = None


@dataclass(frozen=True)
class ModelInput:
    """One `.avm` document and the known answer per command."""

    filename: str
    text: str
    expect: dict[str, Expect]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _stem(rng: random.Random, first: str) -> str:
    return first + "".join(rng.choice(string.ascii_lowercase) for _ in range(3)) + "_"


def _names(stem: str, count: int) -> list[str]:
    width = len(str(count - 1))
    return [f"{stem}{i:0{width}d}" for i in range(count)]


def _chain_edges(states: list[str], label_stem: str) -> list[tuple[str, str, str]]:
    return [(a, f"{label_stem}{i}", b) for i, (a, b) in enumerate(zip(states, states[1:]))]


def _behavior_block(kind: str, initial: str, finals, edges, rng: random.Random) -> list[str]:
    lines = [f"  {s} - {label} -> {t}" for s, label, t in edges]
    rng.shuffle(lines)
    head = [f"behavior {kind} {{", f"  initial {initial}"]
    if finals:
        head.append("  final " + " ".join(finals))
    return head + lines + ["}"]


def _approach_blocks(control_parts, preventive_parts) -> list[str]:
    lines = []
    for name, control, preventive in zip(APPROACHES, control_parts, preventive_parts):
        lines += [f"approach {name} {{", "  control: " + " ".join(control),
                  "  preventive: " + " ".join(preventive), "}"]
    return lines


def _document(blocks, maps, specs, rng: random.Random) -> tuple[str, dict[str, str]]:
    """Joins the blocks, shuffled map lines and spec lines; specs are
    (name, target, expected, formula)."""
    maps = list(maps)
    rng.shuffle(maps)
    spec_lines = [f"spec {name} on {target} expect {expected}: {formula}"
                  for name, target, expected, formula in specs]
    text = "\n".join(blocks + maps + spec_lines) + "\n"
    return text, {name: expected for name, _, expected, _ in specs}


def _quarters(items):
    n = len(items)
    return [items[i * n // 4:(i + 1) * n // 4] for i in range(4)]


def _passing(filename: str, text: str, verdicts: dict[str, str]) -> ModelInput:
    return ModelInput(filename, text, {
        "validate": Expect(0),
        "check": Expect(0, verdicts=verdicts),
    })


def chain_deep(seed: int, n: int = 500) -> list[ModelInput]:
    """Control and preventive are n-state chains, control state i mapped to
    preventive state i. Every fixpoint in the specs takes about n steps."""
    rng = _rng("chain-deep", seed)
    control = _names(_stem(rng, "c"), n)
    preventive = _names(_stem(rng, "p"), n)
    clabel, plabel = _stem(rng, "a"), _stem(rng, "b")
    blocks = (
        _behavior_block("preventive", preventive[0], [preventive[-1]],
                        _chain_edges(preventive, plabel), rng)
        + _behavior_block("control", control[0], [control[-1]],
                          _chain_edges(control, clabel), rng)
        + _approach_blocks(_quarters(control), _quarters(preventive))
    )
    maps = [f"map {c} => {p}" for c, p in zip(control, preventive)]
    end, last = control[-1], preventive[-1]
    specs = [
        ("reach_end", "control", "holds", f"EF at({end})"),
        ("always_end", "control", "holds", f"AF at({end})"),
        ("until_end", "control", "holds", f"E [ !at({end}) U at({end}) ]"),
        ("avoid_end", "control", "fails", f"EG !at({end})"),
        ("reach_last", "preventive", "holds", f"EF at({last})"),
    ]
    text, verdicts = _document(blocks, maps, specs, rng)
    return [_passing("chain_deep.avm", text, verdicts)]


def ring_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """The ring i -> i+1 (mod n) plus one random chord per state, never a
    self-loop and never a second copy of the ring edge."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        target = rng.randrange(n - 2)
        # Skip over i and i+1 (mod n) so the chord is a new edge.
        for taken in sorted({i, (i + 1) % n}):
            if target >= taken:
                target += 1
        edges.append((i, target))
    return edges


def random_wide(seed: int, n: int = 512, control_n: int = 16) -> list[ModelInput]:
    """A strongly connected n-state preventive graph (ring plus random chords)
    under a short control chain; the specs have shallow fixpoints."""
    rng = _rng("random-wide", seed)
    control = _names(_stem(rng, "c"), control_n)
    preventive = _names(_stem(rng, "p"), n)
    clabel, rlabel, xlabel = _stem(rng, "a"), _stem(rng, "b"), _stem(rng, "x")
    prev_edges = [(preventive[s], f"{rlabel if k < n else xlabel}{s}", preventive[t])
                  for k, (s, t) in enumerate(ring_edges(n, rng))]
    fragments = rng.sample(preventive, control_n)
    blocks = (
        _behavior_block("preventive", preventive[0], [], prev_edges, rng)
        + _behavior_block("control", control[0], [control[-1]],
                          _chain_edges(control, clabel), rng)
        + _approach_blocks(_quarters(control), _quarters(fragments))
    )
    maps = [f"map {c} => {p}" for c, p in zip(control, fragments)]
    # Strong connectivity makes every state reachable from every state, and
    # the initial state (index 0) is never a target, so AG !at(t) fails.
    targets = rng.sample(preventive[1:], 10)
    specs = (
        [(f"reach_{i}", "preventive", "holds", f"EF at({p})")
         for i, p in enumerate(targets[:4])]
        + [(f"recur_{i}", "preventive", "holds", f"AG EF at({p})")
           for i, p in enumerate(targets[4:8])]
        + [(f"never_{i}", "preventive", "fails", f"AG !at({p})")
           for i, p in enumerate(targets[8:])]
        + [("ring_step", "preventive", "holds", f"EX at({preventive[1]})"),
           ("until_hit", "preventive", "holds", f"E [ !at({targets[0]}) U at({targets[0]}) ]")]
    )
    text, verdicts = _document(blocks, maps, specs, rng)
    return [_passing("random_wide.avm", text, verdicts)]


def ladder_edges(k: int) -> tuple[dict[str, int], list[tuple[str, str]]]:
    """A ladder of k diamonds over abstract names: split s0, arms a1/b1, join
    s1, arms a2/b2, ..., join sk. Returns ({state: depth}, [(source, target)])."""
    depth = {"s0": 0}
    edges = []
    for i in range(1, k + 1):
        for arm in (f"a{i}", f"b{i}"):
            depth[arm] = 2 * i - 1
            edges += [(f"s{i - 1}", arm), (arm, f"s{i}")]
        depth[f"s{i}"] = 2 * i
    return depth, edges


def ladder_sync(seed: int, k: int = 14) -> list[ModelInput]:
    """The control side is a ladder of k diamonds (2**k simple control paths)
    over a (2k+1)-state preventive chain; each control state is mapped to the
    preventive state at its depth, so every fragment links to the next."""
    rng = _rng("ladder-sync", seed)
    depth, abstract_edges = ladder_edges(k)
    cstem = _stem(rng, "c")
    width = len(str(k))
    name = {s: f"{cstem}{s[0]}{int(s[1:]):0{width}d}" for s in depth}
    preventive = _names(_stem(rng, "p"), 2 * k + 1)
    clabel, plabel = _stem(rng, "l"), _stem(rng, "q")
    start, goal = name["s0"], name[f"s{k}"]
    blocks = (
        _behavior_block("preventive", preventive[0], [preventive[-1]],
                        _chain_edges(preventive, plabel), rng)
        + _behavior_block("control", start, [goal],
                          [(name[s], f"{clabel}{j}", name[t])
                           for j, (s, t) in enumerate(abstract_edges)], rng)
        + _approach_blocks(
            [[start], [name["a1"], name["b1"]], [name["s1"]], [goal]],
            [[preventive[0]], [preventive[1]], [preventive[2]], [preventive[-1]]])
    )
    maps = [f"map {name[s]} => {preventive[d]}" for s, d in depth.items()]
    specs = [
        ("reach_goal", "control", "holds", f"EF at({goal})"),
        ("always_goal", "control", "holds", f"AF at({goal})"),
        ("avoid_goal", "control", "fails", f"EG !at({goal})"),
        ("first_arm", "control", "holds", f"EX at({name['a1']})"),
        ("removal_is_goal", "control", "holds", f"AG (in(Removal) -> at({goal}))"),
        ("reach_top", "preventive", "holds", f"EF at({preventive[-1]})"),
    ]
    text, verdicts = _document(blocks, maps, specs, rng)
    return [_passing("ladder_sync.avm", text, verdicts)]


_BUNDLED_VERDICTS = {
    "reach_done": "holds",
    "always_done": "fails",
    "recognition_resolves": "holds",
    "reach_aborted": "holds",
    "removal_is_done": "holds",
}

# (file, command) -> known answer. Mutants rejected while the document is
# parsed fail both commands; the others fail only the command whose check
# their single edit breaks.
CORPUS_ANSWERS = {
    ("antivirus.avm", "validate"): Expect(0),
    ("antivirus.avm", "check"): Expect(0, verdicts=_BUNDLED_VERDICTS),
    ("mutant_cross_reference.avm", "validate"): Expect(1, ("cross-behavior-reference",)),
    ("mutant_cross_reference.avm", "check"): Expect(1, ("cross-behavior-reference",), {}),
    ("mutant_misaligned_approach.avm", "validate"): Expect(1, ("approach-misalignment",)),
    ("mutant_misaligned_approach.avm", "check"): Expect(0, verdicts=_BUNDLED_VERDICTS),
    ("mutant_missing_edge.avm", "validate"): Expect(1, ("invalid-mapped-path",)),
    ("mutant_missing_edge.avm", "check"): Expect(0, verdicts=_BUNDLED_VERDICTS),
    ("mutant_overlapping_approach.avm", "validate"): Expect(1, ("overlapping-approach",)),
    ("mutant_overlapping_approach.avm", "check"): Expect(1, ("overlapping-approach",), {}),
    ("mutant_remapped_done.avm", "validate"): Expect(1, ("sync-gap",)),
    ("mutant_remapped_done.avm", "check"): Expect(0, verdicts=_BUNDLED_VERDICTS),
    ("mutant_unmapped_state.avm", "validate"): Expect(1, ("partial-mapping",)),
    ("mutant_unmapped_state.avm", "check"): Expect(1, ("partial-mapping",), {}),
    ("mutant_unreachable_done.avm", "validate"): Expect(0),
    ("mutant_unreachable_done.avm", "check"): Expect(
        1, ("expectation-mismatch",), {**_BUNDLED_VERDICTS, "reach_done": "fails"}),
}


def antivirus_corpus(seed: int) -> list[ModelInput]:
    """The bundled model and its seven single-edit mutants, in seeded order."""
    files = sorted({filename for filename, _ in CORPUS_ANSWERS})
    _rng("antivirus-corpus", seed).shuffle(files)
    return [
        ModelInput(f, (CORPUS_DIR / f).read_text(encoding="utf-8"),
                   {cmd: CORPUS_ANSWERS[(f, cmd)] for cmd in ("validate", "check")})
        for f in files
    ]


WORKLOADS = {
    "chain-deep": chain_deep,
    "random-wide": random_wide,
    "ladder-sync": ladder_sync,
    "antivirus-corpus": antivirus_corpus,
}
