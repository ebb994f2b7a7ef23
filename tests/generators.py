"""Seeded random generators and independent oracles shared by the tests.

Everything here takes an explicit random.Random so the acceptance suite can
run exact sample counts reproducibly. The oracles are deliberately naive:
they enumerate rather than search, so they stay independent of the code
under test.
"""

import inspect
import itertools
from collections import deque
from random import Random

from avmkit.bdd import _FALSE, _TRUE, BddManager
from avmkit.checker import KripkeStructure
from avmkit.ctl import (
    AF,
    AG,
    AU,
    AX,
    EF,
    EG,
    EU,
    EX,
    FALSE,
    TRUE,
    And,
    Atom,
    AtomicProposition,
    Const,
    CtlFormula,
    Implies,
    Not,
    Or,
)
from avmkit.coupled import (
    APPROACH_NAMES,
    CoupledModel,
    approach_partition,
    build_coupled_model,
    mapping_process,
)
from avmkit.lts import NAME_RE, Behavior, Path, Transition, build_behavior, enumerate_simple_paths
from avmkit.report import CheckReport, Finding, ModelValidationError

# -- labeled transition systems -----------------------------------------------


def random_behavior(rng: Random, max_states: int = 6) -> Behavior:
    n = rng.randint(1, max_states)
    states = [f"S{i}" for i in range(n)]
    labels = ["a", "b", "c"][: rng.randint(1, 3)]
    transitions = []
    for source in states:
        for label in labels:
            for target in states:
                if rng.random() < 0.25:
                    transitions.append((source, label, target))
    finals = {s for s in states if rng.random() < 0.3}
    return build_behavior(states, "S0", labels, transitions, finals)


def reachable_states(behavior: Behavior, origin: str | None = None) -> frozenset[str]:
    """Breadth-first closure of the successors of `origin` (the initial state
    by default)."""
    start = behavior.initial if origin is None else origin
    seen = {start}
    queue = deque([start])
    while queue:
        for _, nxt in behavior.successor_map[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def is_valid_path(behavior: Behavior, path: Path) -> bool:
    """True iff every state and label belongs to the behavior and every step
    is one of its transitions."""
    return (all(s in behavior.states for s in path.states)
            and all(label in behavior.labels for label in path.labels)
            and all(t in behavior.transition_set for t in path.triples()))


def naive_simple_paths(behavior: Behavior, source: str, target: str) -> set[Path]:
    """Brute force: every state sequence without repetition, then every label
    choice per consecutive pair."""
    if source == target:
        return {Path((source,))}
    middle = sorted(behavior.states - {source, target})
    triples = {(t.source, t.target): [] for t in behavior.transitions}
    for t in behavior.transitions:
        triples[(t.source, t.target)].append(t.label)

    found: set[Path] = set()
    for k in range(len(middle) + 1):
        for mid in itertools.permutations(middle, k):
            seq = (source,) + mid + (target,)
            options = []
            for a, b in zip(seq, seq[1:]):
                labels = triples.get((a, b))
                if not labels:
                    options = None
                    break
                options.append(sorted(labels))
            if options is None:
                continue
            for combo in itertools.product(*options):
                found.add(Path(seq, combo))
    return found



def naive_build_behavior(states, initial, labels, transitions, finals=(), positions=None,
                         place=lambda spot: spot) -> Behavior:
    """`build_behavior` checking item by item: every name by the name pattern,
    then every transition in turn. Kept as the reference for the bulk checks,
    whose findings, order and positions must be the same."""
    states, labels, finals = frozenset(states), frozenset(labels), frozenset(finals)
    transitions = [Transition(*t) for t in transitions]
    positions = [None] * len(transitions) if positions is None else list(positions)
    findings: list[Finding] = []

    def error(code: str, subject: str, detail: str, spot=None) -> None:
        findings.append(Finding("error", code, subject, detail,
                                None if spot is None else place(spot)))

    if not states:
        error("empty-state-set", "<behavior>", "behavior declares no states")
        raise ModelValidationError(findings)
    for name in sorted(name for name in states | labels if not NAME_RE.fullmatch(name)):
        error("invalid-identifier", name,
              "identifiers are letters, digits and underscore, not starting with a digit")
    if initial not in states:
        error("bad-initial", str(initial), "initial state is not a declared state")
    for name in sorted(finals - states):
        error("unknown-state", name, "final state is not a declared state")
    seen: set[Transition] = set()
    for t, spot in zip(transitions, positions, strict=True):
        if t.source not in states:
            error("unknown-state", t.source, f"transition {t} leaves an unknown state", spot)
        if t.target not in states:
            error("unknown-state", t.target, f"transition {t} enters an unknown state", spot)
        if t.label not in labels:
            error("unknown-label", t.label, f"transition {t} uses an undeclared label", spot)
        if t in seen:
            error("duplicate-transition", str(t), "transition appears more than once", spot)
        seen.add(t)
    if findings:
        raise ModelValidationError(findings)
    return Behavior(states, initial, labels, tuple(sorted(transitions)), finals)


# -- coupled models --------------------------------------------------------------


def random_coupled_model(rng: Random, acyclic: bool, max_control: int = 7) -> CoupledModel:
    """A coupled model built without validation, so control states may be left
    unmapped as well as exempt. The control behavior has one to three finals
    and two labels, so label ties occur; `acyclic` keeps its transitions
    going from lower to higher state index. Mapped states draw from a small
    pool of fragment sets, so sets repeat along paths. Fragments are one or
    two preventive states, preventive paths or not: stitching reads only
    their ends."""
    preventive_states = [f"P{i}" for i in range(rng.randint(2, 6))]
    preventive = build_behavior(
        preventive_states, "P0", ("p", "q"),
        [(source, rng.choice("pq"), target)
         for source in preventive_states for target in preventive_states
         if rng.random() < 0.15])
    n = rng.randint(2, max_control)
    states = [f"C{i}" for i in range(n)]
    density = rng.uniform(0.2, 0.5)
    transitions = [
        (source, label, target)
        for i, source in enumerate(states)
        for j, target in enumerate(states)
        for label in ("a", "b")
        if (not acyclic or j > i) and rng.random() < density
    ]
    finals = rng.sample(states, rng.randint(1, min(3, n)))
    control = build_behavior(states, "C0", ("a", "b"), transitions, finals)

    def fragment() -> Path:
        first = rng.choice(preventive_states)
        if rng.random() < 0.6:
            return Path((first,))
        return Path((first, rng.choice(preventive_states)), (rng.choice("pq"),))

    pool = [[fragment() for _ in range(rng.randint(1, 2))] for _ in range(rng.randint(2, 4))]
    entries, exempt = {}, set()
    for state in states:
        roll = rng.random()
        if roll < 0.15:
            exempt.add(state)
        elif roll >= 0.3:
            entries[state] = rng.choice(pool)
    return CoupledModel("random", preventive, control, mapping_process(entries, exempt),
                        approach_partition({}))


def complete_coupled_model(n: int) -> CoupledModel:
    """Control states C0..C(n-1) and preventive states P0..P(n-1), each side a
    complete graph without self-loops (one label), Ci mapped to the one-state
    path Pi, C(n-1) final. Every fragment reaches every other, so the
    synchronization check passes, over about e * (n-2)! simple control paths
    from C0 to C(n-1): the exact walk is exponential in n here."""

    def complete(prefix: str, label: str) -> Behavior:
        states = [f"{prefix}{i}" for i in range(n)]
        return build_behavior(states, states[0], (label,),
                              [(a, label, b) for a in states for b in states if a != b],
                              states[-1:])

    return build_coupled_model(
        complete("P", "step"), complete("C", "go"),
        mapping_process({f"C{i}": [Path((f"P{i}",))] for i in range(n)}),
        approach_partition({}), name=f"complete_{n}")


def looped_ladder_model(k: int, gap: bool) -> CoupledModel:
    """A control ladder of k diamonds si -l-> li -l-> s(i+1) and si -r-> ri -r->
    s(i+1), closed by the back edge sk -back-> s0 and left by sk -done-> end,
    the final: 2^k simple paths to end, every state of the ladder in one
    strongly connected component. Each si and li maps onto the one-state path
    Pi of the preventive chain P0 -> ... -> Pk -> E, closed by Pk -> P0, each
    ri is exempt and end maps onto E. With `gap` the chain loses the edge
    into Pj, j = k // 2 + 1, so every path to end gaps at sj. The back edge
    enters a dominator of its source, so no simple path takes it."""
    ladder = [f"s{i}" for i in range(k + 1)]
    chain = [f"P{i}" for i in range(k + 1)]
    control = [(ladder[i], side, f"{side}{i}") for i in range(k) for side in ("l", "r")]
    control += [(f"{side}{i}", side, ladder[i + 1]) for i in range(k) for side in ("l", "r")]
    control += [(ladder[-1], "back", ladder[0]), (ladder[-1], "done", "end")]
    skipped = chain[k // 2 + 1] if gap else None
    preventive = [(a, "p", b) for a, b in zip(chain, chain[1:]) if b != skipped]
    preventive += [(chain[-1], "p", chain[0]), (chain[-1], "p", "E")]
    fragments = {state: [Path((f"P{i}",))] for i, state in enumerate(ladder)}
    fragments.update({f"l{i}": [Path((f"P{i}",))] for i in range(k)})
    fragments["end"] = [Path(("E",))]
    return build_coupled_model(
        build_behavior([*chain, "E"], "P0", ("p",), preventive),
        build_behavior({s for edge in control for s in edge[::2]}, "s0",
                       ("l", "r", "back", "done"), control, ["end"]),
        mapping_process(fragments, {f"r{i}" for i in range(k)}), approach_partition({}),
        name=f"looped_ladder_{k}{'_gap' if gap else ''}")


def naive_check_synchronization(model: CoupledModel) -> CheckReport:
    """The stitching check by listing every simple control path and walking
    each one: exponential in the number of diamonds, kept as the oracle."""
    findings: list[Finding] = []
    control = model.control
    preventive = model.preventive

    reach_memo: dict[str, frozenset[str]] = {}

    def reaches(src: str, dst: str) -> bool:
        if src not in reach_memo:
            reach_memo[src] = reachable_states(preventive, src)
        return dst in reach_memo[src]

    finals = sorted(control.finals)
    if not finals:
        findings.append(
            Finding("warning", "no-final-states", "control",
                    "control behavior declares no final states; nothing to stitch")
        )

    seen_gaps: set[tuple] = set()
    checked = 0
    for final in finals:
        for control_path in enumerate_simple_paths(control, control.initial, final):
            checked += 1
            feasible: tuple[Path, ...] | None = None
            previous: tuple[Path, ...] | None = None
            for control_state in control_path.states:
                if control_state in model.mapping.exempt:
                    continue
                fragments = model.mapping.paths_for(control_state)
                if not fragments or fragments == previous:
                    continue
                if feasible is None:
                    feasible = fragments
                else:
                    linked = tuple(
                        g for g in fragments if any(reaches(f.last, g.first) for f in feasible)
                    )
                    if not linked:
                        ends = ", ".join(sorted({f.last for f in feasible}))
                        starts = ", ".join(sorted({g.first for g in fragments}))
                        key = (control_state, ends, starts)
                        if key not in seen_gaps:
                            seen_gaps.add(key)
                            findings.append(
                                Finding("error", "sync-gap", control_state,
                                        f"along control path {control_path}: no preventive walk "
                                        f"from {{{ends}}} to {{{starts}}}")
                            )
                        break
                    feasible = linked
                previous = fragments
    findings.append(
        Finding("info", "control-paths", "control", f"checked {checked} control path(s)")
    )
    return CheckReport("synchronization", tuple(findings))


# -- Kripke structures and CTL formulas -------------------------------------------


def random_kripke(rng: Random, max_states: int = 8,
                  max_out: int | None = None) -> KripkeStructure:
    """Up to max_states states, each with 1..max_out distinct successors
    (default: up to every state)."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    relation = set()
    for s in states:
        for t in rng.sample(states, rng.randint(1, min(n, max_out or n))):
            relation.add((s, t))
    labeling = {}
    for s in states:
        props = {AtomicProposition("at", s)}
        for name in APPROACH_NAMES:
            if rng.random() < 0.3:
                props.add(AtomicProposition("in", name))
        labeling[s] = frozenset(props)
    return KripkeStructure(
        states=tuple(states),
        initial="q0",
        relation=frozenset(relation),
        labeling=labeling,
    )


def ring_kripke(rng: Random, n: int) -> KripkeStructure:
    """n >= 3 states on the ring i -> i+1 (mod n) plus one random chord per
    state that is neither a self-loop nor the ring edge: strongly connected,
    with shallow fixpoints. Only at(...) atoms label it."""
    states = [f"p{i:03d}" for i in range(n)]
    relation = set()
    for i in range(n):
        chord = rng.choice([t for t in range(n) if t not in (i, (i + 1) % n)])
        relation.add((states[i], states[(i + 1) % n]))
        relation.add((states[i], states[chord]))
    return KripkeStructure(
        states=tuple(states),
        initial=states[0],
        relation=frozenset(relation),
        labeling={s: frozenset({AtomicProposition("at", s)}) for s in states},
    )


def complete_kripke(n: int) -> KripkeStructure:
    """n states q0..q(n-1), every state a successor of every state. With n a
    power of two above 1 the symbolic engine's universe and relation are both
    the constant TRUE."""
    states = [f"q{i}" for i in range(n)]
    return KripkeStructure(
        states=tuple(states),
        initial="q0",
        relation=frozenset(itertools.product(states, states)),
        labeling={s: frozenset({AtomicProposition("at", s)}) for s in states},
    )


def topdown_codes_to_bdd(mgr: BddManager, codes, levels) -> int:
    """The node of a set of integer codes, built top-down: split the codes on
    the code bit of each (variable, code bit) level in variable order and
    intern each split on the way back up. The recursive reference for the
    symbolic engine's bottom-up build."""
    def build(codes: list[int], depth: int) -> int:
        if not codes:
            return _FALSE
        if depth == len(levels):
            return _TRUE
        var, bit = levels[depth]
        low = [c for c in codes if not c >> bit & 1]
        high = [c for c in codes if c >> bit & 1]
        return mgr._mk(var, build(low, depth + 1), build(high, depth + 1))

    return build(list(codes), 0)


def successor_names(k: KripkeStructure, state: str) -> list[str]:
    """The names of a state's successors, read off the structure's index."""
    return [k.states[j] for j in k.succ[k.index[state]]]


def naive_preimage(k: KripkeStructure, targets: frozenset[str]) -> frozenset[str]:
    """States with a successor in targets, by scanning every state."""
    return frozenset(s for s in k.states if any(t in targets for t in successor_names(k, s)))


def naive_eu_chain(k: KripkeStructure, holds_f: frozenset[str],
                   holds_g: frozenset[str]) -> list[frozenset[str]]:
    """Non-decreasing approximations of E[f U g], last element the fixpoint."""
    chain = [holds_g]
    while True:
        current = chain[-1]
        extended = current | (holds_f & naive_preimage(k, current))
        if extended == current:
            return chain
        chain.append(extended)


def naive_eg_chain(k: KripkeStructure, holds_f: frozenset[str]) -> list[frozenset[str]]:
    """Non-increasing approximations of EG f, last element the fixpoint."""
    chain = [holds_f]
    while True:
        current = chain[-1]
        shrunk = current & naive_preimage(k, current)
        if shrunk == current:
            return chain
        chain.append(shrunk)


def naive_sat(k: KripkeStructure, f: CtlFormula) -> frozenset[str]:
    """States satisfying f, every operator by its own fixpoint definition:
    no normalization to a core, no shared walk, plain recursion."""
    everything = frozenset(k.states)

    def sat(g: CtlFormula) -> frozenset[str]:
        return naive_sat(k, g)

    def pre_some(z: frozenset[str]) -> frozenset[str]:
        return naive_preimage(k, z)

    def pre_all(z: frozenset[str]) -> frozenset[str]:
        return frozenset(s for s in k.states if all(t in z for t in successor_names(k, s)))

    def fixpoint(z: frozenset[str], step) -> frozenset[str]:
        while (stepped := step(z)) != z:
            z = stepped
        return z

    def lfp(step) -> frozenset[str]:
        return fixpoint(frozenset(), step)

    def gfp(step) -> frozenset[str]:
        return fixpoint(everything, step)

    if isinstance(f, Const):
        return everything if f.value else frozenset()
    if isinstance(f, Atom):
        return frozenset(s for s in k.states if f.prop in k.labeling[s])
    if isinstance(f, Not):
        return everything - sat(f.operand)
    if isinstance(f, And):
        return sat(f.left) & sat(f.right)
    if isinstance(f, Or):
        return sat(f.left) | sat(f.right)
    if isinstance(f, Implies):
        return (everything - sat(f.left)) | sat(f.right)
    if isinstance(f, EX):
        return pre_some(sat(f.operand))
    if isinstance(f, AX):
        return pre_all(sat(f.operand))
    if isinstance(f, EF):
        goal = sat(f.operand)
        return lfp(lambda z: goal | pre_some(z))
    if isinstance(f, AF):
        goal = sat(f.operand)
        return lfp(lambda z: goal | pre_all(z))
    if isinstance(f, EG):
        keep = sat(f.operand)
        return gfp(lambda z: keep & pre_some(z))
    if isinstance(f, AG):
        keep = sat(f.operand)
        return gfp(lambda z: keep & pre_all(z))
    if isinstance(f, (EU, AU)):
        hold, goal = sat(f.left), sat(f.right)
        pre = pre_some if isinstance(f, EU) else pre_all
        return lfp(lambda z: goal | (hold & pre(z)))
    raise TypeError(f"not a CTL formula node: {f!r}")


def random_formula(rng: Random, states, depth: int = 4) -> CtlFormula:
    states = sorted(states)
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.45:
            return Atom(AtomicProposition("at", rng.choice(states)))
        if roll < 0.7:
            return Atom(AtomicProposition("in", rng.choice(APPROACH_NAMES)))
        return TRUE if rng.random() < 0.5 else FALSE
    unary = [Not, EX, EG, EF, AX, AF, AG]
    binary = [And, Or, Implies, EU, AU]
    if rng.random() < 0.5:
        cls = rng.choice(unary)
        return cls(random_formula(rng, states, depth - 1))
    cls = rng.choice(binary)
    return cls(random_formula(rng, states, depth - 1), random_formula(rng, states, depth - 1))


# -- boolean formulas for the BDD oracle ---------------------------------------------


def random_bool_formula(rng: Random, nvars: int, depth: int = 4):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.85:
            return ("var", rng.randrange(nvars))
        return ("const", rng.random() < 0.5)
    op = rng.choice(["not", "and", "or", "xor", "implies"])
    if op == "not":
        return ("not", random_bool_formula(rng, nvars, depth - 1))
    return (op,
            random_bool_formula(rng, nvars, depth - 1),
            random_bool_formula(rng, nvars, depth - 1))


def eval_bool(formula, assignment) -> bool:
    op = formula[0]
    if op == "var":
        return assignment[formula[1]]
    if op == "const":
        return formula[1]
    if op == "not":
        return not eval_bool(formula[1], assignment)
    a = eval_bool(formula[1], assignment)
    b = eval_bool(formula[2], assignment)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    if op == "xor":
        return a != b
    if op == "implies":
        return (not a) or b
    raise ValueError(op)


def truth_table(formula, nvars: int) -> tuple[bool, ...]:
    rows = []
    for bits in itertools.product((False, True), repeat=nvars):
        rows.append(eval_bool(formula, dict(enumerate(bits))))
    return tuple(rows)


def restrict_formula(formula, var: int, value: bool):
    """The formula with variable `var` replaced by the constant `value`."""
    op = formula[0]
    if op == "var":
        return ("const", value) if formula[1] == var else formula
    if op == "const":
        return formula
    return (op, *(restrict_formula(arg, var, value) for arg in formula[1:]))


def rename_formula(formula, rename):
    """The formula with each variable v replaced by variable rename(v)."""
    op = formula[0]
    if op == "var":
        return ("var", rename(formula[1]))
    if op == "const":
        return formula
    return (op, *(rename_formula(arg, rename) for arg in formula[1:]))


def exists_formula(formula, variables):
    """Existential quantification by Shannon expansion on the formula:
    f[v:=0] | f[v:=1] per variable."""
    for var in sorted(set(variables)):
        formula = ("or", restrict_formula(formula, var, False),
                   restrict_formula(formula, var, True))
    return formula


def bool_to_bdd(mgr: BddManager, formula) -> int:
    """The formula's node, built from `_mk(v, 0, 1)`, `_negate`, `_and` and
    `_or` alone."""
    op = formula[0]
    if op == "var":
        return mgr._mk(formula[1], _FALSE, _TRUE)
    if op == "const":
        return _TRUE if formula[1] else _FALSE
    if op == "not":
        return mgr._negate(bool_to_bdd(mgr, formula[1]))
    a, b = bool_to_bdd(mgr, formula[1]), bool_to_bdd(mgr, formula[2])
    if op == "xor":
        return mgr._or(mgr._and(a, mgr._negate(b)), mgr._and(mgr._negate(a), b))
    if op == "implies":
        return mgr._or(mgr._negate(a), b)
    return {"and": mgr._and, "or": mgr._or}[op](a, b)


def table_entries(step) -> int:
    """The entries of a bound pre-image step's computed table, read from its
    closure."""
    product = inspect.getclosurevars(step).nonlocals["product"]
    return sum(map(len, inspect.getclosurevars(product).nonlocals["rows"]))


def evaluate(mgr: BddManager, node: int, assignment) -> bool:
    """The node's value under a var -> bool mapping, by one root-to-leaf walk."""
    while node >= 2:
        node = mgr._high[node] if assignment[mgr._var[node]] else mgr._low[node]
    return node == _TRUE


def sat_count(mgr: BddManager, root: int, nvars: int) -> int:
    """The node's satisfying assignments over variables 0..nvars-1: each
    node's count over the variables below it, scaled by 2 for every level
    an edge skips. Raises ValueError when a node reads variable nvars or
    above."""
    def level(a: int) -> int:
        return mgr._var[a] if a >= 2 else nvars

    memo: dict[int, int] = {}

    def count(a: int) -> int:
        if a < 2:
            return a
        v = mgr._var[a]
        if v >= nvars:
            raise ValueError(f"node variable {v} needs nvars >= {v + 1}")
        if a not in memo:
            lo, hi = mgr._low[a], mgr._high[a]
            memo[a] = (count(lo) * 2 ** (level(lo) - v - 1)
                       + count(hi) * 2 ** (level(hi) - v - 1))
        return memo[a]

    return count(root) * 2 ** level(root)  # free variables above the root double the count
