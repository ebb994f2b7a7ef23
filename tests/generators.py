"""Seeded random generators and independent oracles shared by the tests.

Everything here takes an explicit random.Random so the acceptance suite can
run exact sample counts reproducibly. The oracles are deliberately naive:
they enumerate rather than search, so they stay independent of the code
under test.
"""

import itertools
from random import Random

from avmkit.bdd import AND, IMPLIES, OR, XOR, BddManager
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
from avmkit.coupled import APPROACH_NAMES
from avmkit.lts import Behavior, Path, build_behavior

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


def naive_preimage(k: KripkeStructure, targets: frozenset[str]) -> frozenset[str]:
    """States with a successor in targets, by scanning every state."""
    return frozenset(s for s in k.states if any(t in targets for t in k.successors[s]))


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
        return frozenset(s for s in k.states if all(t in z for t in k.successors[s]))

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


def bool_to_bdd(mgr: BddManager, formula):
    op = formula[0]
    if op == "var":
        return mgr.mk_var(formula[1])
    if op == "const":
        return mgr.mk_const(formula[1])
    if op == "not":
        return mgr.negate(bool_to_bdd(mgr, formula[1]))
    ops = {"and": AND, "or": OR, "xor": XOR, "implies": IMPLIES}
    return mgr.apply(ops[op], bool_to_bdd(mgr, formula[1]), bool_to_bdd(mgr, formula[2]))
