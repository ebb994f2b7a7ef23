import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avmkit.bdd import _FALSE, _TRUE, BddManager

from generators import (
    bool_to_bdd,
    eval_bool,
    evaluate,
    exists_formula,
    random_bool_formula,
    rename_formula,
    restrict_formula,
    sat_count,
    table_entries,
    truth_table,
)

XOR_01 = ("xor", ("var", 0), ("var", 1))


def formulas(nvars=4):
    return st.integers(min_value=0, max_value=100_000).map(
        lambda seed: random_bool_formula(Random(seed), nvars)
    )


def table_of(mgr, node, nvars=6):
    return tuple(evaluate(mgr, node, dict(enumerate(bits)))
                 for bits in itertools.product((False, True), repeat=nvars))


@pytest.fixture
def mgr():
    return BddManager(6)


def var_node(mgr, v):
    """The node of the single variable v."""
    return mgr._mk(v, _FALSE, _TRUE)


class TestConstruction:
    def test_constants_are_interned(self, mgr):
        x = var_node(mgr, 0)
        assert mgr._or(x, mgr._negate(x)) == _TRUE
        assert mgr._and(x, mgr._negate(x)) == _FALSE

    def test_variables_are_interned(self, mgr):
        assert var_node(mgr, 0) == var_node(mgr, 0)
        assert var_node(mgr, 0) != var_node(mgr, 1)

    def test_negative_var_count(self):
        with pytest.raises(ValueError):
            BddManager(-1)


class TestApply:
    def test_idempotence_and_annihilation(self, mgr):
        f = bool_to_bdd(mgr, random_bool_formula(Random(7), 4))
        assert f not in (_TRUE, _FALSE)
        assert mgr._and(f, f) == f
        assert mgr._or(f, f) == f
        assert mgr._and(f, mgr._negate(f)) == _FALSE
        assert mgr._or(f, mgr._negate(f)) == _TRUE

    def test_xor_of_two_vars_has_three_nodes(self, mgr):
        f = bool_to_bdd(mgr, XOR_01)
        x1 = var_node(mgr, 1)
        # one x0 node whose two branches are x1 and its complement
        assert mgr._var[f] == 0
        assert {mgr._low[f], mgr._high[f]} == {x1, mgr._negate(x1)}

    def test_double_negation(self, mgr):
        f = bool_to_bdd(mgr, random_bool_formula(Random(13), 5))
        assert mgr._negate(mgr._negate(f)) == f

    @settings(max_examples=80, deadline=None)
    @given(formulas(), formulas())
    def test_de_morgan_and_distributivity(self, fa, fb):
        mgr = BddManager(4)
        f = bool_to_bdd(mgr, fa)
        g = bool_to_bdd(mgr, fb)
        conj, disj, neg = mgr._and, mgr._or, mgr._negate
        assert neg(conj(f, g)) == disj(neg(f), neg(g))
        assert neg(disj(f, g)) == conj(neg(f), neg(g))
        h = var_node(mgr, 3)
        assert conj(f, disj(g, h)) == disj(conj(f, g), conj(f, h))


class TestRestrictExists:
    """The formula-level cofactor and quantifier that TestPreImage checks
    against, and existential quantification of the odd variables as the
    pre-image of TRUE."""

    def test_restrict_projection(self, mgr):
        assert bool_to_bdd(mgr, restrict_formula(("var", 0), 0, True)) == _TRUE
        assert bool_to_bdd(mgr, restrict_formula(("var", 0), 0, False)) == _FALSE
        assert restrict_formula(("var", 1), 0, True) == ("var", 1)

    def test_exists_drops_one_var(self, mgr):
        both = ("and", ("var", 0), ("var", 1))
        assert bool_to_bdd(mgr, exists_formula(both, {0})) == var_node(mgr, 1)
        assert mgr._pre_image(bool_to_bdd(mgr, both))(_TRUE) == var_node(mgr, 0)

    def test_exists_identity(self, mgr):
        formula = random_bool_formula(Random(3), 4)
        assert exists_formula(formula, set()) == formula
        # A relation with no odd variable has nothing to quantify.
        f = bool_to_bdd(mgr, on_current(random_bool_formula(Random(3), 3)))
        assert mgr._pre_image(f)(_TRUE) == f

    @settings(max_examples=80, deadline=None)
    @given(formulas(), st.integers(min_value=0, max_value=3))
    def test_shannon_expansion(self, formula, var):
        mgr = BddManager(4)
        x = ("var", var)
        rebuilt = ("or", ("and", x, restrict_formula(formula, var, True)),
                   ("and", ("not", x), restrict_formula(formula, var, False)))
        assert bool_to_bdd(mgr, rebuilt) == bool_to_bdd(mgr, formula)

    @settings(max_examples=60, deadline=None)
    @given(formulas(), st.integers(min_value=0, max_value=3))
    def test_exists_matches_or_of_cofactors(self, formula, var):
        mgr = BddManager(4)
        f = bool_to_bdd(mgr, formula)
        expected = [any(row) for row in zip(truth_table(restrict_formula(formula, var, False), 4),
                                            truth_table(restrict_formula(formula, var, True), 4))]
        assert list(truth_table(exists_formula(formula, {var}), 4)) == expected
        assert mgr._pre_image(f)(_TRUE) == bool_to_bdd(mgr, exists_formula(formula, {1, 3}))


ODD = {1, 3, 5}


def on_current(formula):
    """A formula over variables 0..2 placed on the current-state (even)
    variables 0, 2 and 4 of a 6-variable manager."""
    return rename_formula(formula, lambda v: 2 * v)


def pre_image_formula(relation, current, odd=ODD):
    """exists(odd variables, relation & current read on the next-state
    variables), by Shannon expansion on the formulas."""
    following = rename_formula(current, lambda v: v + 1)
    return exists_formula(("and", relation, following), odd)


def formula_on(seed, variables, depth=4):
    """A random formula that reads no variable outside `variables` (a
    constant when the list is empty)."""
    if not variables:
        return ("const", seed % 2 == 0)
    return rename_formula(random_bool_formula(Random(seed), len(variables), depth),
                          variables.__getitem__)


# The bits of one pair that a drawn relation may test: both, the current
# bit only, the next bit only, or neither.
PAIR_BITS = ((0, 1), (0,), (1,), ())


class TestPreImage:
    """The pre-image kernel on a 6-variable manager, current-state variables
    0, 2, 4 and their next-state partners 1, 3, 5, unless a test says
    otherwise."""

    @settings(max_examples=80, deadline=None)
    @given(formulas(6), formulas(3))
    def test_matches_exists_of_conjunction(self, ft, fs):
        mgr = BddManager(6)
        step = mgr._pre_image(bool_to_bdd(mgr, ft))
        current = on_current(fs)
        assert step(bool_to_bdd(mgr, current)) == bool_to_bdd(mgr, pre_image_formula(ft, current))
        assert mgr.check_invariants() == []

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000),
           st.lists(st.sampled_from(PAIR_BITS), min_size=5, max_size=5),
           st.integers(min_value=0, max_value=100_000),
           st.sets(st.integers(min_value=0, max_value=4)))
    def test_five_pairs_with_skipped_bits(self, relation_seed, pair_bits, set_seed, set_bits):
        # Five pairs on a 10-variable manager; the relation skips a pair's
        # current bit, its next bit or both, and the set skips bits, so every
        # combination of cofactors a recursion meets occurs.
        mgr = BddManager(10)
        relation = formula_on(relation_seed,
                              [2 * p + bit for p, bits in enumerate(pair_bits) for bit in bits],
                              depth=5)
        current = formula_on(set_seed, [2 * b for b in sorted(set_bits)])
        expected = pre_image_formula(relation, current, odd=range(1, 10, 2))
        step = mgr._pre_image(bool_to_bdd(mgr, relation))
        assert step(bool_to_bdd(mgr, current)) == bool_to_bdd(mgr, expected)
        assert mgr.check_invariants() == []

    def test_identity_relation_maps_a_set_to_itself(self, mgr):
        same = [("not", ("xor", ("var", 2 * b), ("var", 2 * b + 1))) for b in range(3)]
        identity = bool_to_bdd(mgr, ("and", same[0], ("and", same[1], same[2])))
        s = bool_to_bdd(mgr, on_current(random_bool_formula(Random(33), 3)))
        assert s not in (_TRUE, _FALSE)
        assert mgr._pre_image(identity)(s) == s

    def test_terminal_operands(self, mgr):
        formula = random_bool_formula(Random(23), 6)
        f = bool_to_bdd(mgr, formula)
        current = on_current(random_bool_formula(Random(27), 3))
        s = bool_to_bdd(mgr, current)
        assert s not in (_TRUE, _FALSE)
        assert mgr._pre_image(_FALSE)(s) == _FALSE
        assert mgr._pre_image(f)(_FALSE) == _FALSE
        assert mgr._pre_image(_TRUE)(_TRUE) == _TRUE
        assert mgr._pre_image(_TRUE)(s) == _TRUE
        assert mgr._pre_image(f)(_TRUE) == bool_to_bdd(mgr, exists_formula(formula, ODD))
        assert mgr._pre_image(f)(s) == bool_to_bdd(mgr, pre_image_formula(formula, current))

    @settings(max_examples=40, deadline=None)
    @given(formulas(3), formulas(3))
    def test_relation_on_current_variables_only(self, fg, fs):
        # A relation that never reads a next-state variable is a guard: its
        # pre-image of any non-empty set is the guard itself.
        mgr = BddManager(6)
        guard = bool_to_bdd(mgr, on_current(fg))
        s = bool_to_bdd(mgr, on_current(fs))
        expected = _FALSE if s == _FALSE else guard
        assert mgr._pre_image(guard)(s) == expected

    @settings(max_examples=40, deadline=None)
    @given(formulas(3), formulas(3))
    def test_relation_on_next_variables_only(self, ft, fs):
        # A relation that reads only next-state variables leaves no current
        # variable free: its pre-image is TRUE iff some target state meets it.
        mgr = BddManager(6)
        targets = bool_to_bdd(mgr, rename_formula(ft, lambda v: 2 * v + 1))
        s = bool_to_bdd(mgr, on_current(fs))
        meets = mgr._and(bool_to_bdd(mgr, on_current(ft)), s) != _FALSE
        assert mgr._pre_image(targets)(s) == (_TRUE if meets else _FALSE)

    @settings(max_examples=60, deadline=None)
    @given(formulas(6), formulas(6), formulas(3))
    def test_operations_in_one_manager(self, fa, fb, fs):
        """Every operation in one manager, with two relations bound, so a
        computed table that answered for another operation or another
        relation returns a wrong node. The references are built in a fresh
        manager each and compared by truth table."""
        mgr = BddManager(6)
        f, g = bool_to_bdd(mgr, fa), bool_to_bdd(mgr, fb)
        current = on_current(fs)
        s = bool_to_bdd(mgr, current)
        results = [
            (mgr._and(f, g), ("and", fa, fb)),
            (mgr._or(f, g), ("or", fa, fb)),
            (mgr._negate(f), ("not", fa)),
            (mgr._pre_image(f)(s), pre_image_formula(fa, current)),
            (mgr._pre_image(g)(s), pre_image_formula(fb, current)),
        ]
        for got, reference in results:
            ref_mgr = BddManager(6)
            assert table_of(mgr, got) == table_of(ref_mgr, bool_to_bdd(ref_mgr, reference))
        assert mgr.check_invariants() == []

    def test_one_table_across_steps(self, mgr):
        # The steps of one binding share its table, so a repeated step is
        # answered at once; a new binding starts a table of its own.
        relation = bool_to_bdd(mgr, random_bool_formula(Random(31), 6))
        step = mgr._pre_image(relation)
        sets = [bool_to_bdd(mgr, on_current(random_bool_formula(Random(seed), 3)))
                for seed in range(37, 45)]
        results = [step(s) for s in sets]
        entries, nodes = table_entries(step), mgr.node_count()
        assert entries > 0
        assert [step(s) for s in sets] == results
        assert (table_entries(step), mgr.node_count()) == (entries, nodes)
        assert table_entries(mgr._pre_image(relation)) == 0


class TestCounting:
    def test_true_over_three_vars(self, mgr):
        assert sat_count(mgr, _TRUE, 3) == 8

    def test_xor_over_two_vars(self, mgr):
        assert sat_count(mgr, bool_to_bdd(mgr, XOR_01), 2) == 2

    def test_nvars_too_small(self, mgr):
        with pytest.raises(ValueError):
            sat_count(mgr, var_node(mgr, 2), 2)

    @settings(max_examples=80, deadline=None)
    @given(formulas(5))
    def test_sat_count_matches_truth_table(self, formula):
        mgr = BddManager(5)
        f = bool_to_bdd(mgr, formula)
        assert sat_count(mgr, f, 5) == sum(truth_table(formula, 5))


class TestCanonicity:
    def test_equivalence_iff_same_handle(self):
        rng = Random(42)
        mgr = BddManager(5)
        by_table = {}
        for _ in range(300):
            formula = random_bool_formula(rng, 5)
            node = bool_to_bdd(mgr, formula)
            table = truth_table(formula, 5)
            if table in by_table:
                assert by_table[table] == node
            else:
                for other_table, other_node in by_table.items():
                    assert other_node != node or other_table == table
                by_table[table] = node
        assert mgr.check_invariants() == []

    def test_bdd_agrees_with_truth_table(self):
        rng = Random(99)
        mgr = BddManager(4)
        for _ in range(100):
            formula = random_bool_formula(rng, 4)
            node = bool_to_bdd(mgr, formula)
            for bits in itertools.product((False, True), repeat=4):
                assignment = dict(enumerate(bits))
                assert evaluate(mgr, node, assignment) == eval_bool(formula, assignment)

    def test_invariants_after_workload(self, mgr):
        rng = Random(5)
        for _ in range(50):
            bool_to_bdd(mgr, random_bool_formula(rng, 6))
        assert mgr.check_invariants() == []


def unique_key(mgr, var, low, high):
    """The unique-table key of (var, low, high), in whichever form the
    manager's table keys take: a tuple, or the fields packed into one int."""
    if isinstance(next(iter(mgr._unique)), tuple):
        return var, low, high
    return (var << 32 | low) << 32 | high


class TestInvariantScan:
    """Each fault the scan reports, planted in a small manager."""

    @pytest.fixture
    def nodes(self):
        mgr = BddManager(4)
        x0, x1, x2 = (var_node(mgr, v) for v in range(3))
        either = mgr._or(x1, x2)  # var 1: low x2, high TRUE
        top = mgr._and(x0, either)  # var 0: low FALSE, high either
        assert mgr.check_invariants() == []
        return mgr, x1, x2, either, top

    def test_node_interned_twice(self, nodes):
        mgr, x1, _, _, top = nodes
        key = next(key for key, idx in mgr._unique.items() if idx == x1)
        mgr._unique[key] = top
        assert f"node {top} interned twice" in mgr.check_invariants()

    def test_redundant_node(self, nodes):
        mgr, _, x2, _, _ = nodes
        idx = len(mgr._var)
        mgr._var.append(1)
        mgr._low.append(x2)
        mgr._high.append(x2)
        mgr._unique[unique_key(mgr, 1, x2, x2)] = idx
        assert mgr.check_invariants() == [f"node {idx} is redundant: low == high == {x2}"]

    def test_out_of_range_variable(self, nodes):
        mgr, _, x2, _, _ = nodes
        mgr.var_count = 2
        assert mgr.check_invariants() == [f"node {x2} has out-of-range variable 2"]

    def test_node_disagrees_with_its_key(self, nodes):
        mgr, _, _, _, top = nodes
        mgr._high[top] = 1
        assert mgr.check_invariants() == [f"node {top} disagrees with its unique-table key"]

    def test_child_out_of_order(self, nodes):
        mgr, _, x2, either, _ = nodes
        mgr._var[x2] = 0
        assert f"node {either} (var 1) has child with var 0" in mgr.check_invariants()
