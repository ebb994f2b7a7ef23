import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avmkit.bdd import (
    AND,
    IMPLIES,
    OR,
    XOR,
    BddManager,
    ManagerMismatchError,
    VarOutOfRangeError,
)

from generators import bool_to_bdd, eval_bool, random_bool_formula, truth_table


def formulas(nvars=4):
    return st.integers(min_value=0, max_value=100_000).map(
        lambda seed: random_bool_formula(Random(seed), nvars)
    )


@pytest.fixture
def mgr():
    return BddManager(6)


class TestConstruction:
    def test_constants_are_interned(self, mgr):
        assert mgr.mk_const(True) == mgr.true
        assert mgr.mk_const(True) == mgr.mk_const(True)
        assert mgr.mk_const(False) == mgr.false
        assert mgr.true != mgr.false

    def test_variables_are_interned(self, mgr):
        assert mgr.mk_var(0) == mgr.mk_var(0)
        assert mgr.mk_var(0) != mgr.mk_var(1)

    def test_var_out_of_range(self, mgr):
        with pytest.raises(VarOutOfRangeError):
            mgr.mk_var(6)
        with pytest.raises(VarOutOfRangeError):
            mgr.mk_var(-1)

    def test_manager_mismatch(self, mgr):
        other = BddManager(6)
        with pytest.raises(ManagerMismatchError):
            mgr.apply(AND, mgr.mk_var(0), other.mk_var(0))


class TestApply:
    def test_idempotence_and_annihilation(self, mgr):
        f = bool_to_bdd(mgr, random_bool_formula(Random(7), 4))
        assert mgr.apply(AND, f, f) == f
        assert mgr.apply(OR, f, f) == f
        assert mgr.apply(XOR, f, f) == mgr.false
        assert mgr.apply(IMPLIES, f, f) == mgr.true

    def test_xor_of_two_vars_has_three_nodes(self, mgr):
        f = mgr.apply(XOR, mgr.mk_var(0), mgr.mk_var(1))
        assert mgr.size(f) == 3

    def test_ite_projects(self, mgr):
        f = bool_to_bdd(mgr, random_bool_formula(Random(11), 4))
        assert mgr.ite(f, mgr.true, mgr.false) == f
        assert mgr.ite(f, mgr.false, mgr.true) == mgr.negate(f)

    def test_double_negation(self, mgr):
        f = bool_to_bdd(mgr, random_bool_formula(Random(13), 5))
        assert mgr.negate(mgr.negate(f)) == f

    @settings(max_examples=80, deadline=None)
    @given(formulas(), formulas())
    def test_de_morgan_and_distributivity(self, fa, fb):
        mgr = BddManager(4)
        f = bool_to_bdd(mgr, fa)
        g = bool_to_bdd(mgr, fb)
        assert mgr.negate(mgr.apply(AND, f, g)) == mgr.apply(OR, mgr.negate(f), mgr.negate(g))
        assert mgr.negate(mgr.apply(OR, f, g)) == mgr.apply(AND, mgr.negate(f), mgr.negate(g))
        h = mgr.mk_var(3)
        left = mgr.apply(AND, f, mgr.apply(OR, g, h))
        right = mgr.apply(OR, mgr.apply(AND, f, g), mgr.apply(AND, f, h))
        assert left == right


class TestRestrictExists:
    def test_restrict_projection(self, mgr):
        assert mgr.restrict(mgr.mk_var(0), 0, True) == mgr.true
        assert mgr.restrict(mgr.mk_var(0), 0, False) == mgr.false

    def test_exists_drops_one_var(self, mgr):
        both = mgr.apply(AND, mgr.mk_var(0), mgr.mk_var(1))
        assert mgr.exists(both, {0}) == mgr.mk_var(1)

    def test_exists_identity(self, mgr):
        f = bool_to_bdd(mgr, random_bool_formula(Random(3), 4))
        assert mgr.exists(f, set()) == f

    @settings(max_examples=80, deadline=None)
    @given(formulas(), st.integers(min_value=0, max_value=3))
    def test_shannon_expansion(self, formula, var):
        mgr = BddManager(4)
        f = bool_to_bdd(mgr, formula)
        rebuilt = mgr.ite(mgr.mk_var(var),
                          mgr.restrict(f, var, True),
                          mgr.restrict(f, var, False))
        assert rebuilt == f

    @settings(max_examples=60, deadline=None)
    @given(formulas(), st.integers(min_value=0, max_value=3))
    def test_exists_matches_or_of_cofactors(self, formula, var):
        mgr = BddManager(4)
        f = bool_to_bdd(mgr, formula)
        assert mgr.exists(f, {var}) == mgr.apply(
            OR, mgr.restrict(f, var, False), mgr.restrict(f, var, True)
        )


class TestAndExists:
    @settings(max_examples=80, deadline=None)
    @given(formulas(6), formulas(6), st.sets(st.integers(min_value=0, max_value=5)))
    def test_matches_exists_of_conjunction(self, fa, fb, variables):
        mgr = BddManager(6)
        f = bool_to_bdd(mgr, fa)
        g = bool_to_bdd(mgr, fb)
        assert mgr.and_exists(f, g, variables) == mgr.exists(mgr.apply(AND, f, g), variables)
        assert mgr.check_invariants() == []

    def test_empty_variable_set_is_conjunction(self, mgr):
        f = bool_to_bdd(mgr, random_bool_formula(Random(17), 6))
        g = bool_to_bdd(mgr, random_bool_formula(Random(19), 6))
        assert mgr.and_exists(f, g, set()) == mgr.apply(AND, f, g)

    def test_terminal_operands(self, mgr):
        f = bool_to_bdd(mgr, random_bool_formula(Random(23), 6))
        assert mgr.and_exists(mgr.false, f, {0, 1}) == mgr.false
        assert mgr.and_exists(f, mgr.false, {0, 1}) == mgr.false
        assert mgr.and_exists(mgr.true, mgr.true, {0}) == mgr.true
        assert mgr.and_exists(mgr.true, f, {0, 1}) == mgr.exists(f, {0, 1})
        assert mgr.and_exists(f, mgr.true, set()) == f

    def test_var_out_of_range(self, mgr):
        with pytest.raises(VarOutOfRangeError):
            mgr.and_exists(mgr.mk_var(0), mgr.mk_var(1), {6})
        with pytest.raises(VarOutOfRangeError):
            mgr.and_exists(mgr.true, mgr.true, {-1})


class TestCounting:
    def test_true_over_three_vars(self, mgr):
        assert mgr.sat_count(mgr.true, 3) == 8

    def test_xor_over_two_vars(self, mgr):
        f = mgr.apply(XOR, mgr.mk_var(0), mgr.mk_var(1))
        assert mgr.sat_count(f, 2) == 2

    def test_nvars_too_small(self, mgr):
        f = mgr.mk_var(2)
        with pytest.raises(VarOutOfRangeError):
            mgr.sat_count(f, 2)

    def test_pick_one_of_false_is_none(self, mgr):
        assert mgr.pick_one(mgr.false) is None

    @settings(max_examples=80, deadline=None)
    @given(formulas(6))
    def test_pick_one_satisfies(self, formula):
        mgr = BddManager(6)
        f = bool_to_bdd(mgr, formula)
        picked = mgr.pick_one(f)
        if picked is None:
            assert f == mgr.false
        else:
            assert mgr.evaluate(f, {v: picked.get(v, False) for v in range(6)})

    @settings(max_examples=80, deadline=None)
    @given(formulas(5))
    def test_sat_count_matches_truth_table(self, formula):
        mgr = BddManager(5)
        f = bool_to_bdd(mgr, formula)
        assert mgr.sat_count(f, 5) == sum(truth_table(formula, 5))


class TestCanonicity:
    def test_equivalence_iff_same_handle(self):
        rng = Random(42)
        mgr = BddManager(5)
        by_table = {}
        for _ in range(300):
            formula = random_bool_formula(rng, 5)
            ref = bool_to_bdd(mgr, formula)
            table = truth_table(formula, 5)
            if table in by_table:
                assert by_table[table] == ref
            else:
                for other_table, other_ref in by_table.items():
                    assert other_ref != ref or other_table == table
                by_table[table] = ref
        assert mgr.check_invariants() == []

    def test_bdd_agrees_with_truth_table(self):
        rng = Random(99)
        mgr = BddManager(4)
        for _ in range(100):
            formula = random_bool_formula(rng, 4)
            ref = bool_to_bdd(mgr, formula)
            for bits in itertools.product((False, True), repeat=4):
                assignment = dict(enumerate(bits))
                assert mgr.evaluate(ref, assignment) == eval_bool(formula, assignment)

    def test_invariants_after_workload(self, mgr):
        rng = Random(5)
        for _ in range(50):
            bool_to_bdd(mgr, random_bool_formula(rng, 6))
        assert mgr.check_invariants() == []


class TestDotDump:
    def test_contains_nodes_and_edges(self, mgr):
        f = mgr.apply(XOR, mgr.mk_var(0), mgr.mk_var(1))
        dot = mgr.to_dot(f)
        assert dot.startswith("digraph")
        assert 'label="x0"' in dot
        assert "style=dashed" in dot
