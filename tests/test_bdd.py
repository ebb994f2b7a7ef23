import inspect
import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avmkit.bdd import AND, OR, BddManager, ManagerMismatchError, VarOutOfRangeError

from generators import (
    bool_to_bdd,
    eval_bool,
    evaluate,
    exists_formula,
    random_bool_formula,
    rename_formula,
    restrict_formula,
    truth_table,
)

XOR_01 = ("xor", ("var", 0), ("var", 1))


def formulas(nvars=4):
    return st.integers(min_value=0, max_value=100_000).map(
        lambda seed: random_bool_formula(Random(seed), nvars)
    )


def table_of(mgr, ref, nvars=6):
    return tuple(evaluate(mgr, ref, dict(enumerate(bits)))
                 for bits in itertools.product((False, True), repeat=nvars))


@pytest.fixture
def mgr():
    return BddManager(6)


class TestConstruction:
    def test_constants_are_interned(self, mgr):
        x = mgr.mk_var(0)
        assert mgr.apply(OR, x, mgr.negate(x)) == mgr.true
        assert mgr.apply(AND, x, mgr.negate(x)) == mgr.false
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
        assert mgr.apply(AND, f, mgr.negate(f)) == mgr.false
        assert mgr.apply(OR, f, mgr.negate(f)) == mgr.true

    def test_xor_of_two_vars_has_three_nodes(self, mgr):
        f = bool_to_bdd(mgr, XOR_01).index
        x1 = mgr.mk_var(1)
        # one x0 node whose two branches are x1 and its complement
        assert mgr._var[f] == 0
        assert {mgr._low[f], mgr._high[f]} == {x1.index, mgr.negate(x1).index}

    def test_unknown_operation(self, mgr):
        with pytest.raises(ValueError):
            mgr.apply("xor", mgr.mk_var(0), mgr.mk_var(1))

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
    """The formula-level cofactor and quantifier that TestPreImage checks
    against, and existential quantification of the odd variables as the
    pre-image of TRUE."""

    def test_restrict_projection(self, mgr):
        assert bool_to_bdd(mgr, restrict_formula(("var", 0), 0, True)) == mgr.true
        assert bool_to_bdd(mgr, restrict_formula(("var", 0), 0, False)) == mgr.false
        assert restrict_formula(("var", 1), 0, True) == ("var", 1)

    def test_exists_drops_one_var(self, mgr):
        both = ("and", ("var", 0), ("var", 1))
        assert bool_to_bdd(mgr, exists_formula(both, {0})) == mgr.mk_var(1)
        assert pre_image(mgr, bool_to_bdd(mgr, both))(mgr.true) == mgr.mk_var(0)

    def test_exists_identity(self, mgr):
        formula = random_bool_formula(Random(3), 4)
        assert exists_formula(formula, set()) == formula
        # A relation with no odd variable has nothing to quantify.
        f = bool_to_bdd(mgr, on_current(random_bool_formula(Random(3), 3)))
        assert pre_image(mgr, f)(mgr.true) == f

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
        assert pre_image(mgr, f)(mgr.true) == bool_to_bdd(mgr, exists_formula(formula, {1, 3}))


ODD = {1, 3, 5}


def on_current(formula):
    """A formula over variables 0..2 placed on the current-state (even)
    variables 0, 2 and 4 of a 6-variable manager."""
    return rename_formula(formula, lambda v: 2 * v)


def pre_image_formula(relation, current):
    """exists(odd variables, relation & current read on the next-state
    variables), by Shannon expansion on the formulas."""
    following = rename_formula(current, lambda v: v + 1)
    return exists_formula(("and", relation, following), ODD)


def pre_image(mgr, relation):
    """The manager's pre-image step bound to `relation`, on handles."""
    step = mgr._pre_image(relation.index)
    return lambda s: mgr._ref(step(s.index))


def table_entries(step) -> int:
    """The entries of a bound step's computed table, read from its closure."""
    product = inspect.getclosurevars(step).nonlocals["product"]
    return sum(map(len, inspect.getclosurevars(product).nonlocals["rows"]))


class TestPreImage:
    """The pre-image kernel on a 6-variable manager: current-state variables
    0, 2, 4 and their next-state partners 1, 3, 5."""

    @settings(max_examples=80, deadline=None)
    @given(formulas(6), formulas(3))
    def test_matches_exists_of_conjunction(self, ft, fs):
        mgr = BddManager(6)
        step = pre_image(mgr, bool_to_bdd(mgr, ft))
        current = on_current(fs)
        assert step(bool_to_bdd(mgr, current)) == bool_to_bdd(mgr, pre_image_formula(ft, current))
        assert mgr.check_invariants() == []

    def test_identity_relation_maps_a_set_to_itself(self, mgr):
        same = [("not", ("xor", ("var", 2 * b), ("var", 2 * b + 1))) for b in range(3)]
        identity = bool_to_bdd(mgr, ("and", same[0], ("and", same[1], same[2])))
        s = bool_to_bdd(mgr, on_current(random_bool_formula(Random(33), 3)))
        assert s not in (mgr.true, mgr.false)
        assert pre_image(mgr, identity)(s) == s

    def test_terminal_operands(self, mgr):
        formula = random_bool_formula(Random(23), 6)
        f = bool_to_bdd(mgr, formula)
        current = on_current(random_bool_formula(Random(27), 3))
        s = bool_to_bdd(mgr, current)
        assert s not in (mgr.true, mgr.false)
        assert pre_image(mgr, mgr.false)(s) == mgr.false
        assert pre_image(mgr, f)(mgr.false) == mgr.false
        assert pre_image(mgr, mgr.true)(mgr.true) == mgr.true
        assert pre_image(mgr, mgr.true)(s) == mgr.true
        assert pre_image(mgr, f)(mgr.true) == bool_to_bdd(mgr, exists_formula(formula, ODD))
        assert pre_image(mgr, f)(s) == bool_to_bdd(mgr, pre_image_formula(formula, current))

    @settings(max_examples=40, deadline=None)
    @given(formulas(3), formulas(3))
    def test_relation_on_current_variables_only(self, fg, fs):
        # A relation that never reads a next-state variable is a guard: its
        # pre-image of any non-empty set is the guard itself.
        mgr = BddManager(6)
        guard = bool_to_bdd(mgr, on_current(fg))
        s = bool_to_bdd(mgr, on_current(fs))
        expected = mgr.false if s == mgr.false else guard
        assert pre_image(mgr, guard)(s) == expected

    @settings(max_examples=40, deadline=None)
    @given(formulas(3), formulas(3))
    def test_relation_on_next_variables_only(self, ft, fs):
        # A relation that reads only next-state variables leaves no current
        # variable free: its pre-image is TRUE iff some target state meets it.
        mgr = BddManager(6)
        targets = bool_to_bdd(mgr, rename_formula(ft, lambda v: 2 * v + 1))
        s = bool_to_bdd(mgr, on_current(fs))
        meets = mgr.apply(AND, bool_to_bdd(mgr, on_current(ft)), s) != mgr.false
        assert pre_image(mgr, targets)(s) == (mgr.true if meets else mgr.false)

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
            (mgr.apply(AND, f, g), ("and", fa, fb)),
            (mgr.apply(OR, f, g), ("or", fa, fb)),
            (mgr.negate(f), ("not", fa)),
            (pre_image(mgr, f)(s), pre_image_formula(fa, current)),
            (pre_image(mgr, g)(s), pre_image_formula(fb, current)),
        ]
        for got, reference in results:
            ref_mgr = BddManager(6)
            assert table_of(mgr, got) == table_of(ref_mgr, bool_to_bdd(ref_mgr, reference))
        assert mgr.check_invariants() == []

    def test_one_table_across_steps(self, mgr):
        # The steps of one binding share its table, so a repeated step is
        # answered at once; a new binding starts a table of its own.
        relation = bool_to_bdd(mgr, random_bool_formula(Random(31), 6)).index
        step = mgr._pre_image(relation)
        sets = [bool_to_bdd(mgr, on_current(random_bool_formula(Random(seed), 3))).index
                for seed in range(37, 45)]
        results = [step(s) for s in sets]
        entries, nodes = table_entries(step), mgr.node_count()
        assert entries > 0
        assert [step(s) for s in sets] == results
        assert (table_entries(step), mgr.node_count()) == (entries, nodes)
        assert table_entries(mgr._pre_image(relation)) == 0


class TestCounting:
    def test_true_over_three_vars(self, mgr):
        assert mgr.sat_count(mgr.true, 3) == 8

    def test_xor_over_two_vars(self, mgr):
        assert mgr.sat_count(bool_to_bdd(mgr, XOR_01), 2) == 2

    def test_nvars_too_small(self, mgr):
        f = mgr.mk_var(2)
        with pytest.raises(VarOutOfRangeError):
            mgr.sat_count(f, 2)

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
                assert evaluate(mgr, ref, assignment) == eval_bool(formula, assignment)

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
        x0, x1, x2 = (mgr.mk_var(v) for v in range(3))
        either = mgr.apply(OR, x1, x2)  # var 1: low x2, high TRUE
        top = mgr.apply(AND, x0, either)  # var 0: low FALSE, high either
        assert mgr.check_invariants() == []
        return mgr, x1.index, x2.index, either.index, top.index

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
