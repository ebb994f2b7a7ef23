import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import avmkit.checker
from avmkit.bdd import _TRUE, BddManager
from avmkit.checker import (
    WITNESSES,
    KripkeStructure,
    UnknownAtomError,
    _Symbolic,
    _below,
    _eg,
    _eu,
    _pre,
    check_explicit,
    check_symbolic,
    to_kripke,
    witness,
)
from avmkit.coupled import APPROACH_NAMES
from avmkit.ctl import AG, AU, EF, EX, And, Atom, AtomicProposition, fold, parse_ctl
from avmkit.lts import Behavior, build_behavior

from generators import (
    complete_kripke,
    is_valid_path,
    naive_eg_chain,
    naive_eu_chain,
    naive_preimage,
    naive_sat,
    random_behavior,
    random_coupled_model,
    random_formula,
    random_kripke,
    ring_kripke,
    table_entries,
    topdown_codes_to_bdd,
)


def kripkes(max_states=8, max_out=None):
    return st.integers(min_value=0, max_value=100_000).map(
        lambda seed: random_kripke(Random(seed), max_states, max_out)
    )


@pytest.fixture(scope="module")
def control_kripke(bundled_doc):
    return to_kripke(bundled_doc.coupled.control,
                     bundled_doc.coupled.approaches.states_by_side("control"))


class TestToKripke:
    def test_bundled_control_shape(self, control_kripke):
        assert len(control_kripke.states) == 7
        assert control_kripke.totalized == frozenset({"End"})
        assert ("End", "End") in control_kripke.relation

    def test_recognition_labeling(self, control_kripke):
        assert control_kripke.labeling["Recognition"] == frozenset({
            AtomicProposition("at", "Recognition"),
            AtomicProposition("in", "Identification"),
        })

    def test_single_state_behavior_gets_self_loop(self):
        b = build_behavior({"A"}, "A", set(), [])
        k = to_kripke(b)
        assert k.relation == frozenset({("A", "A")})
        assert k.totalized == frozenset({"A"})

    def test_labels_erased_once(self):
        b = build_behavior({"A", "B"}, "A", {"x", "y"},
                           [("A", "x", "B"), ("A", "y", "B"), ("B", "x", "A")])
        k = to_kripke(b)
        assert k.relation == frozenset({("A", "B"), ("B", "A")})
        assert k.succ == ((1,), (0,))  # parallel edges are one successor
        assert k.edge_labels[("A", "B")] == "x"  # smallest label represents the pair

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_edge_labels_keep_each_pairs_smallest_label(self, seed):
        # Transitions in a random order, with parallel edges under different
        # labels: the labels are read off them on first use.
        rng = Random(seed)
        b = random_behavior(rng)
        transitions = list(b.transitions)
        rng.shuffle(transitions)
        pairs = [(s, t) for s, _, t in transitions]
        assume(len(set(pairs)) < len(pairs))
        k = to_kripke(Behavior(b.states, b.initial, b.labels, tuple(transitions), b.finals))
        assert "edge_labels" not in vars(k)
        assert k.edge_labels == {
            pair: min(label for s, label, t in transitions if (s, t) == pair)
            for pair in pairs}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_always_total(self, seed):
        k = to_kripke(random_behavior(Random(seed)))
        sources = {s for s, _ in k.relation}
        assert sources == set(k.states)


class TestPublicConstructor:
    # to_kripke numbers a behavior directly; the public constructor numbers
    # the same structure from its name-keyed fields. Both must hold one index.
    FIELDS = ("states", "initial", "relation", "labeling", "totalized", "edge_labels",
              "index", "succ", "pred", "atoms")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_rebuilds_what_to_kripke_builds(self, seed):
        rng = Random(seed)
        model = random_coupled_model(rng, acyclic=rng.random() < 0.5)
        # Members drawn from both sides: the other side's states label nothing.
        everything = sorted(model.control.states | model.preventive.states)
        approaches = {name: frozenset(rng.sample(everything, rng.randint(0, 3)))
                      for name in APPROACH_NAMES if rng.random() < 0.7}
        for behavior in (model.control, model.preventive):
            k = to_kripke(behavior, approaches)
            rebuilt = KripkeStructure(states=k.states, initial=k.initial, relation=k.relation,
                                      labeling=k.labeling, totalized=k.totalized,
                                      edge_labels=k.edge_labels)
            for field in self.FIELDS:
                assert getattr(rebuilt, field) == getattr(k, field), field
                with pytest.raises(FrozenInstanceError):
                    setattr(rebuilt, field, None)
            for members in k.atoms.values():
                assert list(members) == sorted(set(members)) and members
            for _ in range(3):
                f = random_formula(rng, k.states)
                results = [check(structure, f) for structure in (k, rebuilt)
                           for check in (check_explicit, check_symbolic)]
                assert all(type(r) is frozenset for r in results)
                assert all(type(s) is str for r in results for s in r)
                assert results[1:] == results[:-1]
            assert ((k._symbolic.mgr._var, k._symbolic.mgr._low, k._symbolic.mgr._high)
                    == (rebuilt._symbolic.mgr._var, rebuilt._symbolic.mgr._low,
                        rebuilt._symbolic.mgr._high))

    @pytest.mark.parametrize("edit, message", [
        ({"initial": "Z"}, "initial state Z is not a state"),
        ({"relation": frozenset({("A", "B"), ("B", "Z")})},
         "relation pair (B, Z) leaves the state set"),
        ({"relation": frozenset({("A", "B")})}, "relation is not total; no successor for: ['B']"),
        ({"labeling": {"A": frozenset({AtomicProposition("at", "A")}),
                       "B": frozenset({AtomicProposition("at", "A")})}},
         "labeling of B is missing at(B)"),
        ({"labeling": {s: frozenset({AtomicProposition("at", s)}) for s in "ABZ"}},
         "labeling names states outside the state set: ['Z']"),
        ({"labeling": {"A": frozenset({AtomicProposition("at", "A"), AtomicProposition("at", "B")}),
                       "B": frozenset({AtomicProposition("at", "B")})}},
         "labeling of A holds at(B)"),
    ])
    def test_rejects_a_malformed_structure(self, edit, message):
        fields = {
            "states": ("A", "B"),
            "initial": "A",
            "relation": frozenset({("A", "B"), ("B", "B")}),
            "labeling": {s: frozenset({AtomicProposition("at", s)}) for s in "AB"},
        }
        KripkeStructure(**fields)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KripkeStructure(**(fields | edit))


class TestAtomStates:
    @settings(max_examples=60, deadline=None)
    @given(kripkes())
    def test_matches_per_state_scan(self, k):
        in_atoms = {AtomicProposition("in", name) for name in APPROACH_NAMES}
        labeled = set().union(*k.labeling.values())
        for prop in labeled | in_atoms:
            scan = frozenset(s for s in k.states if prop in k.labeling[s])
            assert frozenset(k.states[i] for i in k.atoms.get(prop, ())) == scan
        for prop in in_atoms - labeled:
            # a valid approach with no member on this side is empty, not unknown
            assert prop not in k.atoms
            formula = Atom(prop)
            assert check_explicit(k, formula) == check_symbolic(k, formula) == frozenset()


class TestMembers:
    @settings(max_examples=60, deadline=None)
    @given(kripkes())
    def test_members_are_the_atoms_view(self, k):
        props = [AtomicProposition("at", s) for s in (*k.states, "nowhere")]
        props += [AtomicProposition("in", name) for name in APPROACH_NAMES]
        for prop in props:
            assert k.members(prop) == k.atoms.get(prop, ())
        assert k.members(AtomicProposition("at", "nowhere")) == ()


class TestExplicit:
    def test_ef_done(self, control_kripke):
        got = check_explicit(control_kripke, parse_ctl("EF at(Done)"))
        assert got == frozenset({"NotActivated", "Activated", "Process", "Recognition", "Done"})

    def test_af_done_fails_at_initial(self, control_kripke):
        # the ignore branch and the rescan loop both avoid Done forever
        assert control_kripke.initial not in check_explicit(control_kripke, parse_ctl("AF at(Done)"))
        assert check_explicit(control_kripke, parse_ctl("AF at(Done)")) == frozenset({"Done"})

    def test_true_is_everything(self, control_kripke):
        assert check_explicit(control_kripke, parse_ctl("true")) == frozenset(control_kripke.states)

    def test_unknown_at_atom(self, control_kripke):
        with pytest.raises(UnknownAtomError):
            check_explicit(control_kripke, parse_ctl("EF at(Nowhere)"))

    def test_unknown_in_atom(self, control_kripke):
        with pytest.raises(UnknownAtomError):
            check_explicit(control_kripke, parse_ctl("in(Cleanup)"))


class TestSymbolic:
    def test_false_is_empty(self, control_kripke):
        assert check_symbolic(control_kripke, parse_ctl("false")) == frozenset()

    def test_ex_end(self, control_kripke):
        # End reaches itself through the totalization self-loop
        got = check_symbolic(control_kripke, parse_ctl("EX at(End)"))
        assert got == frozenset({"Done", "Aborted", "End"})

    def test_agrees_on_bundled_suite(self, bundled_doc, control_kripke):
        for prop in bundled_doc.properties:
            explicit = check_explicit(control_kripke, prop.formula)
            symbolic = check_symbolic(control_kripke, prop.formula)
            assert explicit == symbolic, prop.name

    @settings(max_examples=80, deadline=None)
    @given(kripkes(), st.integers(min_value=0, max_value=100_000))
    def test_agrees_with_explicit_on_random_structures(self, k, seed):
        # formulas checked in sequence share the structure's BDD manager and tables
        rng = Random(seed)
        for _ in range(4):
            f = random_formula(rng, k.states)
            assert check_symbolic(k, f) == check_explicit(k, f)

    def test_bundled_suite_node_count(self, bundled_doc):
        # Pinned: a kernel that interned more intermediate nodes would raise it.
        k = to_kripke(bundled_doc.coupled.control,
                      bundled_doc.coupled.approaches.states_by_side("control"))
        for prop in bundled_doc.properties:
            check_symbolic(k, prop.formula)
        assert k._symbolic.mgr.node_count() == 56

    def test_wide_structure_specs_on_one_manager(self):
        # A 256-state ring plus chords under the spec shapes of the
        # random-wide benchmark, all on one manager; the pins catch a
        # kernel change that interns a different set of nodes or memoizes
        # at other levels than the variable pairs.
        k = ring_kripke(Random(1), 256)
        targets = Random(2).sample(k.states[1:], 4)
        specs = [
            f"EF at({targets[0]})",
            f"AG EF at({targets[1]})",
            f"AG !at({targets[2]})",
            f"EX at({k.states[1]})",
            f"E [ !at({targets[3]}) U at({targets[3]}) ]",
        ]
        for text in specs:
            formula = parse_ctl(text)
            assert check_symbolic(k, formula) == check_explicit(k, formula), text
        assert k._symbolic.mgr.check_invariants() == []
        assert k._symbolic.mgr.node_count() == 3904
        assert table_entries(k._symbolic._step) == 8838

    def test_single_state_structure(self):
        b = build_behavior({"A"}, "A", set(), [])
        k = to_kripke(b)
        assert check_symbolic(k, parse_ctl("EG at(A)")) == frozenset({"A"})

    @settings(max_examples=80, deadline=None)
    @given(kripkes(), st.randoms(use_true_random=False))
    def test_step_is_the_explicit_pre_image(self, k, rng):
        # The step reads the set on the next-state variables without a
        # renamed copy: every node it interns is on a current-state variable.
        context = k._symbolic
        subset = frozenset(i for i in range(len(k.states)) if rng.random() < 0.5)
        node = context._set_to_bdd(subset)
        interned = len(context.mgr._var)
        assert context._to_states(context._step(node)) == k._names(_pre(k, subset))
        assert all(v % 2 == 0 for v in context.mgr._var[interned:])
        assert context.mgr.check_invariants() == []


class TestRepeatedStates:
    def test_repeated_state_is_one_state_for_both_engines(self):
        # A repeated state used to leave a ghost code in the BDD universe that
        # decoded to the repeated state, so !at(A) held at A symbolically.
        at = {s: AtomicProposition("at", s) for s in "AB"}
        k = KripkeStructure(
            states=("A", "A", "B"),
            initial="A",
            relation=frozenset({("A", "A"), ("A", "B"), ("B", "B")}),
            labeling={s: frozenset({prop}) for s, prop in at.items()},
        )
        assert k.states == ("A", "B")
        for text in ("!at(A)", "EX at(B)", "AX at(B)"):
            formula = parse_ctl(text)
            assert check_symbolic(k, formula) == check_explicit(k, formula), text


class TestTerminalOperands:
    # The symbolic EX resolves the relation's and the set's terminal nodes in
    # the pre-image kernel; on these structures the relation, the universe
    # and the sets reach the constant TRUE.
    FORMULAS = (
        "EX true", "EX false", "EX at(q0)", "AX true", "AX at(q0)", "AX false",
        "EG true", "EG at(q0)", "EG !at(q0)", "EF at(q0)", "EF false", "AF at(q0)",
        "E [ true U at(q0) ]", "E [ at(q0) U !at(q0) ]", "E [ false U true ]",
        "AG EX true", "A [ true U at(q0) ]",
    )

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_engines_agree_on_complete_structures(self, n):
        k = complete_kripke(n)
        if n > 1:
            assert k._symbolic.universe == k._symbolic.relation == _TRUE
        for text in self.FORMULAS:
            formula = parse_ctl(text)
            expected = naive_sat(k, formula)
            assert check_explicit(k, formula) == expected, text
            assert check_symbolic(k, formula) == expected, text


class TestDeepFixpoints:
    # A 12-state chain c00 -> ... -> c11 with a self-loop on c11: every
    # fixpoint below needs one step per chain state, so an engine that stops
    # early is wrong on most of the chain.
    FORMULAS = ("EG !at(c11)", "EG at(c11)", "EF at(c11)", "AF at(c11)",
                "E [ !at(c11) U at(c11) ]", "A [ true U at(c11) ]", "AG !at(c00)",
                "EG EF at(c11)")

    @pytest.mark.parametrize("text", FORMULAS)
    def test_engines_reach_the_fixpoint(self, text):
        states = [f"c{i:02d}" for i in range(12)]
        k = KripkeStructure(
            states=tuple(states),
            initial=states[0],
            relation=frozenset(zip(states, states[1:] + states[-1:])),
            labeling={s: frozenset({AtomicProposition("at", s)}) for s in states},
        )
        formula = parse_ctl(text)
        expected = naive_sat(k, formula)
        assert check_explicit(k, formula) == expected
        assert check_symbolic(k, formula) == expected


def _code_sets(width):
    everything = list(range(1 << width))
    return st.one_of(
        st.just([]),
        st.just(everything),
        st.permutations(everything),
        st.lists(st.sampled_from(everything), max_size=40),
        st.lists(st.sampled_from(everything), max_size=20).map(lambda codes: codes + codes),
    )


class TestCodesToBdd:
    @settings(max_examples=120, deadline=None)
    @given(kripkes(max_states=16, max_out=3), st.booleans(), st.data())
    def test_bottom_up_build_matches_top_down_reference(self, k, pairs, data):
        context = k._symbolic
        bits = context.bits
        if pairs:
            levels = [(v, v // 2 + (v % 2) * bits) for v in range(2 * bits)]
        else:
            levels = [(2 * b, b) for b in range(bits)]
        codes = data.draw(_code_sets(len(levels)))
        built = context._codes_to_bdd(codes, levels)
        assert built == topdown_codes_to_bdd(context.mgr, codes, levels)
        assert context.mgr.check_invariants() == []

    def test_node_ids_do_not_depend_on_code_order(self):
        # Codes are taken sorted, so one set given in two orders interns its
        # nodes in one order: two fresh contexts end with equal tables.
        k = ring_kripke(Random(1), 64)
        codes = Random(3).sample(range(64), 40)
        tables = []
        for order in (codes, codes[::-1]):
            context = _Symbolic(k)
            context._set_to_bdd(order)
            tables.append((context.mgr._var, context.mgr._low, context.mgr._high))
        assert tables[0] == tables[1]

    def test_node_ids_do_not_depend_on_the_hash_seed(self):
        # The suite of test_wide_structure_specs_on_one_manager; string
        # hashing orders the sets of names the structure is built from
        # differently per seed.
        script = """
import hashlib
from random import Random
from avmkit.checker import check_symbolic
from avmkit.ctl import parse_ctl
from generators import ring_kripke

k = ring_kripke(Random(1), 256)
targets = Random(2).sample(k.states[1:], 4)
for text in (f"EF at({targets[0]})", f"AG EF at({targets[1]})", f"AG !at({targets[2]})",
             f"EX at({k.states[1]})", f"E [ !at({targets[3]}) U at({targets[3]}) ]"):
    check_symbolic(k, parse_ctl(text))
mgr = k._symbolic.mgr
print(hashlib.sha256(repr((mgr._var, mgr._low, mgr._high)).encode()).hexdigest())
"""
        tests_dir = Path(__file__).resolve().parent
        path = os.pathsep.join(
            [str(tests_dir.parent / "src"), str(tests_dir), os.environ.get("PYTHONPATH", "")])
        digests = [
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                           ).stdout
            for seed in ("0", "1")
        ]
        assert len(digests[0].strip()) == 64
        assert digests[0] == digests[1]


class TestUniverse:
    def test_direct_build_interns_the_bottom_up_nodes(self):
        # Every n from 1 to 1100, every power of two up to 1024 among them:
        # on fresh managers, the direct build leaves the table and root of
        # the general build of range(n), node for node.
        for n in range(1, 1101):
            bits = max(1, (n - 1).bit_length())
            direct = BddManager(2 * bits)
            root = _below(direct, n, bits)
            context = _Symbolic.__new__(_Symbolic)
            context.mgr, context.bits = BddManager(2 * bits), bits
            built = context._set_to_bdd(range(n))
            assert (root, direct._var, direct._low, direct._high) == \
                (built, context.mgr._var, context.mgr._low, context.mgr._high), n


class TestDecode:
    @settings(max_examples=150, deadline=None)
    @given(kripkes(max_states=40, max_out=2), st.data())
    def test_decode_returns_the_encoded_states(self, k, data):
        # 1 to 40 states, mostly not a power of two, so codes past the last
        # state often fall under a free bit of a run.
        subset = data.draw(st.sets(st.integers(min_value=0, max_value=len(k.states) - 1)))
        context = k._symbolic
        assert context._to_states(context._set_to_bdd(subset)) == \
            frozenset(k.states[i] for i in subset)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 17, 31, 33])
    def test_every_state_and_every_other_state(self, n):
        k = ring_kripke(Random(n), n) if n >= 3 else complete_kripke(n)
        context = k._symbolic
        assert context._to_states(context.universe) == frozenset(k.states)
        evens = frozenset(k.states[::2])
        assert context._to_states(context._set_to_bdd(range(0, n, 2))) == evens


class TestDuality:
    @settings(max_examples=60, deadline=None)
    @given(kripkes(6), st.integers(min_value=0, max_value=100_000))
    def test_sat_set_equalities(self, k, seed):
        rng = Random(seed)
        f = random_formula(rng, k.states, depth=2)
        everything = frozenset(k.states)
        ax = check_explicit(k, parse_ctl("true"))  # warm call, also checks vocabulary
        assert ax == everything
        sat_f = check_explicit(k, f)
        from avmkit.ctl import AG as AGn, AX as AXn, EF as EFn, EU as EUn, EX as EXn, Not, TRUE

        assert check_explicit(k, AXn(f)) == everything - check_explicit(k, EXn(Not(f)))
        assert check_explicit(k, EFn(f)) == check_explicit(k, EUn(TRUE, f))
        assert check_explicit(k, AGn(f)) == everything - check_explicit(k, EFn(Not(f)))
        assert sat_f == check_explicit(k, Not(Not(f)))


class TestFixpointChains:
    @settings(max_examples=60, deadline=None)
    @given(kripkes(), st.integers(min_value=0, max_value=100_000))
    def test_eu_nondecreasing_eg_nonincreasing(self, k, seed):
        rng = Random(seed)
        sat_f = check_explicit(k, random_formula(rng, k.states, depth=2))
        sat_g = check_explicit(k, random_formula(rng, k.states, depth=2))
        eu = naive_eu_chain(k, sat_f, sat_g)
        for earlier, later in zip(eu, eu[1:]):
            assert earlier < later
        assert len(eu) <= len(k.states) + 1
        eg = naive_eg_chain(k, sat_f)
        for earlier, later in zip(eg, eg[1:]):
            assert later < earlier
        assert len(eg) <= len(k.states) + 1

    # Sparse structures of up to 150 states give fixpoints many steps deep.
    @settings(max_examples=80, deadline=None)
    @given(kripkes(150, max_out=3), st.integers(min_value=0, max_value=100_000))
    def test_linear_labelling_matches_naive_fixpoints(self, k, seed):
        rng = Random(seed)
        sat_f = check_explicit(k, random_formula(rng, k.states, depth=2))
        sat_g = check_explicit(k, random_formula(rng, k.states, depth=2))
        # The labelling runs on state numbers; the naive fixpoints on names.
        f_ids, g_ids = (frozenset(map(k.index.__getitem__, sat)) for sat in (sat_f, sat_g))
        assert k._names(_pre(k, g_ids)) == naive_preimage(k, sat_g)
        assert k._names(_eu(k, f_ids, g_ids)) == naive_eu_chain(k, sat_f, sat_g)[-1]
        assert k._names(_eg(k, f_ids)) == naive_eg_chain(k, sat_f)[-1]
        f = random_formula(rng, k.states)
        assert check_symbolic(k, f) == check_explicit(k, f)


class TestNaiveReference:
    # naive_sat evaluates every operator by its own definition, so a bug in
    # normalize or in the shared fold cannot hide behind agreeing engines.
    @settings(max_examples=80, deadline=None)
    @given(kripkes(), st.integers(min_value=0, max_value=100_000))
    def test_engines_match_definitions(self, k, seed):
        rng = Random(seed)
        f = random_formula(rng, k.states)
        shared = AU(f, And(f, EX(f)))  # one node reached along several paths
        for formula in (f, shared):
            expected = naive_sat(k, formula)
            assert check_explicit(k, formula) == expected
            assert check_symbolic(k, formula) == expected


def nested_until(levels):
    text = "at(Done)"
    for _ in range(levels):
        text = f"A [ true U {text} ]"
    return parse_ctl(text)


class TestSharing:
    # A[f U g] = !(E[!g U (!f & !g)] | EG !g) shares g three ways; walking the
    # normalized DAG as a tree would label each level's g about 3x per level.
    def test_explicit_labels_each_fixpoint_once(self, control_kripke, monkeypatch):
        calls = []
        eu, eg = avmkit.checker._eu, avmkit.checker._eg
        monkeypatch.setattr(avmkit.checker, "_eu", lambda *args: calls.append("EU") or eu(*args))
        monkeypatch.setattr(avmkit.checker, "_eg", lambda *args: calls.append("EG") or eg(*args))
        check_explicit(control_kripke, nested_until(8))
        assert (calls.count("EU"), calls.count("EG")) == (8, 8)

    def test_symbolic_labels_each_fixpoint_once(self, control_kripke, monkeypatch):
        calls = []
        sat = avmkit.checker._Symbolic._sat
        monkeypatch.setattr(avmkit.checker._Symbolic, "_sat", lambda self, node, sats: (
            calls.append(type(node).__name__) or sat(self, node, sats)))
        check_symbolic(control_kripke, nested_until(8))
        assert (calls.count("EU"), calls.count("EG")) == (8, 8)

    def test_deep_nesting_agrees(self, control_kripke):
        f = nested_until(30)
        assert check_explicit(control_kripke, f) == check_symbolic(control_kripke, f)


def counted_steps(context):
    """Wraps the context's pre-image step; returns the list it appends to."""
    calls = []
    step = context._step
    context._step = lambda node: calls.append(node) or step(node)
    return calls


class TestMemo:
    # The symbolic context keeps each core node's BDD, keyed by the node's
    # class, its atom or constant and its children's node ids, for the life
    # of the structure.
    def test_second_pass_adds_no_node_and_takes_no_step(self, bundled_doc):
        for target in dict.fromkeys(p.target for p in bundled_doc.properties):
            k = to_kripke(bundled_doc.coupled.behavior(target),
                          bundled_doc.coupled.approaches.states_by_side(target))
            context = k._symbolic
            steps = counted_steps(context)
            props = [p for p in bundled_doc.properties if p.target == target]
            first = [check_symbolic(k, p.formula) for p in props]
            assert props and steps
            nodes, taken = context.mgr.node_count(), len(steps)
            assert [check_symbolic(k, p.formula) for p in props] == first
            assert (context.mgr.node_count(), len(steps)) == (nodes, taken)

    def test_shared_fixpoint_runs_once(self):
        # AF g is !EG !g, so it reuses EG !g's fixpoint.
        k = to_kripke(build_behavior({"A", "B", "C"}, "A", {"a", "b"},
                                     [("A", "a", "B"), ("B", "b", "C")]))
        steps = counted_steps(k._symbolic)
        assert check_symbolic(k, parse_ctl("EG !at(C)")) == frozenset()
        taken = len(steps)
        assert check_symbolic(k, parse_ctl("AF at(C)")) == frozenset({"A", "B", "C"})
        assert len(steps) == taken > 0

    @settings(max_examples=60, deadline=None)
    @given(kripkes(max_states=12), st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=1, max_value=6))
    def test_formulas_sharing_one_context_agree_with_explicit(self, k, seed, count):
        rng = Random(seed)
        formulas = [random_formula(rng, k.states) for _ in range(count)]
        for f in formulas:
            assert check_symbolic(k, f) == check_explicit(k, f)
        mgr = k._symbolic.mgr
        assert mgr.check_invariants() == []
        nodes = mgr.node_count()
        for f in formulas:
            assert check_symbolic(k, f) == check_explicit(k, f)
        assert mgr.node_count() == nodes

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 12, 100])
    def test_universe_left_operand_equals_the_unskipped_form(self, n):
        # With n not a power of two the universe is a real BDD, not TRUE, so
        # the EU that skips AND(universe, pre-image) takes a different path.
        k = ring_kripke(Random(n), n)
        context = k._symbolic
        assert context.universe != _TRUE
        conj, disj, step = context.mgr._and, context.mgr._or, context._step
        goal = k.states[n // 2]
        for text in (f"E [ true U at({goal}) ]",
                     f"E [ (at({goal}) | !at({goal})) U EX at({goal}) ]"):
            formula = parse_ctl(text)
            f, current = (fold(child, context._sat) for child in (formula.left, formula.right))
            assert f == context.universe
            while (extended := disj(current, conj(f, step(current)))) != current:
                current = extended
            assert fold(formula, context._sat) == current, text
            assert check_symbolic(k, formula) == check_explicit(k, formula), text


class TestWitness:
    def test_ef_done_witness(self, control_kripke, control):
        path = witness(control_kripke, parse_ctl("EF at(Done)"))
        assert path.states == ("NotActivated", "Activated", "Process", "Recognition", "Done")
        assert path.labels == ("activate", "start", "found", "remove")
        assert is_valid_path(control, path)

    def test_unreachable_target_gives_none(self, bundled_doc):
        base = bundled_doc.coupled.control
        trimmed = build_behavior(
            base.states, base.initial, base.labels,
            [t for t in base.transitions if not (t.source == "Recognition" and t.target == "Done")],
            base.finals,
        )
        k = to_kripke(trimmed)
        assert witness(k, parse_ctl("EF at(Done)")) is None

    def test_ag_counterexample(self, control_kripke):
        path = witness(control_kripke, parse_ctl("AG !at(Recognition)"))
        assert path.states[-1] == "Recognition"
        for a, b in zip(path.states, path.states[1:]):
            assert (a, b) in control_kripke.relation

    def test_ag_holds_gives_none(self, control_kripke):
        assert witness(control_kripke, parse_ctl("AG true")) is None

    def test_unsupported_shape(self, control_kripke):
        f = parse_ctl("E [ true U at(Done) ]")
        assert type(f) not in WITNESSES
        assert witness(control_kripke, f) is None

    def test_degenerate_witness(self, control_kripke):
        path = witness(control_kripke, parse_ctl("EF at(NotActivated)"))
        assert path.states == ("NotActivated",)

    # A path shows EF g holding by ending in a g-state, and AG g failing by
    # ending in a !g state; there is one exactly when the verdict is shown.
    @settings(max_examples=120, deadline=None)
    @given(kripkes(), st.integers(min_value=0, max_value=100_000),
           st.sampled_from([(EF, "holds"), (AG, "fails")]))
    def test_witness_end_state_satisfies_target(self, k, seed, rule):
        operator, shown = rule
        target = random_formula(Random(seed), k.states, depth=2)
        f = operator(target)
        path = witness(k, f)
        verdict = "holds" if k.initial in check_explicit(k, f) else "fails"
        assert (path is not None) == (verdict == shown)
        if path is None:
            return
        assert path.states[0] == k.initial
        assert (path.states[-1] in check_explicit(k, target)) == (shown == "holds")
        for a, b in zip(path.states, path.states[1:]):
            assert (a, b) in k.relation


class TestVerdict:
    def test_both_engines_hold_at_the_initial_state(self, control_kripke):
        f = parse_ctl("EF at(Done)")
        assert control_kripke.initial in check_explicit(control_kripke, f)
        assert control_kripke.initial in check_symbolic(control_kripke, f)
