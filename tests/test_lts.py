from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avmkit.lts import (
    Behavior,
    Path,
    Transition,
    UnknownStateError,
    build_behavior,
    enumerate_simple_paths,
    find_deadlocks,
    integer_components,
)
from avmkit.report import ModelValidationError

from generators import (
    is_valid_path,
    naive_build_behavior,
    naive_simple_paths,
    random_behavior,
    reachable_states,
)


def behaviors(max_states=6):
    return st.integers(min_value=0, max_value=10_000).map(
        lambda seed: random_behavior(Random(seed), max_states)
    )


class TestBuildBehavior:
    def test_control_model_is_valid(self, control):
        assert control.initial == "NotActivated"
        assert len(control.states) == 7
        assert len(control.transitions) == 8

    def test_single_state_behavior(self):
        b = build_behavior({"A"}, "A", set(), [])
        assert b.states == frozenset({"A"})
        assert b.transitions == ()

    def test_unknown_target_state(self):
        with pytest.raises(ModelValidationError) as err:
            build_behavior({"A"}, "A", {"l"}, [("A", "l", "B")])
        codes = {(f.code, f.subject) for f in err.value.findings}
        assert ("unknown-state", "B") in codes

    def test_bad_initial(self):
        with pytest.raises(ModelValidationError) as err:
            build_behavior({"A"}, "X", set(), [])
        assert any(f.code == "bad-initial" and f.subject == "X" for f in err.value.findings)

    def test_duplicate_transition(self):
        with pytest.raises(ModelValidationError) as err:
            build_behavior({"A"}, "A", {"l"}, [("A", "l", "A"), ("A", "l", "A")])
        assert any(f.code == "duplicate-transition" for f in err.value.findings)

    def test_empty_state_set(self):
        with pytest.raises(ModelValidationError) as err:
            build_behavior(set(), "A", set(), [])
        assert any(f.code == "empty-state-set" for f in err.value.findings)

    def test_unknown_label(self):
        with pytest.raises(ModelValidationError) as err:
            build_behavior({"A"}, "A", set(), [("A", "l", "A")])
        assert any(f.code == "unknown-label" and f.subject == "l" for f in err.value.findings)

    def test_invalid_identifier(self):
        with pytest.raises(ModelValidationError) as err:
            build_behavior({"1bad"}, "1bad", set(), [])
        assert any(f.code == "invalid-identifier" for f in err.value.findings)

    def test_invalid_identifiers_in_name_order(self):
        with pytest.raises(ModelValidationError) as err:
            build_behavior({"1b", "A", "0a", "B_2"}, "A", {"9x", "ok"}, [])
        assert [f.subject for f in err.value.findings] == ["0a", "1b", "9x"]

    def test_generator_arguments_are_read_once(self):
        states, labels = ["A", "B"], ["l", "m"]
        transitions, finals = [("A", "l", "B"), ("B", "m", "A")], ["B"]
        built = build_behavior((s for s in states), "A", (l for l in labels),
                               (t for t in transitions), (f for f in finals))
        assert built == build_behavior(states, "A", labels, transitions, finals)
        assert built.transitions == (Transition("A", "l", "B"), Transition("B", "m", "A"))


# Declared names, some of them no identifiers, and names a transition may
# use without their being declared.
_STATES, _LABELS = ("A", "B", "C", "0a", "é"), ("a", "b", "9x", "ç")
_EXTRA = ("Z", "z")


def build_outcome(build, states, initial, labels, transitions, finals):
    """The behavior built, or the findings raised."""
    try:
        return build(states, initial, labels, transitions, finals)
    except ModelValidationError as exc:
        return list(exc.findings)


class TestBulkChecks:
    """What `build_behavior` builds or raises equals what the reference
    `naive_build_behavior` does, findings in the same order."""

    @settings(max_examples=400, deadline=None)
    @given(st.sets(st.sampled_from(_STATES), max_size=4),
           st.sampled_from(_STATES + _EXTRA),
           st.sets(st.sampled_from(_LABELS), max_size=3),
           st.lists(st.tuples(st.sampled_from(_STATES + _EXTRA),
                              st.sampled_from(_LABELS + _EXTRA),
                              st.sampled_from(_STATES + _EXTRA)), max_size=8),
           st.sets(st.sampled_from(_STATES + _EXTRA), max_size=3),
           st.booleans())
    @example({"A"}, "A", {"a"}, [("A", "a", "A"), ("A", "a", "Z")], set(), True)
    @example({"A"}, "A", {"a"}, [("A", "z", "A"), ("A", "a", "A")], set(), True)
    @example({"A"}, "A", {"a"}, [("A", "a", "A"), ("A", "a", "A")], set(), True)
    def test_findings_equal_the_per_item_reference(self, states, initial, labels,
                                                  transitions, finals, as_records):
        if as_records:  # records as well as plain tuples
            transitions = [Transition(*t) for t in transitions]
        assert build_outcome(build_behavior, states, initial, labels, transitions, finals) == \
            build_outcome(naive_build_behavior, states, initial, labels, transitions, finals)


class TestBehaviorIdentity:
    """A behavior keeps its transitions in the order given; its equality and
    hash are over their set. Any order of the same transitions gives an equal
    behavior with the same hash, one transition fewer or more an unequal
    behavior with another hash."""

    @settings(max_examples=100, deadline=None)
    @given(behaviors(), st.randoms(use_true_random=False))
    def test_order_kept_identity_over_the_set(self, behavior, rng):
        order = list(behavior.transitions)
        rng.shuffle(order)
        again = build_behavior(behavior.states, behavior.initial, behavior.labels, order,
                               behavior.finals)
        assert again.transitions == tuple(order)
        assert again == behavior and hash(again) == hash(behavior)
        states, labels = sorted(behavior.states), sorted(behavior.labels)
        extra = Transition(rng.choice(states), rng.choice(labels), rng.choice(states))
        changed = [order[:k] + order[k + 1:] for k in range(len(order))]
        if extra not in order:
            changed.append([*order, extra])
        for transitions in changed:
            other = Behavior(behavior.states, behavior.initial, behavior.labels,
                             tuple(transitions), behavior.finals)
            assert other != behavior and hash(other) != hash(behavior)


class TestPaths:
    def test_path_through_aborted_is_valid(self, control):
        p = Path(("NotActivated", "Activated", "Process", "Recognition", "Aborted", "End"),
                 ("activate", "start", "found", "ignore", "finish"))
        assert is_valid_path(control, p)

    def test_degenerate_path(self, control):
        assert is_valid_path(control, Path(("Process",)))

    def test_no_direct_edge(self, control):
        # no triple (NotActivated, *, Done) in the transition table
        for label in sorted(control.labels):
            assert not is_valid_path(control, Path(("NotActivated", "Done"), (label,)))

    def test_unknown_state_is_false_not_error(self, control):
        assert not is_valid_path(control, Path(("Nowhere",)))

    def test_label_count_invariant(self):
        with pytest.raises(ValueError):
            Path(("A", "B"), ())
        with pytest.raises(ValueError):
            Path((), ())


class TestSuccessors:
    def test_recognition_branches(self, control):
        assert control.successor_map["Recognition"] == (
            ("ignore", "Aborted"), ("remove", "Done"), ("rescan", "Process"),
        )

    def test_end_is_transition_free(self, control):
        # the bundled model declares End final instead of self-looping it
        assert control.successor_map["End"] == ()
        assert "End" in control.finals


class TestEnumerateSimplePaths:
    def test_single_path_to_done(self, control):
        paths = enumerate_simple_paths(control, "NotActivated", "Done")
        assert paths == [
            Path(("NotActivated", "Activated", "Process", "Recognition", "Done"),
                 ("activate", "start", "found", "remove"))
        ]

    def test_two_paths_to_end(self, control):
        paths = enumerate_simple_paths(control, "NotActivated", "End")
        assert len(paths) == 2
        # lexicographic by label sequence: ignore < remove
        assert paths[0].states[4] == "Aborted"
        assert paths[1].states[4] == "Done"

    def test_from_equals_to(self, control):
        assert enumerate_simple_paths(control, "Process", "Process") == [Path(("Process",))]

    def test_unknown_endpoint(self, control):
        with pytest.raises(UnknownStateError):
            enumerate_simple_paths(control, "NotActivated", "Nope")

    @settings(max_examples=60, deadline=None)
    @given(behaviors(), st.randoms(use_true_random=False))
    def test_matches_naive_oracle(self, behavior, rng):
        states = sorted(behavior.states)
        source = rng.choice(states)
        target = rng.choice(states)
        got = enumerate_simple_paths(behavior, source, target)
        assert len(got) == len(set(got))
        assert set(got) == naive_simple_paths(behavior, source, target)

    @settings(max_examples=60, deadline=None)
    @given(behaviors(), st.randoms(use_true_random=False))
    def test_results_are_valid_simple_and_ordered(self, behavior, rng):
        states = sorted(behavior.states)
        source = rng.choice(states)
        target = rng.choice(states)
        paths = enumerate_simple_paths(behavior, source, target)
        for p in paths:
            assert is_valid_path(behavior, p)
            assert len(set(p.states)) == len(p.states)
        keys = [(p.labels, p.states) for p in paths]
        assert keys == sorted(keys)


class TestReachability:
    def test_bundled_control_fully_reachable(self, control):
        assert reachable_states(control) == control.states

    def test_isolated_state_excluded(self):
        b = build_behavior({"A", "B", "X"}, "A", {"l"}, [("A", "l", "B")])
        assert reachable_states(b) == frozenset({"A", "B"})

    def test_single_state(self):
        b = build_behavior({"A"}, "A", set(), [])
        assert reachable_states(b) == frozenset({"A"})

    @settings(max_examples=60, deadline=None)
    @given(behaviors(), st.randoms(use_true_random=False))
    def test_monotone_under_added_transition(self, behavior, rng):
        states = sorted(behavior.states)
        extra = Transition(rng.choice(states), "z", rng.choice(states))
        bigger = build_behavior(
            behavior.states, behavior.initial, behavior.labels | {"z"},
            set(behavior.transitions) | {extra}, behavior.finals,
        )
        assert reachable_states(behavior) <= reachable_states(bigger)

    @settings(max_examples=60, deadline=None)
    @given(behaviors())
    def test_valid_initial_path_stays_reachable(self, behavior):
        reachable = reachable_states(behavior)
        for target in sorted(behavior.states):
            for p in enumerate_simple_paths(behavior, behavior.initial, target):
                assert set(p.states) <= reachable


@st.composite
def int_graphs(draw):
    """Successor lists over vertices 0..n-1, with self-loops, repeated
    successors and dead ends, and roots, repeated or not, reaching any part."""
    n = draw(st.integers(min_value=1, max_value=9))
    vertex = st.integers(min_value=0, max_value=n - 1)
    successors = draw(st.lists(st.lists(vertex, max_size=4), min_size=n, max_size=n))
    return successors, draw(st.lists(vertex, max_size=n))


class TestIntegerComponents:
    """The integer core against reachability computed here, by search."""

    @staticmethod
    def reach(successors, v):
        seen, todo = {v}, [v]
        while todo:
            for w in successors[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    @settings(max_examples=300, deadline=None)
    @given(int_graphs())
    def test_matches_mutual_reachability_sinks_first(self, graph):
        successors, roots = graph
        components, component_of = integer_components(successors, roots)
        reach = [self.reach(successors, v) for v in range(len(successors))]
        covered = set().union(*(reach[r] for r in roots))
        assert sorted(v for c in components for v in c) == sorted(covered)
        for v in range(len(successors)):
            position = next((i for i, c in enumerate(components) if v in c), -1)
            assert component_of[v] == position
        for a in covered:
            for b in reach[a]:
                assert (component_of[a] == component_of[b]) == (a in reach[b])
                assert component_of[b] <= component_of[a]

    def test_long_chain_needs_no_recursion_and_lists_sinks_first(self):
        n = 5000
        components, component_of = integer_components(
            [[v + 1] for v in range(n - 1)] + [[]], range(n))
        assert components == [[v] for v in reversed(range(n))]
        assert component_of == list(reversed(range(n)))

    def test_long_ring_needs_no_recursion(self):
        n = 100_000
        components, component_of = integer_components(
            [[(v + 1) % n] for v in range(n)], [0])
        assert components == [list(range(n))] and set(component_of) == {0}


class TestDeadlocks:
    def test_bundled_models_deadlock_free(self, control, preventive):
        assert find_deadlocks(control) == frozenset()
        assert find_deadlocks(preventive) == frozenset()

    def test_chain_without_final(self):
        b = build_behavior({"A", "B"}, "A", {"l"}, [("A", "l", "B")])
        assert find_deadlocks(b) == frozenset({"B"})

    def test_chain_with_final(self):
        b = build_behavior({"A", "B"}, "A", {"l"}, [("A", "l", "B")], finals={"B"})
        assert find_deadlocks(b) == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(behaviors())
    def test_never_reports_finals(self, behavior):
        assert find_deadlocks(behavior) & behavior.finals == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(behaviors(max_states=8))
    def test_matches_reachable_dead_ends(self, behavior):
        assert find_deadlocks(behavior) == frozenset(
            s for s in reachable_states(behavior)
            if not behavior.successor_map[s] and s not in behavior.finals)
