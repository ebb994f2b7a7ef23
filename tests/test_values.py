"""Value semantics of the immutable model types: equality, hashing, repr,
ordering, immutability, and pickle/copy round trips."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from avmkit.coupled import Approach, ApproachPartition, CoupledModel, MappingProcess
from avmkit.ctl import AtomicProposition, Atom, EU, Not, parse_ctl
from avmkit.dsl import ModelDocument, PropertySpec, _RawSpec
from avmkit.lts import Behavior, Path, Transition
from avmkit.report import CheckReport, Finding, SourcePos

from test_ctl import shape

# Every operator, both atom kinds and both constants.
EVERY_OPERATOR = ("!(at(A) & in(Detection)) | true -> false & EX at(A) & EF at(B) & "
                  "EG at(A) & AX at(B) & AF at(A) & AG at(B) & "
                  "E [ at(A) U at(B) ] & A [ at(A) U !at(B) ]")

VALUES = [
    (lambda: SourcePos(1, 2), "SourcePos(line=1, column=2)"),
    (lambda: Finding("error", "syntax-error", "m.avm", "bad", SourcePos(3, 4)),
     "Finding(severity='error', code='syntax-error', subject='m.avm', detail='bad', "
     "position=SourcePos(line=3, column=4))"),
    (lambda: CheckReport("mapping", (Finding("warning", "c", "s", "d"),)),
     "CheckReport(name='mapping', findings=(Finding(severity='warning', code='c', "
     "subject='s', detail='d', position=None),))"),
    (lambda: Transition("A", "go", "B"), "Transition(source='A', label='go', target='B')"),
    (lambda: Approach("Removal", frozenset({"C"}), frozenset()),
     "Approach(name='Removal', control_states=frozenset({'C'}), preventive_states=frozenset())"),
    (lambda: ApproachPartition((Approach("Detection", frozenset(), frozenset({"P"})),)),
     "ApproachPartition(approaches=(Approach(name='Detection', control_states=frozenset(), "
     "preventive_states=frozenset({'P'})),))"),
    (lambda: AtomicProposition("at", "A"), "AtomicProposition(kind='at', subject='A')"),
]


@pytest.mark.parametrize("make, text", VALUES)
def test_equal_values_compare_hash_and_print_alike(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == text


@pytest.mark.parametrize("make, text", VALUES)
def test_fields_cannot_be_assigned(make, text):
    value = make()
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


def test_unequal_values_differ():
    assert SourcePos(1, 2) != SourcePos(2, 1)
    assert Finding("error", "c", "s", "d") != Finding("error", "c", "s", "d", SourcePos(1, 1))
    assert Transition("A", "go", "B") != Transition("A", "go", "C")


def test_transitions_sort_by_source_label_target():
    ts = [Transition("B", "a", "A"), Transition("A", "b", "A"), Transition("A", "a", "Z"),
          Transition("A", "a", "B")]
    assert sorted(ts) == [Transition("A", "a", "B"), Transition("A", "a", "Z"),
                          Transition("A", "b", "A"), Transition("B", "a", "A")]
    assert Transition("A", "a", "B") < Transition("A", "b", "A")


def test_coupled_model_equality(bundled_doc):
    coupled = bundled_doc.coupled
    twin = CoupledModel(coupled.name, coupled.preventive, coupled.control, coupled.mapping,
                        coupled.approaches)
    assert twin == coupled and hash(twin) == hash(coupled) and repr(twin) == repr(coupled)
    assert repr(coupled).startswith("CoupledModel(name='antivirus', preventive=Behavior(")


def test_raw_spec_equality_and_repr():
    make = lambda: _RawSpec("p", SourcePos(1, 6), "control", None, "true", SourcePos(1, 20))
    assert make() == make()
    assert repr(make()) == ("_RawSpec(name='p', pos=SourcePos(line=1, column=6), "
                            "target='control', expected=None, formula_text='true', "
                            "formula_pos=SourcePos(line=1, column=20))")


class TestFormulaNodes:
    @pytest.mark.parametrize("text", ["!true", "at(A)", "!in(Removal)", "at(A) -> EX at(B)",
                                      "A [ at(A) U AG at(B) ]", EVERY_OPERATOR])
    def test_equal_hash_repr(self, text):
        a, b = parse_ctl(text), parse_ctl(text)
        assert a is not b and a == b and hash(a) == hash(b)
        assert repr(a) == f"parse_ctl({str(a)!r})"

    def test_nodes_built_alike_are_equal(self):
        prop = AtomicProposition("at", "A")
        assert EU(Atom(prop), Not(Atom(prop))) == parse_ctl("E [ at(A) U !at(A) ]")
        assert Atom(prop) != Not(Atom(prop))

    @pytest.mark.parametrize("text, field", [("true", "value"), ("at(A)", "prop"),
                                             ("!at(A)", "operand"), ("at(A) & at(B)", "left"),
                                             ("E [ at(A) U at(B) ]", "right")])
    def test_fields_are_frozen(self, text, field):
        node = parse_ctl(text)
        with pytest.raises(FrozenInstanceError):
            setattr(node, field, None)
        with pytest.raises(FrozenInstanceError):
            node.extra = 1
        assert str(node) == str(parse_ctl(text))


ROUND_TRIPS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle-protocol-0": lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_formula_round_trips(round_trip):
    formula = parse_ctl(EVERY_OPERATOR)
    again = round_trip(formula)
    assert again == formula
    assert shape(again) == shape(formula)


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_atomic_proposition_round_trips(round_trip):
    prop = AtomicProposition("in", "Removal")
    again = round_trip(prop)
    assert again == prop and hash(again) == hash(prop)
    assert (again.kind, again.subject) == ("in", "Removal")
    with pytest.raises(FrozenInstanceError):
        again.kind = "at"


def test_atomic_propositions_differ_by_kind_and_subject():
    assert AtomicProposition("at", "A") != AtomicProposition("in", "A")
    assert AtomicProposition("at", "A") != AtomicProposition("at", "B")
    assert AtomicProposition("at", "A") != ("at", "A")
    with pytest.raises(FrozenInstanceError):
        del AtomicProposition("at", "A").subject


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_document_round_trips(round_trip, bundled_doc):
    again = round_trip(bundled_doc)
    assert again == bundled_doc
    assert again.source_positions == bundled_doc.source_positions
    assert [p.position for p in again.properties] == [p.position for p in bundled_doc.properties]


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_source_positions_round_trip(round_trip, bundled_doc):
    positions = bundled_doc.source_positions
    placed = {state: positions[state] for state in positions}
    again = round_trip(positions)
    assert type(again) is type(positions)
    assert again == positions and again == placed and dict(again) == placed
    assert "NoSuchState" not in again and len(again) == len(placed)


# -- the hand-written records: Behavior, Path, MappingProcess, PropertySpec,
# ModelDocument. Their ==, hash and repr read the same fields a frozen
# dataclass of the same fields would.

BEHAVIOR_TEXT = ("Behavior(states=frozenset({'A'}), initial='A', labels=frozenset({'go'}), "
                 "transitions=(Transition(source='A', label='go', target='A'),), "
                 "finals=frozenset())")
PATH_TEXT = "Path(states=('A', 'B'), labels=('go',))"
MAPPING_TEXT = ("MappingProcess(entries=(('C', (Path(states=('A',), labels=()),)),), "
                "exempt=frozenset({'D'}))")
SPEC_TEXT = ("PropertySpec(name='p', target='control', formula=parse_ctl('EF at(A)'), "
             "expected='holds', position=SourcePos(line=3, column=1))")


def small_behavior(finals=frozenset()):
    return Behavior(frozenset({"A"}), "A", frozenset({"go"}), (Transition("A", "go", "A"),),
                    finals)


def small_mapping(exempt=frozenset({"D"})):
    return MappingProcess((("C", (Path(("A",)),)),), exempt)


def small_spec(expected="holds", position=SourcePos(3, 1)):
    return PropertySpec("p", "control", parse_ctl("EF at(A)"), expected, position)


def small_coupled():
    return CoupledModel("m", small_behavior(), small_behavior(), small_mapping(),
                        ApproachPartition(()))


def small_document(source_positions=None, properties=None):
    properties = (small_spec(),) if properties is None else properties
    positions = {"A": SourcePos(1, 1)} if source_positions is None else source_positions
    return ModelDocument(small_coupled(), properties, positions)


# (constructor, the field values in order, repr text)
RECORDS = {
    "Behavior": (small_behavior, ("states", "initial", "labels", "transitions", "finals"),
                 BEHAVIOR_TEXT),
    "Path": (lambda: Path(("A", "B"), ("go",)), ("states", "labels"), PATH_TEXT),
    "MappingProcess": (small_mapping, ("entries", "exempt"), MAPPING_TEXT),
    "PropertySpec": (small_spec, ("name", "target", "formula", "expected", "position"),
                     SPEC_TEXT),
    "ModelDocument": (small_document, ("coupled", "properties", "source_positions"),
                      f"ModelDocument(coupled={small_coupled()!r}, properties=({SPEC_TEXT},))"),
}

# One record per class next to one that differs from it in one compared field.
UNEQUAL = {
    "Behavior": (small_behavior(), small_behavior(frozenset({"A"}))),
    "Path": (Path(("A", "B"), ("go",)), Path(("A", "B"), ("stop",))),
    "MappingProcess": (small_mapping(), small_mapping(frozenset())),
    "PropertySpec": (small_spec(), small_spec(expected="fails")),
    "ModelDocument": (small_document(), small_document(properties=())),
}


def field_values(value, names):
    return tuple(getattr(value, name) for name in names)


class TestRecords:
    @pytest.mark.parametrize("make, names, text", RECORDS.values(), ids=RECORDS)
    def test_equal_hash_repr(self, make, names, text):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert repr(a) == text

    @pytest.mark.parametrize("make, names, text", RECORDS.values(), ids=RECORDS)
    def test_not_equal_to_a_tuple(self, make, names, text):
        value = make()
        fields = field_values(value, names)
        assert value != fields and not value == fields
        assert fields != value and not fields == value
        assert value != names and value != ()

    @pytest.mark.parametrize("a, b", UNEQUAL.values(), ids=UNEQUAL)
    def test_one_field_apart_is_unequal(self, a, b):
        assert a != b and not a == b
        assert b != a

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    @pytest.mark.parametrize("make, names, text", RECORDS.values(), ids=RECORDS)
    def test_round_trips(self, make, names, text, round_trip):
        value = make()
        again = round_trip(value)
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value)
        assert repr(again) == text
        assert field_values(again, names) == field_values(value, names)

    @pytest.mark.parametrize("make, names, text", RECORDS.values(), ids=RECORDS)
    def test_fields_are_frozen(self, make, names, text):
        value = make()
        for name in names:
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        with pytest.raises(FrozenInstanceError):
            value.extra = 1
        assert value == make() and repr(value) == text

    def test_defaults_and_keywords(self):
        behavior = Behavior(states=frozenset({"A"}), initial="A", labels=frozenset(),
                            transitions=())
        assert behavior.finals == frozenset()
        assert Path(("A",)).labels == ()
        assert MappingProcess(entries=()).exempt == frozenset()
        spec = PropertySpec(name="p", target="control", formula=parse_ctl("true"))
        assert (spec.expected, spec.position) == (None, None)
        first = ModelDocument(small_coupled(), ())
        second = ModelDocument(coupled=small_coupled(), properties=())
        assert first.source_positions == {} and first.source_positions is not \
            second.source_positions

    def test_path_takes_any_sequences(self):
        path = Path(["A", "B"], iter(["go"]))
        assert (path.states, path.labels) == (("A", "B"), ("go",))
        assert path == Path(("A", "B"), ("go",))

    @pytest.mark.parametrize("states, labels, message", [
        ((), (), "a path needs at least one state"),
        (("A", "B"), (), "a path over n states carries exactly n-1 labels"),
        (("A",), ("go",), "a path over n states carries exactly n-1 labels"),
        (("A", "B"), ("go", "stop"), "a path over n states carries exactly n-1 labels"),
    ])
    def test_path_checks_its_shape(self, states, labels, message):
        with pytest.raises(ValueError, match=message):
            Path(states, labels)

    def test_property_spec_equality_ignores_position(self):
        here, there = small_spec(position=SourcePos(3, 1)), small_spec(position=SourcePos(9, 9))
        assert here == there and hash(here) == hash(there)
        assert repr(here) != repr(there)
        assert small_spec(position=None) == here

    def test_document_equality_and_repr_ignore_source_positions(self):
        here = small_document({"A": SourcePos(1, 1)})
        there = small_document({"B": SourcePos(7, 2)})
        assert here == there and hash(here) == hash(there)
        assert repr(here) == repr(there)
        assert "source_positions" not in repr(here)

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    def test_cached_views_after_a_round_trip(self, round_trip, bundled_doc):
        control, mapping = bundled_doc.coupled.control, bundled_doc.coupled.mapping
        control.successor_map, mapping.mapped_states  # cached on the original first
        behavior, process = round_trip(control), round_trip(mapping)
        assert behavior.successor_map == control.successor_map
        assert behavior.transition_set == control.transition_set
        assert process.mapped_states == mapping.mapped_states
        state = min(mapping.mapped_states)
        assert process.paths_for(state) == mapping.paths_for(state)
        assert process.paths_for("NoSuchState") == ()
