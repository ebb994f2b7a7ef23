"""Value semantics of the immutable model types: equality, hashing, repr,
ordering, immutability, and pickle/copy round trips."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from avmkit.coupled import Approach, ApproachPartition, CoupledModel
from avmkit.ctl import AtomicProposition, Atom, EU, Not, parse_ctl
from avmkit.dsl import _RawSpec
from avmkit.lts import Transition
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
