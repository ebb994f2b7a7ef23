"""The SMV export read back by `smv_reader`: the structure it describes is
`to_kripke`'s, up to the export's renaming of states, and every SPEC gets
`avm check`'s verdict."""

import json
from random import Random

import pytest

from avmkit import cli
from avmkit.checker import KripkeStructure, check_explicit, to_kripke
from avmkit.coupled import APPROACH_NAMES, approach_partition
from avmkit.ctl import Atom, AtomicProposition, fold
from avmkit.dsl import ModelDocument, ModelSyntaxError, PropertySpec, parse_model
from avmkit.export import _sanitize, to_smv
from avmkit.lts import build_behavior
from avmkit.report import ModelValidationError

from conftest import CORPUS_DIR, MODEL_FILE
from generators import random_coupled_model, random_formula
from smv_reader import SmvReadError, read_smv

TARGETS = ("control", "preventive")


def _parses(path) -> bool:
    try:
        parse_model(path.read_text(encoding="utf-8"))
    except (ModelSyntaxError, ModelValidationError):
        return False
    return True


DOCUMENTS = [MODEL_FILE] + [p for p in sorted(CORPUS_DIR.glob("*.avm")) if _parses(p)]


def _exported_atom(prop: AtomicProposition) -> AtomicProposition:
    return AtomicProposition("at", _sanitize(prop.subject)) if prop.kind == "at" else prop


def _exported_formula(formula):
    return fold(formula, lambda node, kids: (
        Atom(_exported_atom(node.prop)) if isinstance(node, Atom)
        else type(node)(*kids) if kids else node))


def _shape(k: KripkeStructure):
    return k.states, k.initial, k.relation, k.labeling


def _exported_shape(k: KripkeStructure):
    """`_shape(k)` with every state renamed to its SMV identifier."""
    return (tuple(sorted(map(_sanitize, k.states))), _sanitize(k.initial),
            frozenset((_sanitize(s), _sanitize(t)) for s, t in k.relation),
            {_sanitize(s): frozenset(map(_exported_atom, props)) for s, props in k.labeling.items()})


def assert_round_trip(doc: ModelDocument, target: str, verdicts: dict[str, str], where: str):
    """The export of `target` reads back as its Kripke structure, and each
    SPEC as its property, with the verdict `verdicts` gives by name."""
    k = to_kripke(doc.coupled.behavior(target), doc.coupled.approaches.states_by_side(target))
    rebuilt, formulas = read_smv(to_smv(doc, target))
    assert _shape(rebuilt) == _exported_shape(k), where
    props = [p for p in doc.properties if p.target == target]
    assert formulas == [_exported_formula(p.formula) for p in props], where
    for prop, formula in zip(props, formulas):
        verdict = "holds" if rebuilt.initial in check_explicit(rebuilt, formula) else "fails"
        assert verdict == verdicts[prop.name], f"{where}: {prop.name}"


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.name)
def test_documents_round_trip(path, capsys):
    doc = parse_model(path.read_text(encoding="utf-8"), name=path.stem)
    capsys.readouterr()
    cli.main(["--format", "structured", "check", str(path)])
    results = json.loads(capsys.readouterr().out)["properties"]
    verdicts = {r["name"]: r["verdict"] for r in results}
    assert len(verdicts) == len(doc.properties)
    for target in TARGETS:
        assert_round_trip(doc, target, verdicts, f"{path.name}, {target}")


def _renamed(behavior, names: dict[str, str]):
    def rename(s):
        return names.get(s, s)

    return build_behavior(
        [rename(s) for s in behavior.states], rename(behavior.initial), behavior.labels,
        [(rename(t.source), t.label, rename(t.target)) for t in behavior.transitions],
        [rename(s) for s in behavior.finals])


def random_document(rng: Random) -> ModelDocument:
    """A seeded coupled model with some states renamed to SMV keywords, random
    approach members (a few from the other side, which label nothing) and
    random properties on both targets. The export reads neither the mapping
    nor the finals."""
    model = random_coupled_model(rng, acyclic=rng.random() < 0.5)
    sides = {}
    for target in TARGETS:
        behavior = model.behavior(target)
        chosen = rng.sample(sorted(behavior.states), rng.randint(0, 2))
        keywords = rng.sample(("A", "U", "case", "state"), len(chosen))
        sides[target] = _renamed(behavior, dict(zip(chosen, keywords)))

    def members(own, other):
        return (rng.sample(sorted(own.states), rng.randint(0, min(3, len(own.states))))
                + rng.sample(sorted(other.states), rng.randint(0, 1)))

    control, preventive = sides["control"], sides["preventive"]
    approaches = approach_partition({
        name: (members(control, preventive), members(preventive, control))
        for name in APPROACH_NAMES if rng.random() < 0.7
    })
    properties = tuple(
        PropertySpec(f"{target}_{i}", target, random_formula(rng, sides[target].states, depth=3))
        for target in TARGETS for i in range(rng.randint(1, 3))
    )
    coupled = model._replace(preventive=preventive, control=control, approaches=approaches)
    return ModelDocument(coupled=coupled, properties=properties)


def test_random_models_round_trip():
    for seed in range(200):
        doc = random_document(Random(seed))
        for target in TARGETS:
            k = to_kripke(doc.coupled.behavior(target),
                          doc.coupled.approaches.states_by_side(target))
            verdicts = {p.name: "holds" if k.initial in check_explicit(k, p.formula) else "fails"
                        for p in doc.properties if p.target == target}
            assert_round_trip(doc, target, verdicts, f"seed {seed}, {target}")


# The exports of a control side with states Foo and at_Foo, and of one with
# Foo and in_Protection, before `to_smv` refused them: each declares one
# identifier both as a state and as a DEFINE.
_DUPLICATE_AT = """MODULE main
VAR state : {Foo, at_Foo};
ASSIGN
  init(state) := Foo;
  next(state) := case
    state = Foo : {Foo};
    state = at_Foo : {at_Foo};
  esac;
DEFINE
  at_Foo := state = Foo;
  at_at_Foo := state = at_Foo;
  in_Protection := FALSE;
  in_Detection := FALSE;
  in_Identification := FALSE;
  in_Removal := FALSE;
"""
_DUPLICATE_IN = """MODULE main
VAR state : {Foo, in_Protection};
ASSIGN
  init(state) := Foo;
  next(state) := case
    state = Foo : {Foo};
    state = in_Protection : {in_Protection};
  esac;
DEFINE
  at_Foo := state = Foo;
  at_in_Protection := state = in_Protection;
  in_Protection := FALSE;
  in_Detection := FALSE;
  in_Identification := FALSE;
  in_Removal := FALSE;
"""


class TestReaderIsStrict:
    @pytest.mark.parametrize("text", [_DUPLICATE_AT, _DUPLICATE_IN], ids=["at", "in"])
    def test_identifier_declared_twice(self, text):
        with pytest.raises(SmvReadError, match="declared twice"):
            read_smv(text)

    @pytest.mark.parametrize("edit", [
        ("    state = End : {End};\n", "    state = End : {};\n"),
        ("  esac;\n", "  esac;\nINVAR TRUE;\n"),
        ("MODULE main\n", "MODULE main\n\n"),
        ("  in_Removal := state = Done;\n", "  in_Removal := state = Done;\nSPEC EF at_Nope\n"),
        ("  at_Done := state = Done;\n", "  at_Done := state = End;\n"),
    ], ids=["dead-end", "unknown-line", "blank-line", "undeclared-spec-name", "at-elsewhere"])
    def test_rejects(self, bundled_doc, edit):
        text = to_smv(ModelDocument(bundled_doc.coupled, ()), "control")
        read_smv(text)
        assert edit[0] in text
        with pytest.raises(SmvReadError):
            read_smv(text.replace(*edit))
