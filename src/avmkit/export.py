"""Emitters: SMV program text for external cross-validation, and DOT graphs."""

from typing import Mapping

from . import ctl
from .checker import to_kripke
from .coupled import APPROACH_NAMES
from .dsl import ModelDocument
from .lts import Behavior


class NameCollisionError(ValueError):
    """Two model names collide after SMV identifier sanitization."""


# NuSMV keywords plus the variable name this exporter reserves for itself.
_SMV_RESERVED = frozenset("""
MODULE DEFINE MDEFINE CONSTANTS VAR IVAR FROZENVAR INIT TRANS INVAR SPEC
CTLSPEC LTLSPEC PSLSPEC COMPUTE NAME INVARSPEC FAIRNESS JUSTICE COMPASSION
ISA ASSIGN CONSTRAINT SIMPWFF CTLWFF LTLWFF PSLWFF COMPWFF IN MIN MAX MIRROR
PRED PREDICATES process array of boolean integer real word word1 signed
unsigned extend resize sizeof uwconst swconst EX AX EF AF EG AG E F O G H X Y
Z A U S V T BU EBF ABF EBG ABG case esac mod next init union in xor xnor self
TRUE FALSE count abs max min bool toint
state
""".split())


def _sanitize(name: str) -> str:
    while name in _SMV_RESERVED:
        name += "_"
    return name


def to_smv(doc: ModelDocument, target: str) -> str:
    """One MODULE main over a single `state` enum variable, rendered from
    the int index of `checker.to_kripke`'s structure of the target behavior:
    states in their sorted numbering, successors from `succ`, approach
    members from `members`.

    Successor sets use SMV set-choice syntax and are the structure's
    successors, so dead ends carry its self-loops. Every state gets an `at_`
    DEFINE, every approach an `in_` disjunction of the states it labels, and
    every property targeting `target` becomes a SPEC line with atoms
    rewritten at(S) -> at_S and in(A) -> in_A.
    """
    k = to_kripke(doc.coupled.behavior(target), doc.coupled.approaches.states_by_side(target))

    ident = [_sanitize(s) for s in k.states]  # by state number
    defines = {f"at_{i}" for i in ident} | {f"in_{a}" for a in APPROACH_NAMES}
    by_sanitized: dict[str, str] = {}
    for s, name in zip(k.states, ident):
        clash = by_sanitized.get(name)
        if clash is not None:
            raise NameCollisionError(
                f"states {clash} and {s} both sanitize to SMV identifier {name}"
            )
        if name in defines:
            raise NameCollisionError(
                f"state {s} exports as SMV identifier {name}, which is also a DEFINE name"
            )
        by_sanitized[name] = s

    lines = ["MODULE main"]
    lines.append("VAR state : {" + ", ".join(ident) + "};")
    lines.append("ASSIGN")
    lines.append(f"  init(state) := {ident[k.index[k.initial]]};")
    lines.append("  next(state) := case")
    for i, targets in enumerate(k.succ):
        lines.append(f"    state = {ident[i]} : {{" + ", ".join(ident[j] for j in targets) + "};")
    lines.append("  esac;")

    lines.append("DEFINE")
    for name in ident:
        lines.append(f"  at_{name} := state = {name};")
    for approach_name in APPROACH_NAMES:
        members = k.members(ctl.AtomicProposition("in", approach_name))
        expr = " | ".join(f"state = {ident[i]}" for i in members) if members else "FALSE"
        lines.append(f"  in_{approach_name} := {expr};")

    def smv_atom(prop: ctl.AtomicProposition) -> str:
        if prop.kind == "at":
            return f"at_{ident[k.index[prop.subject]]}"
        return f"in_{prop.subject}"

    for prop in doc.properties:
        if prop.target != target:
            continue
        text = ctl.render(prop.formula, atom_text=smv_atom,
                          true_text="TRUE", false_text="FALSE")
        lines.append(f"SPEC {text}")
    return "\n".join(lines) + "\n"


def to_dot(behavior: Behavior, approaches: Mapping[str, frozenset[str]] | None = None,
           name: str = "behavior") -> str:
    """One digraph: initial state marked by an entry arrow, finals
    double-circled, edges carrying their transition labels, and approaches
    rendered as clusters when given, as this behavior's side of
    `ApproachPartition.states_by_side`."""
    approaches = approaches or {}
    cluster_of: dict[str, str] = {}
    for approach_name in sorted(approaches):
        for state in approaches[approach_name] & behavior.states:
            cluster_of.setdefault(state, approach_name)

    marker = "__start__"
    while marker in behavior.states:
        marker += "_"

    def node_line(state: str) -> str:
        shape = "doublecircle" if state in behavior.finals else "circle"
        return f'"{state}" [shape={shape}];'

    lines = [f'digraph "{name}" {{', "  rankdir=LR;", f'  "{marker}" [shape=point, label=""];']
    clustered = sorted(cluster_of)
    for approach_name in sorted(set(cluster_of.values())):
        lines.append(f"  subgraph cluster_{approach_name} {{")
        lines.append(f'    label="{approach_name}";')
        for state in clustered:
            if cluster_of[state] == approach_name:
                lines.append("    " + node_line(state))
        lines.append("  }")
    for state in sorted(behavior.states):
        if state not in cluster_of:
            lines.append("  " + node_line(state))
    lines.append(f'  "{marker}" -> "{behavior.initial}";')
    for t in sorted(behavior.transitions):
        lines.append(f'  "{t.source}" -> "{t.target}" [label="{t.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
