"""Emitters: SMV program text for external cross-validation, and DOT graphs."""

from typing import Mapping

from . import ctl
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
    """One MODULE main over a single `state` enum variable.

    Successor sets use SMV set-choice syntax; dead-end states self-loop.
    Every state gets an `at_` DEFINE, every approach an `in_` disjunction,
    and every property targeting `target` becomes a SPEC line with atoms
    rewritten at(S) -> at_S and in(A) -> in_A.
    """
    behavior = doc.coupled.behavior(target)
    names = sorted(behavior.states)

    ident = {s: _sanitize(s) for s in names}
    by_sanitized: dict[str, str] = {}
    for s in names:
        clash = by_sanitized.get(ident[s])
        if clash is not None:
            raise NameCollisionError(
                f"states {clash} and {s} both sanitize to SMV identifier {ident[s]}"
            )
        by_sanitized[ident[s]] = s

    lines = ["MODULE main"]
    lines.append("VAR state : {" + ", ".join(ident[s] for s in names) + "};")
    lines.append("ASSIGN")
    lines.append(f"  init(state) := {ident[behavior.initial]};")
    lines.append("  next(state) := case")
    for s in names:
        succ = sorted({target_state for _, target_state in behavior.successor_map[s]})
        if not succ:
            succ = [s]  # totalized: dead ends self-loop
        lines.append(f"    state = {ident[s]} : {{" + ", ".join(ident[t] for t in succ) + "};")
    lines.append("  esac;")

    lines.append("DEFINE")
    for s in names:
        lines.append(f"  at_{ident[s]} := state = {ident[s]};")
    side_sets = doc.coupled.approaches.states_by_side(target)
    for approach_name in APPROACH_NAMES:
        members = sorted(side_sets.get(approach_name, frozenset()) & behavior.states)
        expr = " | ".join(f"state = {ident[m]}" for m in members) if members else "FALSE"
        lines.append(f"  in_{approach_name} := {expr};")

    def smv_atom(prop: ctl.AtomicProposition) -> str:
        if prop.kind == "at":
            return f"at_{ident[prop.subject]}"
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
