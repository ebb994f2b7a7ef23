"""A strict reader for the SMV subset `avmkit.export.to_smv` writes, kept as a
test oracle: it rebuilds the Kripke structure and the SPEC formulas from the
exported text alone.

The subset, line by line:

    MODULE main
    VAR state : {s, ...};
    ASSIGN
      init(state) := s;
      next(state) := case
        state = s : {t, ...};          one row per state
      esac;
    DEFINE
      at_s := state = s;               one per state
      in_A := state = s | ...;         or FALSE; one per approach
    SPEC <CTL formula over DEFINE names, TRUE and FALSE>

Any other line, an identifier declared twice (as an enum value or a DEFINE
name), or a name used before or without its declaration is a `SmvReadError`.
"""

import re

from avmkit.checker import KripkeStructure
from avmkit.coupled import APPROACH_NAMES
from avmkit.ctl import AtomicProposition, CtlFormula, parse_ctl

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_IDS = rf"{_ID}(?:, {_ID})*"
_VAR = re.compile(rf"VAR state : \{{({_IDS})\}};")
_INIT = re.compile(rf"  init\(state\) := ({_ID});")
_ROW = re.compile(rf"    state = ({_ID}) : \{{({_IDS})\}};")
_DEFINE = re.compile(rf"  ({_ID}) := (FALSE|state = {_ID}(?: \| state = {_ID})*);")
_WORD = re.compile(_ID)
_CTL_WORDS = frozenset("EX AX EF AF EG AG E A U".split())
# Words of the subset itself; none may name a state or a DEFINE.
_KEYWORDS = _CTL_WORDS | frozenset(
    "MODULE main VAR ASSIGN DEFINE SPEC init next case esac state TRUE FALSE".split()
)


class SmvReadError(ValueError):
    """The text leaves the subset `to_smv` writes."""


def _fixed(lines: list[str], i: int, expected: str) -> int:
    if i >= len(lines) or lines[i] != expected:
        found = lines[i] if i < len(lines) else "end of text"
        raise SmvReadError(f"line {i + 1}: expected {expected!r}, found {found!r}")
    return i + 1


def _match(pattern: re.Pattern, lines: list[str], i: int) -> re.Match:
    line = lines[i] if i < len(lines) else ""
    match = pattern.fullmatch(line)
    if match is None:
        raise SmvReadError(f"line {i + 1}: unrecognized: {line!r}")
    return match


def _declare(declared: set[str], name: str, what: str) -> None:
    if name in _KEYWORDS:
        raise SmvReadError(f"{what} {name} is a keyword")
    if name in declared:
        raise SmvReadError(f"{what} {name} is declared twice")
    declared.add(name)


def read_smv(text: str) -> tuple[KripkeStructure, list[CtlFormula]]:
    """The structure and the SPEC formulas of one exported module. Each SPEC
    identifier resolves through its DEFINE back to at(...) or in(...)."""
    if not text.endswith("\n"):
        raise SmvReadError("text does not end with a newline")
    lines = text[:-1].split("\n")
    declared: set[str] = set()

    i = _fixed(lines, 0, "MODULE main")
    states = _match(_VAR, lines, i).group(1).split(", ")
    for s in states:
        _declare(declared, s, "state")
    i = _fixed(lines, i + 1, "ASSIGN")
    initial = _match(_INIT, lines, i).group(1)
    i = _fixed(lines, i + 1, "  next(state) := case")

    def known(s: str) -> str:
        if s not in states:
            raise SmvReadError(f"{s} is not a state")
        return s

    successors: dict[str, list[str]] = {}
    while i < len(lines) and lines[i] != "  esac;":
        row = _match(_ROW, lines, i)
        source = known(row.group(1))
        if source in successors:
            raise SmvReadError(f"state {source} has two next rows")
        successors[source] = [known(t) for t in row.group(2).split(", ")]
        i += 1
    i = _fixed(lines, i, "  esac;")
    if set(successors) != set(states):
        raise SmvReadError(f"no next row for: {sorted(set(states) - set(successors))}")

    i = _fixed(lines, i, "DEFINE")
    atoms: dict[str, AtomicProposition] = {}
    members: dict[str, frozenset[str]] = {}
    while i < len(lines) and not lines[i].startswith("SPEC "):
        define = _match(_DEFINE, lines, i)
        name, expr = define.groups()
        _declare(declared, name, "DEFINE")
        parts = [] if expr == "FALSE" else expr.split(" | ")
        members[name] = frozenset(known(part[len("state = "):]) for part in parts)
        if name.startswith("at_") and expr == f"state = {name[3:]}":
            atoms[name] = AtomicProposition("at", name[3:])
        elif name.startswith("in_") and name[3:] in APPROACH_NAMES:
            atoms[name] = AtomicProposition("in", name[3:])
        else:
            raise SmvReadError(f"line {i + 1}: {name} is neither at_<state> nor in_<approach>")
        i += 1
    missing = [s for s in states if f"at_{s}" not in atoms]
    if missing:
        raise SmvReadError(f"no at_ DEFINE for: {missing}")

    def atom_text(match: re.Match) -> str:
        word = match.group(0)
        if word in ("TRUE", "FALSE"):
            return word.lower()
        if word in atoms:
            return str(atoms[word])
        if word in _CTL_WORDS:
            return word
        raise SmvReadError(f"SPEC names undeclared identifier {word}")

    formulas = []
    for line in lines[i:]:
        if not line.startswith("SPEC "):
            raise SmvReadError(f"unrecognized line after the SPECs: {line!r}")
        formulas.append(parse_ctl(_WORD.sub(atom_text, line[len("SPEC "):])))

    labeling = {s: frozenset({atoms[f"at_{s}"]}) for s in states}
    for name, atom in atoms.items():
        if atom.kind == "in":
            for s in members[name]:
                labeling[s] |= {atom}
    structure = KripkeStructure(
        states=tuple(states),
        initial=known(initial),
        relation=frozenset((s, t) for s, ts in successors.items() for t in ts),
        labeling=labeling,
    )
    return structure, formulas
