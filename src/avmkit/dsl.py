"""Textual format for coupled models and property suites.

A document is a sequence of statements:

    behavior (preventive|control) { initial ID  [final ID+]  [state ID]*  edges* }
    edge:        ID - ID -> ID              (source - label -> target)
    approach NAME { control: ID*  preventive: ID* }
    map ID => pathExpr[, pathExpr]*         (pathExpr: ID [- ID -> ID]*)
    exempt ID
    spec NAME on (control|preventive) [expect (holds|fails)]: <ctl formula to end of line>

Comments run from ``#`` to end of line. Edge endpoints and labels declare
themselves; ``state`` lines are only needed for otherwise unmentioned states.

The document is read with the lexer the CTL grammar uses (`ctl.Lexer`), with
the marks ``-> => { } : , -`` and ``#`` comments, scanning as it parses. A
spec's formula is taken raw to end of line, minus any comment, and handed to
`parse_ctl`, so an error in it is a ``ctl-syntax`` finding.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from . import ctl
from .coupled import (
    CoupledModel,
    approach_partition,
    coupled_diagnostics,
    mapping_process,
    unresolved_atoms,
)
from .ctl import CtlFormula, CtlSyntaxError, Lexer, Token, parse_ctl
from .lts import Behavior, Path, build_behavior
from .report import Finding, ModelValidationError, SourcePos, sort_findings

_DOC_MARKS = ("->", "=>", "{", "}", ":", ",", "-")


class ModelSyntaxError(ValueError):
    """Document text failed to parse; carries the offending position, and
    `detail`, the text without it."""

    def __init__(self, message: str, position: SourcePos):
        self.position = position
        self.detail = message
        super().__init__(f"{message} at {position}")


def _syntax_error(message: str, line: int, column: int, expected) -> ModelSyntaxError:
    """The lexer's error factory; document errors list no expected tokens."""
    return ModelSyntaxError(message, SourcePos(line, column))


@dataclass(frozen=True)
class PropertySpec:
    """One named CTL property targeting the control or preventive behavior."""

    name: str
    target: str
    formula: CtlFormula
    expected: str | None = None
    position: SourcePos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ModelDocument:
    coupled: CoupledModel
    properties: tuple[PropertySpec, ...]
    # Subject name -> source position, so reports on the built model can point
    # back into the text. Not part of document identity.
    source_positions: dict[str, SourcePos] = field(
        default_factory=dict, compare=False, repr=False
    )


# -- raw statement collection ----------------------------------------------------


@dataclass
class _RawBehavior:
    kind: str
    pos: SourcePos
    initial: tuple[str, SourcePos] | None = None
    finals: list[tuple[str, SourcePos]] = field(default_factory=list)
    decls: list[tuple[str, SourcePos]] = field(default_factory=list)
    edges: list[tuple[str, str, str, SourcePos]] = field(default_factory=list)


class _RawMap(NamedTuple):
    key: str
    pos: SourcePos
    paths: list[tuple[Path, tuple[SourcePos, ...]]]  # each path with its states' positions


class _RawApproach(NamedTuple):
    name: str
    pos: SourcePos
    sides: dict[str, list[tuple[str, SourcePos]]]


class _RawSpec(NamedTuple):
    name: str
    pos: SourcePos
    target: str
    expected: str | None
    formula_text: str
    formula_pos: SourcePos


class _DocParser:
    def __init__(self, text: str):
        self.lx = Lexer(text, _DOC_MARKS, _syntax_error, comments=True)
        self.behaviors: dict[str, _RawBehavior] = {}
        self.maps: list[_RawMap] = []
        self.approaches: list[_RawApproach] = []
        self.exempts: list[tuple[str, SourcePos]] = []
        self.specs: list[_RawSpec] = []
        self.findings: list[Finding] = []

    def pos(self, tok: Token) -> SourcePos:
        return SourcePos(*self.lx.position(tok.offset))

    def parse(self) -> None:
        while True:
            tok = self.lx.peek()
            if tok.kind == "eof":
                return
            if tok.kind != "ident":
                self.lx.fail("expected 'behavior', 'approach', 'map', 'exempt', or 'spec'", tok)
            if tok.value == "behavior":
                self._behavior()
            elif tok.value == "approach":
                self._approach()
            elif tok.value == "map":
                self._map()
            elif tok.value == "exempt":
                self._exempt()
            elif tok.value == "spec":
                self._spec()
            else:
                self.lx.fail("expected 'behavior', 'approach', 'map', 'exempt', or 'spec'", tok)

    def _behavior(self) -> None:
        head = self.lx.take()
        kind_tok = self.lx.expect_ident("'preventive' or 'control'")
        if kind_tok.value not in ("preventive", "control"):
            self.lx.fail("expected 'preventive' or 'control'", kind_tok)
        self.lx.expect_punct("{")
        raw = _RawBehavior(kind=kind_tok.value, pos=self.pos(head))
        while not self.lx.accept("}"):
            tok = self.lx.peek()
            if tok.kind == "eof":
                self.lx.fail("unclosed behavior block; expected '}'", tok)
            if tok.kind != "ident":
                self.lx.fail("expected a state declaration or an edge", tok)
            after = self.lx.peek(1)
            is_edge_start = after.kind == "punct" and after.value == "-"
            if tok.value in ("initial", "final", "state") and not is_edge_start:
                self.lx.take()
                if tok.value == "initial":
                    name = self.lx.expect_ident("a state name")
                    if raw.initial is not None:
                        self.findings.append(
                            Finding("error", "duplicate-initial", name.value,
                                    "behavior block declares more than one initial state",
                                    self.pos(name))
                        )
                    else:
                        raw.initial = (name.value, self.pos(name))
                elif tok.value == "final":
                    taken = 0
                    while True:
                        candidate = self.lx.peek()
                        if candidate.kind != "ident":
                            break
                        lookahead = self.lx.peek(1)
                        if lookahead.kind == "punct" and lookahead.value == "-":
                            break  # next thing is an edge
                        if candidate.value in ("initial", "final", "state"):
                            break
                        self.lx.take()
                        raw.finals.append((candidate.value, self.pos(candidate)))
                        taken += 1
                    if taken == 0:
                        self.lx.fail("expected at least one state name after 'final'",
                                     self.lx.peek())
                else:
                    name = self.lx.expect_ident("a state name")
                    raw.decls.append((name.value, self.pos(name)))
            else:
                src = self.lx.take()
                self.lx.expect_punct("-")
                label = self.lx.expect_ident("a transition label")
                self.lx.expect_punct("->")
                target = self.lx.expect_ident("a target state")
                raw.edges.append((src.value, label.value, target.value, self.pos(src)))
        if raw.kind in self.behaviors:
            self.findings.append(
                Finding("error", "duplicate-behavior", raw.kind,
                        f"more than one {raw.kind} behavior block", raw.pos)
            )
        else:
            self.behaviors[raw.kind] = raw

    def _approach(self) -> None:
        self.lx.take()
        name = self.lx.expect_ident("an approach name")
        raw = _RawApproach(name.value, self.pos(name), {})
        self.lx.expect_punct("{")
        while not self.lx.accept("}"):
            tok = self.lx.peek()
            if tok.kind == "eof":
                self.lx.fail("unclosed approach block; expected '}'", tok)
            after = self.lx.peek(1)
            if (tok.kind == "ident" and tok.value in ("control", "preventive")
                    and after.kind == "punct" and after.value == ":"):
                self.lx.take()
                self.lx.take()
                if tok.value in raw.sides:
                    self.findings.append(
                        Finding("error", "duplicate-approach-section", tok.value,
                                f"approach {raw.name} repeats its '{tok.value}:' section",
                                self.pos(tok))
                    )
                members = raw.sides.setdefault(tok.value, [])
                while True:
                    member = self.lx.peek()
                    if member.kind != "ident":
                        break
                    lookahead = self.lx.peek(1)
                    if (member.value in ("control", "preventive")
                            and lookahead.kind == "punct" and lookahead.value == ":"):
                        break
                    self.lx.take()
                    members.append((member.value, self.pos(member)))
            else:
                self.lx.fail("expected 'control:', 'preventive:', or '}'", tok)
        self.approaches.append(raw)

    def _path_expr(self) -> tuple[Path, tuple[SourcePos, ...]]:
        first = self.lx.expect_ident("a preventive state name")
        states = [first.value]
        positions = [self.pos(first)]
        labels: list[str] = []
        while self.lx.accept("-"):
            labels.append(self.lx.expect_ident("a transition label").value)
            self.lx.expect_punct("->")
            target = self.lx.expect_ident("a target state")
            states.append(target.value)
            positions.append(self.pos(target))
        return Path(tuple(states), tuple(labels)), tuple(positions)

    def _map(self) -> None:
        self.lx.take()
        key = self.lx.expect_ident("a control state name")
        self.lx.expect_punct("=>")
        paths = [self._path_expr()]
        while self.lx.accept(","):
            paths.append(self._path_expr())
        self.maps.append(_RawMap(key.value, self.pos(key), paths))

    def _exempt(self) -> None:
        self.lx.take()
        name = self.lx.expect_ident("a control state name")
        self.exempts.append((name.value, self.pos(name)))

    def _spec(self) -> None:
        self.lx.take()
        name = self.lx.expect_ident("a property name")
        on = self.lx.expect_ident("'on'")
        if on.value != "on":
            self.lx.fail("expected 'on'", on)
        target = self.lx.expect_ident("'control' or 'preventive'")
        if target.value not in ("control", "preventive"):
            self.lx.fail("expected 'control' or 'preventive'", target)
        expected = None
        if self.lx.accept("expect"):
            verdict = self.lx.expect_ident("'holds' or 'fails'")
            if verdict.value not in ("holds", "fails"):
                self.lx.fail("expected 'holds' or 'fails'", verdict)
            expected = verdict.value
        self.lx.expect_punct(":")
        formula = self.lx.take_rest_of_line()
        self.specs.append(
            _RawSpec(name=name.value, pos=self.pos(name), target=target.value,
                     expected=expected, formula_text=formula.value, formula_pos=self.pos(formula))
        )


# -- semantic assembly -------------------------------------------------------------


def _assemble_behavior(raw: _RawBehavior, findings: list[Finding]):
    """Returns (Behavior | None, {state: first position})."""
    first_pos: dict[str, SourcePos] = {}

    def note(name: str, pos: SourcePos) -> None:
        first_pos.setdefault(name, pos)

    if raw.initial is not None:
        note(*raw.initial)
    for name, pos in raw.finals:
        note(name, pos)
    for name, pos in raw.decls:
        note(name, pos)
    for source, label, target, pos in raw.edges:
        note(source, pos)
        note(target, pos)

    if not first_pos:
        findings.append(
            Finding("error", "empty-state-set", raw.kind,
                    f"{raw.kind} behavior block declares no states", raw.pos)
        )
        return None, first_pos
    if raw.initial is None:
        findings.append(
            Finding("error", "bad-initial", raw.kind,
                    f"{raw.kind} behavior block declares no initial state", raw.pos)
        )
        return None, first_pos

    try:
        behavior = build_behavior(
            states=set(first_pos),
            initial=raw.initial[0],
            labels={label for _, label, _, _ in raw.edges},
            transitions=[edge[:3] for edge in raw.edges],
            finals={name for name, _ in raw.finals},
            positions=[edge[3] for edge in raw.edges],
        )
    except ModelValidationError as exc:  # duplicate transitions; nothing else can fail here
        findings.extend(exc.findings)
        return None, first_pos
    return behavior, first_pos


def parse_model(text: str, *, name: str = "model") -> ModelDocument:
    """Parse and fully validate a model document.

    Raises ModelSyntaxError on malformed text and ModelValidationError (with
    positioned findings) on semantic problems.
    """
    parser = _DocParser(text)
    parser.parse()
    findings = list(parser.findings)

    built: dict[str, Behavior] = {}
    positions: dict[str, dict[str, SourcePos]] = {}
    for kind in ("preventive", "control"):
        raw = parser.behaviors.get(kind)
        if raw is None:
            findings.append(
                Finding("error", "missing-behavior", kind,
                        f"document declares no {kind} behavior", SourcePos(1, 1))
            )
            continue
        behavior, first_pos = _assemble_behavior(raw, findings)
        positions[kind] = first_pos
        if behavior is not None:
            built[kind] = behavior

    preventive = built.get("preventive")
    control = built.get("control")
    if preventive is not None and control is not None:
        findings += coupled_diagnostics(preventive, control, parser.maps, parser.exempts,
                                        parser.approaches, positions["control"])

    properties: list[PropertySpec] = []
    seen_names: dict[str, SourcePos] = {}
    for raw_spec in parser.specs:
        if raw_spec.name in seen_names:
            findings.append(
                Finding("error", "duplicate-property", raw_spec.name,
                        "property name appears more than once", raw_spec.pos)
            )
            continue
        seen_names[raw_spec.name] = raw_spec.pos
        try:
            formula = parse_ctl(raw_spec.formula_text,
                                start_line=raw_spec.formula_pos.line,
                                start_column=raw_spec.formula_pos.column)
        except CtlSyntaxError as exc:
            findings.append(
                Finding("error", "ctl-syntax", raw_spec.name, exc.detail,
                        SourcePos(exc.line, exc.column))
            )
            continue
        target_behavior = built.get(raw_spec.target)
        if target_behavior is not None:
            for prop in unresolved_atoms(formula, target_behavior.states):
                detail = (f"no state {prop.subject} in the {raw_spec.target} behavior"
                          if prop.kind == "at" else f"no approach named {prop.subject}")
                findings.append(Finding("error", "unknown-atom", str(prop),
                                        f"property {raw_spec.name}: {detail}", raw_spec.pos))
        properties.append(
            PropertySpec(name=raw_spec.name, target=raw_spec.target, formula=formula,
                         expected=raw_spec.expected, position=raw_spec.pos)
        )

    if any(f.severity == "error" for f in findings):
        raise ModelValidationError(tuple(sort_findings(findings)))

    # Every coupling check passed, so the document's statements are the model.
    entries: dict[str, list[Path]] = {}
    for key, _, paths in parser.maps:
        entries.setdefault(key, []).extend(path for path, _ in paths)
    coupled = CoupledModel(
        name, preventive, control,
        mapping_process(entries, (state for state, _ in parser.exempts)),
        approach_partition({
            a.name: tuple([state for state, _ in a.sides.get(side, ())]
                          for side in ("control", "preventive"))
            for a in parser.approaches
        }),
    )

    source_positions: dict[str, SourcePos] = {}
    for kind in ("preventive", "control"):
        source_positions.update(positions.get(kind, {}))
    for raw_map in parser.maps:  # map statements win over state declarations
        source_positions[raw_map.key] = raw_map.pos
    for state, pos in parser.exempts:
        source_positions[state] = pos
    for spec in parser.specs:
        source_positions[spec.name] = spec.pos

    return ModelDocument(coupled=coupled, properties=tuple(properties),
                         source_positions=source_positions)


# -- rendering -----------------------------------------------------------------------


def _render_path(path: Path) -> str:
    text = path.states[0]
    for label, state in zip(path.labels, path.states[1:]):
        text += f" - {label} -> {state}"
    return text


def render_model(doc: ModelDocument) -> str:
    """Canonical text form: sorted states, transitions, mapping entries, and the
    four approach blocks; parse(render(doc)) is structurally identical to doc."""
    lines: list[str] = []
    for kind in ("preventive", "control"):
        behavior = doc.coupled.behavior(kind)
        lines.append(f"behavior {kind} {{")
        lines.append(f"  initial {behavior.initial}")
        if behavior.finals:
            lines.append("  final " + " ".join(sorted(behavior.finals)))
        mentioned = {behavior.initial} | set(behavior.finals)
        for t in behavior.transitions:
            mentioned.add(t.source)
            mentioned.add(t.target)
        for state in sorted(behavior.states - mentioned):
            lines.append(f"  state {state}")
        for t in sorted(behavior.transitions):
            lines.append(f"  {t.source} - {t.label} -> {t.target}")
        lines.append("}")
        lines.append("")

    for approach in doc.coupled.approaches.approaches:
        lines.append(f"approach {approach.name} {{")
        lines.append(("  control: " + " ".join(sorted(approach.control_states))).rstrip())
        lines.append(("  preventive: " + " ".join(sorted(approach.preventive_states))).rstrip())
        lines.append("}")
        lines.append("")

    for state, paths in doc.coupled.mapping.entries:
        lines.append(f"map {state} => " + ", ".join(_render_path(p) for p in paths))
    for state in sorted(doc.coupled.mapping.exempt):
        lines.append(f"exempt {state}")
    if doc.coupled.mapping.entries or doc.coupled.mapping.exempt:
        lines.append("")

    for prop in doc.properties:
        expect = f" expect {prop.expected}" if prop.expected else ""
        lines.append(f"spec {prop.name} on {prop.target}{expect}: {ctl.render(prop.formula)}")

    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"
