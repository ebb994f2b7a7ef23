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

The document is scanned once, up front, by the lexer the CTL grammar uses
(`ctl.Lexer`), with the marks ``-> => { } : , -`` and ``#`` comments. The
statement parsers read whole edges, path steps and runs of names off its
token lists. A document reports its first fault in reading order: a stray
character is an error only when the parser reaches it, and a grammar error
before it wins. (An approach block judges a section head such as
``control:`` as a pair, so a stray in its second token is reached first.) A
spec's formula is taken raw to end of line, minus any comment, and handed to
`parse_ctl`, so an error in it, a stray included, is a ``ctl-syntax``
finding and the statements after it are read as usual.
"""

from typing import NamedTuple

from . import ctl
from .coupled import (
    CoupledModel,
    approach_partition,
    coupled_diagnostics,
    mapping_process,
    unresolved_atoms,
)
from .ctl import END, NAME, STRAY, CtlFormula, CtlSyntaxError, Lexer, parse_ctl
from .lts import Behavior, Path, Transition, _Frozen, build_behavior
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


class PropertySpec(_Frozen):
    """One named CTL property targeting the control or preventive behavior.
    Where it stands in the text, `position`, is not part of its identity."""

    __slots__ = ("name", "target", "formula", "expected", "position")

    def __init__(self, name: str, target: str, formula: CtlFormula,
                 expected: str | None = None, position: SourcePos | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "position", position)

    def _key(self) -> tuple:
        return (self.name, self.target, self.formula, self.expected)


class ModelDocument(_Frozen):
    """A parsed document: the coupled model and its properties.
    `source_positions` maps a state name to where it is mapped, exempted or
    first mentioned, so reports on the built model can point back into the
    text; it is not part of the document's identity or repr."""

    __slots__ = ("coupled", "properties", "source_positions")

    def __init__(self, coupled: CoupledModel, properties: tuple[PropertySpec, ...],
                 source_positions: dict[str, SourcePos] | None = None):
        object.__setattr__(self, "coupled", coupled)
        object.__setattr__(self, "properties", properties)
        object.__setattr__(self, "source_positions",
                           {} if source_positions is None else source_positions)

    def _key(self) -> tuple:
        return (self.coupled, self.properties)

    def __repr__(self) -> str:
        return f"ModelDocument(coupled={self.coupled!r}, properties={self.properties!r})"


# -- raw statement collection ----------------------------------------------------


class _RawBehavior(NamedTuple):
    kind: str
    pos: SourcePos
    initial: tuple[str, SourcePos] | None
    finals: list[tuple[str, SourcePos]]
    decls: list[tuple[str, SourcePos]]
    edges: list[Transition]
    edge_positions: list[SourcePos]  # each edge's source


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


_STATEMENT = "expected 'behavior', 'approach', 'map', 'exempt', or 'spec'"
_DECLARATIONS = ("initial", "final", "state")
_SIDES = ("control", "preventive")


class _DocParser:
    """Reads the statements off the lexer's token lists. A whole edge, path
    step or run of names is read with index arithmetic; where the tokens do
    not fit, the `expect_*` calls re-read them to raise at the token at
    fault."""

    def __init__(self, text: str):
        self.lx = Lexer(text, _DOC_MARKS, _syntax_error, comments=True)
        self.kinds, self.values = self.lx.kinds, self.lx.values
        self.behaviors: dict[str, _RawBehavior] = {}
        self.maps: list[_RawMap] = []
        self.approaches: list[_RawApproach] = []
        self.exempts: list[tuple[str, SourcePos]] = []
        self.specs: list[_RawSpec] = []
        self.findings: list[Finding] = []

    def pos(self, k: int) -> SourcePos:
        return SourcePos(self.lx.lines[k], self.lx.columns[k])

    def named(self, k: int) -> tuple[str, SourcePos]:
        return self.values[k], self.pos(k)

    def parse(self) -> None:
        statements = {"behavior": self._behavior, "approach": self._approach,
                      "map": self._map, "exempt": self._exempt, "spec": self._spec}
        while self.kinds[self.lx.i] != END:
            statement = statements.get(self.values[self.lx.i])
            if statement is None:
                self.lx.fail(_STATEMENT, self.lx.i)
            self.lx.i += 1
            statement()

    def _step(self, k: int) -> bool:
        """Whether a path step ``- ID -> ID`` starts at token k. A '-' that
        starts anything else is a syntax error."""
        kinds, values = self.kinds, self.values
        if values[k] != "-":
            return False
        if not (kinds[k + 1] == NAME and values[k + 2] == "->" and kinds[k + 3] == NAME):
            self.lx.i = k + 1
            self.lx.expect_ident("a transition label")
            self.lx.expect_punct("->")
            self.lx.expect_ident("a target state")
        return True

    def _take_names(self, end: int) -> list[tuple[str, SourcePos]]:
        """The names from the cursor up to token `end`, each with its
        position; the cursor moves to `end`."""
        lx = self.lx
        names = list(zip(self.values[lx.i:end],
                         map(SourcePos, lx.lines[lx.i:end], lx.columns[lx.i:end])))
        lx.i = end
        return names

    def _behavior(self) -> None:
        lx, kinds, values = self.lx, self.kinds, self.values
        pos = self.pos(lx.i - 1)
        kind = values[lx.expect_ident("'preventive' or 'control'")]
        if kind not in _SIDES:
            lx.fail("expected 'preventive' or 'control'", lx.i - 1)
        lx.expect_punct("{")
        initial = None
        finals: list[tuple[str, SourcePos]] = []
        decls: list[tuple[str, SourcePos]] = []
        edges: list[Transition] = []
        edge_positions: list[SourcePos] = []
        while True:
            k = lx.i
            if kinds[k] == NAME and self._step(k + 1):  # an edge, whatever its names
                edges.append(Transition(values[k], values[k + 2], values[k + 4]))
                edge_positions.append(self.pos(k))
                lx.i = k + 5
                continue
            if values[k] == "}":
                lx.i = k + 1
                break
            if kinds[k] == END:
                lx.fail("unclosed behavior block; expected '}'", k)
            if kinds[k] != NAME:
                lx.fail("expected a state declaration or an edge", k)
            if values[k] not in _DECLARATIONS:
                lx.fail("expected '-'", k + 1, ("-",))
            lx.i = k + 1
            if values[k] == "final":
                end = k + 1
                while (kinds[end] == NAME and values[end + 1] != "-"
                       and values[end] not in _DECLARATIONS):
                    end += 1
                if end == k + 1:
                    lx.fail("expected at least one state name after 'final'", end)
                finals += self._take_names(end)
                continue
            name = self.named(lx.expect_ident("a state name"))
            if values[k] == "state":
                decls.append(name)
            elif initial is not None:
                self.findings.append(
                    Finding("error", "duplicate-initial", name[0],
                            "behavior block declares more than one initial state", name[1])
                )
            else:
                initial = name
        if kind in self.behaviors:
            self.findings.append(
                Finding("error", "duplicate-behavior", kind,
                        f"more than one {kind} behavior block", pos)
            )
        else:
            self.behaviors[kind] = _RawBehavior(kind, pos, initial, finals, decls, edges,
                                                 edge_positions)

    def _approach(self) -> None:
        lx, kinds, values = self.lx, self.kinds, self.values
        name = self.named(lx.expect_ident("an approach name"))
        raw = _RawApproach(*name, {})
        lx.expect_punct("{")
        while not lx.accept("}"):
            k = lx.i
            if kinds[k] == END:
                lx.fail("unclosed approach block; expected '}'", k)
            if not (values[k] in _SIDES and values[k + 1] == ":"):
                # A section head is read as a pair, so a stray character in
                # its second place is reached before the first is judged.
                at = k + 1 if kinds[k + 1] == STRAY and kinds[k] != STRAY else k
                lx.fail("expected 'control:', 'preventive:', or '}'", at)
            side = values[k]
            if side in raw.sides:
                self.findings.append(
                    Finding("error", "duplicate-approach-section", side,
                            f"approach {raw.name} repeats its '{side}:' section", self.pos(k))
                )
            end = lx.i = k + 2
            while kinds[end] == NAME and not (values[end] in _SIDES and values[end + 1] == ":"):
                end += 1
            raw.sides.setdefault(side, []).extend(self._take_names(end))
        self.approaches.append(raw)

    def _path_expr(self) -> tuple[Path, tuple[SourcePos, ...]]:
        first = self.lx.expect_ident("a preventive state name")
        k = first
        while self._step(k + 1):
            k += 4
        lx, values = self.lx, self.values
        lx.i = k + 1
        return (Path(tuple(values[first:k + 1:4]), tuple(values[first + 2:k:4])),
                tuple(map(SourcePos, lx.lines[first:k + 1:4], lx.columns[first:k + 1:4])))

    def _map(self) -> None:
        key = self.named(self.lx.expect_ident("a control state name"))
        self.lx.expect_punct("=>")
        paths = [self._path_expr()]
        while self.lx.accept(","):
            paths.append(self._path_expr())
        self.maps.append(_RawMap(*key, paths))

    def _exempt(self) -> None:
        self.exempts.append(self.named(self.lx.expect_ident("a control state name")))

    def _spec(self) -> None:
        lx, values = self.lx, self.values
        name = self.named(lx.expect_ident("a property name"))
        on = lx.expect_ident("'on'")
        if values[on] != "on":
            lx.fail("expected 'on'", on)
        target = values[lx.expect_ident("'control' or 'preventive'")]
        if target not in _SIDES:
            lx.fail("expected 'control' or 'preventive'", lx.i - 1)
        expected = None
        if lx.accept("expect"):
            expected = values[lx.expect_ident("'holds' or 'fails'")]
            if expected not in ("holds", "fails"):
                lx.fail("expected 'holds' or 'fails'", lx.i - 1)
        lx.expect_punct(":")
        text, line, column = lx.take_rest_of_line()
        self.specs.append(_RawSpec(*name, target, expected, text, SourcePos(line, column)))


# -- semantic assembly -------------------------------------------------------------


def _assemble_behavior(raw: _RawBehavior, findings: list[Finding]):
    """Returns (Behavior | None, {state: first position})."""
    first_pos: dict[str, SourcePos] = {}
    note = first_pos.setdefault
    for name, pos in ([raw.initial] if raw.initial else []) + raw.finals + raw.decls:
        note(name, pos)
    for (source, _, target), pos in zip(raw.edges, raw.edge_positions):
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
            labels={edge.label for edge in raw.edges},
            transitions=raw.edges,
            finals={name for name, _ in raw.finals},
            positions=raw.edge_positions,
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
