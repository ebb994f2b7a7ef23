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
(`ctl.Lexer`), with the marks ``-> => { } : , -`` and ``#`` comments; a
whole path step ``- ID -> ID`` is one token. The statement parsers read
edge runs (the longest run of edges, each a name and a step, taken as list
slices, their Transitions built in C), map statements, paths (a name and a
run of steps) and runs of names off its token lists with index arithmetic;
only where a token does not fit do they read token by token, to raise at the
token at fault. They keep the text offset where a name stands, its spot: a
SourcePos is built from one only for a finding or a property's `position`.
A behavior block's names all fit the name pattern, and its states and labels
are the ones it mentions, so a repeated edge is the one defect left to
check before its `Behavior` is built; each repeat is reported at its spot.
`source_positions` keeps the text offset of each state it places and the
lexer's table of line starts, and builds a state's SourcePos only when it is
looked up. A document reports its first fault in reading
order: a stray character is an error only when the parser reaches it, and a
grammar error before it wins. (An approach block judges a section head such
as ``control:`` as a pair, so a stray in its second token is reached first.)
A spec's formula is taken raw to end of line, minus any comment, and handed
to `parse_ctl`, so an error in it, a stray included, is a ``ctl-syntax``
finding and the statements after it are read as usual.
"""

from collections.abc import Mapping
from functools import partial
from typing import NamedTuple

from . import ctl
from .coupled import (
    CoupledModel,
    approach_partition,
    coupled_diagnostics,
    mapping_process,
    unresolved_atoms,
)
from .ctl import (
    DASH,
    END,
    NAME,
    STEP,
    STRAY,
    CtlFormula,
    CtlSyntaxError,
    Lexer,
    locate,
    parse_ctl,
)
from .lts import Behavior, Path, Transition, _Frozen
from .report import Finding, ModelValidationError, SourcePos, sort_findings

_DOC_MARKS = ("->", "=>", "{", "}", ":", ",", "-")
# A Transition from a (source, label, target) tuple, built in C.
_transition = partial(tuple.__new__, Transition)


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


class _StatePositions(Mapping):
    """A read-only map from a state name to its SourcePos that places a state
    only when it is looked up: it holds each state's offset in the text and
    the offsets where the text's lines start. It compares equal to the dict
    of every state's SourcePos, and copies and pickles as one."""

    __slots__ = ("_offsets", "_line_starts")

    def __init__(self, offsets: dict[str, int], line_starts: list[int]):
        self._offsets = offsets
        self._line_starts = line_starts

    def __getitem__(self, state: str) -> SourcePos:
        return locate(self._line_starts, self._offsets[state])

    def __contains__(self, state) -> bool:
        return state in self._offsets

    def __iter__(self):
        return iter(self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        return type(self), (self._offsets, self._line_starts)


class ModelDocument(_Frozen):
    """A parsed document: the coupled model and its properties.
    `source_positions` maps a state name to where it is mapped, exempted or
    first mentioned, so reports on the built model can point back into the
    text; it is not part of the document's identity or repr. `parse_model`
    gives a read-only mapping that works a state's line and column out only
    when it is looked up."""

    __slots__ = ("coupled", "properties", "source_positions")

    def __init__(self, coupled: CoupledModel, properties: tuple[PropertySpec, ...],
                 source_positions: Mapping[str, SourcePos] | None = None):
        object.__setattr__(self, "coupled", coupled)
        object.__setattr__(self, "properties", properties)
        object.__setattr__(self, "source_positions",
                           {} if source_positions is None else source_positions)

    def _key(self) -> tuple:
        return (self.coupled, self.properties)

    def __repr__(self) -> str:
        return f"ModelDocument(coupled={self.coupled!r}, properties={self.properties!r})"


# -- raw statement collection ----------------------------------------------------


# A `pos` is a spot: the text offset where a name or statement stands.
class _RawBehavior(NamedTuple):
    kind: str
    pos: int
    initial: tuple[str, int] | None
    finals: list[tuple[str, int]]
    decls: list[tuple[str, int]]
    edges: list[Transition]
    edge_positions: list[int]  # each edge's source
    target_positions: list[int]  # each edge's target


class _RawMap(NamedTuple):
    key: str
    pos: int
    paths: list[tuple[Path, list[int]]]  # each path with its states' spots


class _RawApproach(NamedTuple):
    name: str
    pos: int
    sides: dict[str, list[tuple[str, int]]]


class _RawSpec(NamedTuple):
    name: str
    pos: int
    target: str
    expected: str | None
    formula_text: str
    formula_pos: SourcePos


_STATEMENT = "expected 'behavior', 'approach', 'map', 'exempt', or 'spec'"
_DECLARATIONS = ("initial", "final", "state")
_SIDES = ("control", "preventive")


class _DocParser:
    """Reads the statements off the lexer's token lists. An edge is a name
    and a step token, a path a name and a run of them. A behavior block's
    edge run, the longest run of such pairs, is read at once: its sources,
    steps and spots are list slices, and its edges keep document order. A
    map statement, path or run of names is read with index arithmetic too.
    Where the tokens do not fit, the `expect_*` calls re-read them to raise
    at the token at fault."""

    def __init__(self, text: str):
        self.lx = Lexer(text, _DOC_MARKS, _syntax_error, comments=True)
        self.kinds, self.values, self.starts = self.lx.kinds, self.lx.values, self.lx.starts
        self.behaviors: dict[str, _RawBehavior] = {}
        self.maps: list[_RawMap] = []
        self.approaches: list[_RawApproach] = []
        self.exempts: list[tuple[str, int]] = []
        self.specs: list[_RawSpec] = []
        self.findings: list[Finding] = []

    def named(self, k: int) -> tuple[str, int]:
        return self.values[k], self.starts[k]

    def parse(self) -> None:
        statements = {"behavior": self._behavior, "approach": self._approach,
                      "map": self._map, "exempt": self._exempt, "spec": self._spec}
        while self.kinds[self.lx.i] != END:
            statement = statements.get(self.values[self.lx.i])
            if statement is None:
                self.lx.fail(_STATEMENT, self.lx.i)
            self.lx.i += 1
            statement()

    def _fail_step(self, k: int) -> None:
        """Raise at the first token that does not fit the path step
        ``- ID -> ID`` starting at token k, a '-' that starts no step token."""
        self.lx.i = k + 1
        self.lx.expect_ident("a transition label")
        self.lx.expect_punct("->")
        self.lx.expect_ident("a target state")

    def _take_names(self, end: int) -> list[tuple[str, int]]:
        """The names from the cursor up to token `end`, each with its spot;
        the cursor moves to `end`."""
        start, self.lx.i = self.lx.i, end
        return list(zip(self.values[start:end], self.starts[start:end]))

    def _behavior(self) -> None:
        lx, kinds, values, starts = self.lx, self.kinds, self.values, self.starts
        spot = starts[lx.i - 1]
        kind = values[lx.expect_ident("'preventive' or 'control'")]
        if kind not in _SIDES:
            lx.fail("expected 'preventive' or 'control'", lx.i - 1)
        lx.expect_punct("{")
        initial = None
        finals: list[tuple[str, int]] = []
        decls: list[tuple[str, int]] = []
        edges: list[Transition] = []
        sources: list[int] = []
        targets: list[int] = []
        while True:
            k = end = lx.i
            while kinds[end] == NAME and kinds[end + 1] == STEP:
                end += 2
            if end > k:  # a run of edges, read at once
                labels, target_names, spots = zip(*values[k + 1:end:2])
                edges += map(_transition, zip(values[k:end:2], labels, target_names))
                sources += starts[k:end:2]
                targets += spots
                lx.i = end
                continue
            if kinds[k] == NAME and kinds[k + 1] == DASH:  # an edge that does not fit
                self._fail_step(k + 1)
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
                while (kinds[end] == NAME and kinds[end + 1] != STEP and kinds[end + 1] != DASH
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
                            "behavior block declares more than one initial state",
                            lx.locate(name[1]))
                )
            else:
                initial = name
        if kind in self.behaviors:
            self.findings.append(
                Finding("error", "duplicate-behavior", kind,
                        f"more than one {kind} behavior block", lx.locate(spot))
            )
        else:
            self.behaviors[kind] = _RawBehavior(kind, spot, initial, finals, decls, edges,
                                                 sources, targets)

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
                # its second place is reached before the first is judged; a
                # step's second place is its label.
                at = k + 1 if kinds[k + 1] == STRAY and kinds[k] not in (STRAY, STEP) else k
                lx.fail("expected 'control:', 'preventive:', or '}'", at)
            side = values[k]
            if side in raw.sides:
                self.findings.append(
                    Finding("error", "duplicate-approach-section", side,
                            f"approach {raw.name} repeats its '{side}:' section", lx.position(k))
                )
            end = lx.i = k + 2
            while kinds[end] == NAME and not (values[end] in _SIDES and values[end + 1] == ":"):
                end += 1
            raw.sides.setdefault(side, []).extend(self._take_names(end))
        self.approaches.append(raw)

    def _path_expr(self, first: int) -> tuple[Path, list[int]]:
        """The path ``ID (- ID -> ID)*`` from token `first`, a name and its
        steps, with its states' spots; the cursor moves past it."""
        kinds, values = self.kinds, self.values
        if kinds[first] != NAME:
            self.lx.i = first
            self.lx.expect_ident("a preventive state name")
        end = first + 1
        while kinds[end] == STEP:
            end += 1
        if kinds[end] == DASH:
            self._fail_step(end)
        self.lx.i = end
        if end == first + 1:
            return Path((values[first],)), [self.starts[first]]
        labels, targets, spots = zip(*values[first + 1:end])
        return Path((values[first], *targets), labels), [self.starts[first], *spots]

    def _map(self) -> None:
        lx, kinds, values = self.lx, self.kinds, self.values
        key = lx.i
        if kinds[key] != NAME or values[key + 1] != "=>":
            lx.expect_ident("a control state name")
            lx.expect_punct("=>")
        paths = [self._path_expr(key + 2)]
        while values[lx.i] == ",":
            paths.append(self._path_expr(lx.i + 1))
        self.maps.append(_RawMap(values[key], self.starts[key], paths))

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
        self.specs.append(_RawSpec(*name, target, expected, *lx.take_rest_of_line()))


# -- semantic assembly -------------------------------------------------------------


def _assemble_behavior(raw: _RawBehavior, findings: list[Finding], place):
    """Returns (Behavior | None, {state: spot of its first mention})."""
    first_spot: dict[str, int] = {}
    note = first_spot.setdefault
    for name, spot in ([raw.initial] if raw.initial else []) + raw.finals + raw.decls:
        note(name, spot)
    for (source, _, target), spot, target_spot in zip(raw.edges, raw.edge_positions,
                                                       raw.target_positions):
        note(source, spot)
        note(target, target_spot)

    if not first_spot:
        findings.append(
            Finding("error", "empty-state-set", raw.kind,
                    f"{raw.kind} behavior block declares no states", place(raw.pos))
        )
        return None, first_spot
    if raw.initial is None:
        findings.append(
            Finding("error", "bad-initial", raw.kind,
                    f"{raw.kind} behavior block declares no initial state", place(raw.pos))
        )
        return None, first_spot

    edges = raw.edges
    if len(set(edges)) < len(edges):
        seen: set[Transition] = set()
        for t, spot in zip(edges, raw.edge_positions):
            if t in seen:
                findings.append(Finding("error", "duplicate-transition", str(t),
                                        "transition appears more than once", place(spot)))
            seen.add(t)
        return None, first_spot
    return Behavior(frozenset(first_spot), raw.initial[0],
                    frozenset([edge.label for edge in edges]), tuple(edges),
                    frozenset([name for name, _ in raw.finals])), first_spot


def parse_model(text: str, *, name: str = "model") -> ModelDocument:
    """Parse and fully validate a model document.

    Raises ModelSyntaxError on malformed text and ModelValidationError (with
    positioned findings) on semantic problems.
    """
    parser = _DocParser(text)
    parser.parse()
    findings = list(parser.findings)
    place = parser.lx.locate

    built: dict[str, Behavior] = {}
    spots: dict[str, dict[str, int]] = {}
    for kind in ("preventive", "control"):
        raw = parser.behaviors.get(kind)
        if raw is None:
            findings.append(
                Finding("error", "missing-behavior", kind,
                        f"document declares no {kind} behavior", SourcePos(1, 1))
            )
            continue
        behavior, spots[kind] = _assemble_behavior(raw, findings, place)
        if behavior is not None:
            built[kind] = behavior

    preventive = built.get("preventive")
    control = built.get("control")
    if preventive is not None and control is not None:
        findings += coupled_diagnostics(preventive, control, parser.maps, parser.exempts,
                                        parser.approaches, spots["control"], place)

    properties: list[PropertySpec] = []
    seen_names: set[str] = set()
    for raw_spec in parser.specs:
        position = place(raw_spec.pos)
        if raw_spec.name in seen_names:
            findings.append(
                Finding("error", "duplicate-property", raw_spec.name,
                        "property name appears more than once", position)
            )
            continue
        seen_names.add(raw_spec.name)
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
                                        f"property {raw_spec.name}: {detail}", position))
        properties.append(
            PropertySpec(name=raw_spec.name, target=raw_spec.target, formula=formula,
                         expected=raw_spec.expected, position=position)
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

    kept = spots["preventive"] | spots["control"]
    for raw_map in parser.maps:  # map statements win over state declarations
        kept[raw_map.key] = raw_map.pos
    kept.update(parser.exempts)
    return ModelDocument(coupled=coupled, properties=tuple(properties),
                         source_positions=_StatePositions(kept, parser.lx.line_starts))


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
