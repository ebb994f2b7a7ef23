"""CTL formulas: abstract syntax, concrete-syntax parser, normalizer, renderer.

`normalize`, `render` and both engines walk formulas with one `fold`:
iterative, children first, each distinct node once.

Concrete syntax: atoms ``at(Name)`` / ``in(Name)``, constants ``true`` /
``false``, boolean operators ``! & | ->``, temporal unaries ``EX EF EG AX AF
AG``, and until forms ``E [ f U g ]`` / ``A [ f U g ]``. Precedence is
``!``/temporal > ``&`` > ``|`` > ``->`` with ``->`` right-associative.
Parentheses, negations, temporal operators, until brackets and implications
nest at most ``MAX_NESTING`` deep; deeper text is a syntax error.

This grammar and the model document's (`dsl`) share one `Lexer`. It scans
the whole text once, up front, into flat per-token lists (kind, value,
offset) that the parsers read through an int cursor; a line and column are
worked out only where a position is kept or shown. Both grammars have the
same identifiers, whitespace and positions, each with its own marks; the
document's ``-`` mark makes a whole path step one token. A character that is
not whitespace, a mark or part of a name becomes a stray token, and each
grammar decides when a stray is an error. CTL's marks are
``-> ( ) [ ] ! & |`` and it has no comments; a stray anywhere in a formula is
the error reported, before any parse error.
"""

import re
from bisect import bisect_left, bisect_right
from functools import cache
from typing import Callable, Iterator, NoReturn, TypeVar

from .lts import NAME_RE, _Frozen
from .report import SourcePos


# Deep enough for any hand-written property, shallow enough that the
# recursive-descent parser stays well inside Python's recursion limit.
MAX_NESTING = 100


class CtlSyntaxError(ValueError):
    """Formula text failed to parse; carries position and the expected tokens.
    `detail` is the text without the position, for a finding that has one."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        suffix = "; expected one of: " + ", ".join(expected) if expected else ""
        self.detail = message + suffix
        super().__init__(f"{message} at line {line}, col {column}{suffix}")


class AtomicProposition(_Frozen):
    """A labeling atom: ``at(state)`` or ``in(approach)``."""

    __slots__ = ("kind", "subject")

    def __init__(self, kind: str, subject: str):
        if kind not in ("at", "in"):
            raise ValueError(f"atom kind must be 'at' or 'in', not {kind!r}")
        # Formula equality compares rendered text, which only names tell apart.
        if not NAME_RE.fullmatch(subject):
            raise ValueError(f"atom subject must be an identifier, not {subject!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "subject", subject)

    def _key(self) -> tuple:
        return (self.kind, self.subject)

    def __str__(self) -> str:
        return f"{self.kind}({self.subject})"


class CtlFormula(_Frozen):
    """Base class of formula nodes: immutable, with `__slots__` naming the
    node's fields, which the constructor takes in that order. A constant's
    field is its bool, an atom's its `AtomicProposition`, any other node's
    its subformulas.

    Equality, hashing and repr go through the text `render` builds without
    recursion, which re-parses to the same tree, so they work at any depth.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __str__(self) -> str:
        return render(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CtlFormula):
            return NotImplemented
        return self is other or render(self) == render(other)

    def __hash__(self) -> int:
        return hash(render(self))

    def __repr__(self) -> str:
        return f"parse_ctl({render(self)!r})"


class Const(CtlFormula):
    __slots__ = ("value",)


class Atom(CtlFormula):
    __slots__ = ("prop",)


class Not(CtlFormula):
    __slots__ = ("operand",)


class And(CtlFormula):
    __slots__ = ("left", "right")


class Or(CtlFormula):
    __slots__ = ("left", "right")


class Implies(CtlFormula):
    __slots__ = ("left", "right")


class EX(CtlFormula):
    __slots__ = ("operand",)


class EG(CtlFormula):
    __slots__ = ("operand",)


class EU(CtlFormula):
    __slots__ = ("left", "right")


class EF(CtlFormula):
    __slots__ = ("operand",)


class AX(CtlFormula):
    __slots__ = ("operand",)


class AF(CtlFormula):
    __slots__ = ("operand",)


class AG(CtlFormula):
    __slots__ = ("operand",)


class AU(CtlFormula):
    __slots__ = ("left", "right")


TRUE = Const(True)
FALSE = Const(False)


_UNARY = (Not, EX, EG, EF, AX, AF, AG)
_BINARY = (And, Or, Implies, EU, AU)
_ARITY = {Const: 0, Atom: 0} | dict.fromkeys(_UNARY, 1) | dict.fromkeys(_BINARY, 2)

T = TypeVar("T")


def children(node: CtlFormula) -> tuple[CtlFormula, ...]:
    """The node's direct subformulas, left to right."""
    arity = _ARITY.get(type(node))
    if arity == 2:
        return (node.left, node.right)
    if arity == 1:
        return (node.operand,)
    if arity == 0:
        return ()
    raise TypeError(f"not a CTL formula node: {node!r}")


def fold(formula: CtlFormula, combine: Callable[[CtlFormula, tuple], T]) -> T:
    """Combine every distinct node once, children first, without recursion.

    `combine(node, results)` receives the node and its children's results in
    `children` order. Nodes are told apart by identity, so a subformula shared
    in a DAG is combined once; equality and hashing would render the whole
    subtree.
    """
    done: dict[int, T] = {}
    # (node, None) asks to expand the node; (node, kids) to combine it.
    stack: list[tuple[CtlFormula, tuple | None]] = [(formula, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            if id(node) in done:
                continue
            kids = children(node)
            if kids:
                stack.append((node, kids))
                for kid in reversed(kids):
                    stack.append((kid, None))
                continue
        done[id(node)] = combine(node, tuple([done[id(kid)] for kid in kids]))
    return done[id(formula)]


def atoms(formula: CtlFormula) -> Iterator[AtomicProposition]:
    """Yield every atomic proposition occurring in the formula."""
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            yield node.prop
        stack.extend(children(node))


def _normalize_node(node: CtlFormula, kids: tuple[CtlFormula, ...]) -> CtlFormula:
    if isinstance(node, (Const, Atom)):
        return node
    if isinstance(node, (Not, And, Or, EX, EG, EU)):
        return type(node)(*kids)
    if isinstance(node, Implies):
        return Or(Not(kids[0]), kids[1])
    if isinstance(node, EF):
        return EU(TRUE, kids[0])
    if isinstance(node, AX):
        return Not(EX(Not(kids[0])))
    if isinstance(node, AG):
        return Not(EU(TRUE, Not(kids[0])))
    if isinstance(node, AF):
        return Not(EG(Not(kids[0])))
    f, g = kids  # AU
    not_g = Not(g)
    return Not(Or(EU(not_g, And(Not(f), not_g)), EG(not_g)))


def normalize(formula: CtlFormula) -> CtlFormula:
    """Rewrite derived operators into the EX/EG/EU + !, &, | core.

    f -> g = !f | g; EF g = E[true U g]; AX f = !EX !f; AG f = !EF !f;
    AF f = !EG !f; A[f U g] = !(E[!g U (!f & !g)] | EG !g). The result is a
    DAG: A[f U g] shares g and !g, so walk it with `fold`.
    """
    return fold(formula, _normalize_node)


# How tightly each infix operator binds; every other node binds tightest (4).
_PRECEDENCE = {Implies: 1, Or: 2, And: 3}
# Infix text, then the least precedence the left and the right operand may
# have without parentheses.
_INFIX = {And: ("&", 3, 4), Or: ("|", 2, 3), Implies: ("->", 2, 1)}


def render(
    formula: CtlFormula,
    atom_text: Callable[[AtomicProposition], str] | None = None,
    true_text: str = "true",
    false_text: str = "false",
) -> str:
    """Concrete-syntax text with minimal parentheses; re-parsing restores the AST.

    A node's text is a string or a tuple of its pieces, children's texts
    included as they are; the pieces are joined once at the end, so a long
    `&`/`|` chain renders in linear time.
    """

    def combine(node: CtlFormula, texts: tuple) -> str | tuple:
        def arg(i: int, min_prec: int) -> str | tuple:
            loose = _PRECEDENCE.get(type(children(node)[i]), 4) < min_prec
            return ("(", texts[i], ")") if loose else texts[i]

        if isinstance(node, Const):
            return true_text if node.value else false_text
        if isinstance(node, Atom):
            return atom_text(node.prop) if atom_text else str(node.prop)
        if isinstance(node, Not):
            return ("!", arg(0, 4))
        # The temporal operators' class names are their keywords.
        if isinstance(node, (EU, AU)):
            return (f"{type(node).__name__[0]} [ ", texts[0], " U ", texts[1], " ]")
        if isinstance(node, _UNARY):
            return (f"{type(node).__name__} ", arg(0, 4))
        symbol, left, right = _INFIX[type(node)]
        return (arg(0, left), f" {symbol} ", arg(1, right))

    pieces: list[str] = []
    stack = [fold(formula, combine)]
    while stack:
        text = stack.pop()
        if isinstance(text, str):
            pieces.append(text)
        else:
            stack.extend(reversed(text))
    return "".join(pieces)


# Token kinds: the pattern group each comes from, and the end of the text. A
# path step's groups are its `-` (DASH), label and target (STEP), which
# closes the match last; a `-` no step follows is a DASH token, a mark.
MARK, NAME, STRAY, DASH, STEP, END = 1, 2, 3, 4, 6, 0


def locate(line_starts: list[int], offset: int, start_line: int = 1) -> SourcePos:
    """The line and column of a text offset, by bisection in the offsets where
    the text's lines start, the first line counted as `start_line`."""
    row = bisect_right(line_starts, offset) - 1
    return SourcePos(start_line + row, offset - line_starts[row] + 1)


@cache
def _token_scanner(marks: tuple[str, ...], comments: bool) -> Callable:
    """Finds skipped text then a mark (group 1), a name (2), any other
    character but whitespace or a comment's ``#`` (3), or the end of the
    text, so that every character is covered. Where `-` is a mark, it is
    found last: with the path step ``- NAME -> NAME`` after it, skipped text
    allowed between the parts, as one match (groups 4 to 6), else alone (4).

    The skip and a name never give back what they took: they could gain
    nothing by it, since group 3 takes any character the skip stops at, a
    name ends where no name character follows, and the name or `->` a step
    needs next can start neither inside a skip nor inside a name. Their
    stars are possessive (`*+`), which says so to the matcher; the `+` after
    the name pattern makes its final star one. So the scan backtracks only
    to give up a step that does not fit, whole, for the `-` alone."""
    skip = r"[ \t\r\n]*+(?:#[^\n]*+[ \t\r\n]*+)*+" if comments else r"[ \t\r\n]*+"
    not_stray = r" \t\r\n#" if comments else r" \t\r\n"
    name = f"{NAME_RE.pattern}+"
    step = ""
    if "-" in marks:
        marks = tuple(mark for mark in marks if mark != "-")
        not_stray += "-"
        step = rf"|(-)(?:{skip}({name}){skip}->{skip}({name}))?"
    mark = "|".join(map(re.escape, marks))
    return re.compile(rf"{skip}(?:({mark})|({name})|([^{not_stray}])|\Z{step})").finditer


class Lexer:
    """One text scanned once, by one `finditer` that backtracks only out of a
    step that does not fit (`_token_scanner`), into flat per-token lists read
    through an int cursor `i`, for either grammar. A `NAME` token is an
    identifier by the pattern that found it.

    `kinds[k]`, `values[k]` and `starts[k]` describe token k, `starts[k]`
    being its offset in the text; the last real token is `END`, with value
    "" at the end of the text, and a few copies of it follow so that a
    lookahead never runs off the lists. A token's line and column are worked
    out only when asked for: `position(k)` looks its offset up by bisection
    in the table of line starts, and `locate` does so for any offset.
    `marks` lists the punctuation, two-character marks first. `comments`
    skips ``#`` to end of line. A character neither a mark nor part of a
    name becomes a `STRAY` token rather than an error, so each grammar
    decides when it is reported; `fail` at a stray reports it.
    Where `-` is a mark, a whole path step ``- NAME -> NAME`` is one `STEP`
    token, starting at its `-`, with the value (label, target, offset of the
    target); comments and line breaks may stand between its parts. A `-` that
    starts no step is a `DASH` token. `take_rest_of_line` splits a step that
    starts on the line it takes and ends on a later one: the step's parts
    after the line's end, scanned again from there, replace its token.
    Errors are built by `error(message, line, column, expected)`; positions
    count from `start_line`/`start_column`, which locate the text inside a
    larger one (the column shift holds on the text's first line only).
    """

    def __init__(self, text: str, marks: tuple[str, ...], error: Callable[..., Exception], *,
                 comments: bool = False, start_line: int = 1, start_column: int = 1):
        self.text = text
        self.error = error
        self.start_line = start_line
        # The first line starts start_column - 1 characters before the text.
        self.line_starts = [1 - start_column, *[m.end() for m in re.finditer("\n", text)]]
        self.i = 0
        self._scanner = _token_scanner(marks, comments)
        self.kinds, self.values, self.starts = self._scan(0, len(text))
        self.kinds += [END] * 5
        self.values += [""] * 5
        self.starts += [len(text)] * 5

    def _scan(self, start: int, stop: int) -> tuple[list, list, list]:
        """The kinds, values and starts of the tokens in text[start:stop]."""
        kinds, values, starts = [], [], []
        add_kind, add_value, add_start = kinds.append, values.append, starts.append
        for m in self._scanner(self.text, start, stop):
            kind = m.lastindex
            if kind is None:
                break
            add_kind(kind)
            if kind == STEP:  # group 5 is its label
                add_value((m[5], m[STEP], m.start(STEP)))
                add_start(m.start(DASH))
            else:
                add_value(m[kind])
                add_start(m.start(kind))
        return kinds, values, starts

    def locate(self, offset: int) -> SourcePos:
        """The line and column of a text offset."""
        return locate(self.line_starts, offset, self.start_line)

    def position(self, k: int) -> SourcePos:
        """Where token k starts."""
        return self.locate(self.starts[k])

    def fail(self, message: str, k: int, expected: tuple[str, ...] = ()) -> NoReturn:
        """Raise the grammar's error at token k, or, at a stray character,
        that the character is unexpected."""
        if self.kinds[k] == STRAY:
            message, expected = f"unexpected character {self.values[k]!r}", ()
        raise self.error(message, *self.position(k), expected)

    def accept(self, value: str) -> bool:
        """Take the next token if it is the mark or name `value`."""
        if self.values[self.i] == value:
            self.i += 1
            return True
        return False

    def expect_ident(self, description: str) -> int:
        if self.kinds[self.i] != NAME:
            self.fail(f"expected {description}", self.i, ("identifier",))
        self.i += 1
        return self.i - 1

    def expect_punct(self, value: str) -> None:
        if self.values[self.i] != value:
            self.fail(f"expected '{value}'", self.i, (value,))
        self.i += 1

    def take_rest_of_line(self) -> tuple[str, SourcePos]:
        """The raw text after the token just taken to the end of its line, a
        ``\\r\\n`` ending and any ``#`` comment stripped, with where it starts;
        the cursor moves to the first token of a later line."""
        text, start = self.text, self.starts[self.i - 1] + len(self.values[self.i - 1])
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        k = bisect_left(self.starts, end, self.i)
        if self.kinds[k - 1] == STEP and self.values[k - 1][2] > end:
            # A step runs on past the line's end: its parts after the end
            # take its place, scanned as the tokens they are there.
            k -= 1
            _, target, at = self.values[k]
            self.kinds[k:k + 1], self.values[k:k + 1], self.starts[k:k + 1] = \
                self._scan(end, at + len(target))
        self.i = k
        if text.startswith("\r\n", end - 1):
            end -= 1
        return text[start:end].partition("#")[0], self.locate(start)


_UNARY_KEYWORDS = {"EX": EX, "EF": EF, "EG": EG, "AX": AX, "AF": AF, "AG": AG}
_FORMULA_START = (
    "(", "!", "true", "false", "at", "in", "EX", "EF", "EG", "AX", "AF", "AG", "E", "A",
)


_CTL_MARKS = ("->", "(", ")", "[", "]", "!", "&", "|")


class _Parser:
    def __init__(self, lexer: Lexer):
        self.lx = lexer
        self.values = lexer.values
        self.depth = 0

    def nested(self, opener: int, parse: Callable[[], CtlFormula]):
        """Run `parse` one nesting level below token `opener`, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.lx.fail("formula nested too deep", opener)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse_implies(self) -> CtlFormula:
        left = self.parse_or()
        arrow = self.lx.i
        if self.lx.accept("->"):
            return Implies(left, self.nested(arrow, self.parse_implies))
        return left

    def parse_or(self) -> CtlFormula:
        node = self.parse_and()
        while self.lx.accept("|"):
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> CtlFormula:
        node = self.parse_unary()
        while self.lx.accept("&"):
            node = And(node, self.parse_unary())
        return node

    # Every mark and keyword below has one kind, so its value alone identifies it.
    def parse_unary(self) -> CtlFormula:
        k = self.lx.i
        value = self.values[k]
        if value == "!":
            self.lx.i += 1
            return Not(self.nested(k, self.parse_unary))
        if value in _UNARY_KEYWORDS:
            self.lx.i += 1
            return _UNARY_KEYWORDS[value](self.nested(k, self.parse_unary))
        if value in ("E", "A"):
            self.lx.i += 1
            left, right = self.nested(k, self.parse_until)
            return EU(left, right) if value == "E" else AU(left, right)
        return self.parse_primary()

    def parse_until(self) -> tuple[CtlFormula, CtlFormula]:
        self.lx.expect_punct("[")
        left = self.parse_implies()
        if not self.lx.accept("U"):
            self.lx.fail("expected 'U'", self.lx.i, ("U",))
        right = self.parse_implies()
        self.lx.expect_punct("]")
        return left, right

    def parse_primary(self) -> CtlFormula:
        k = self.lx.i
        value = self.values[k]
        if value == "(":
            self.lx.i += 1
            node = self.nested(k, self.parse_implies)
            self.lx.expect_punct(")")
            return node
        if value in ("true", "false"):
            self.lx.i += 1
            return TRUE if value == "true" else FALSE
        if value in ("at", "in"):
            self.lx.i += 1
            self.lx.expect_punct("(")
            name = self.lx.expect_ident("a state or approach name")
            self.lx.expect_punct(")")
            return Atom(AtomicProposition(value, self.values[name]))
        self.lx.fail("expected a formula", k, _FORMULA_START)


def parse_ctl(text: str, *, start_line: int = 1, start_column: int = 1) -> CtlFormula:
    """Parse concrete CTL syntax; positions in errors are offset by the start point.
    A stray character anywhere is reported before any parse error."""
    lexer = Lexer(text, _CTL_MARKS, CtlSyntaxError,
                  start_line=start_line, start_column=start_column)
    if STRAY in lexer.kinds:
        lexer.fail("unexpected character", lexer.kinds.index(STRAY))
    formula = _Parser(lexer).parse_implies()
    if lexer.kinds[lexer.i] != END:
        lexer.fail("unexpected trailing input", lexer.i, ("end of input", "&", "|", "->"))
    return formula
