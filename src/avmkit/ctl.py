"""CTL formulas: abstract syntax, concrete-syntax parser, normalizer, renderer.

`normalize`, `render` and both engines walk formulas with one `fold`:
iterative, children first, each distinct node once.

Concrete syntax: atoms ``at(Name)`` / ``in(Name)``, constants ``true`` /
``false``, boolean operators ``! & | ->``, temporal unaries ``EX EF EG AX AF
AG``, and until forms ``E [ f U g ]`` / ``A [ f U g ]``. Precedence is
``!``/temporal > ``&`` > ``|`` > ``->`` with ``->`` right-associative.
Parentheses, negations, temporal operators, until brackets and implications
nest at most ``MAX_NESTING`` deep; deeper text is a syntax error.

This grammar and the model document's (`dsl`) share one `Lexer`: the same
identifiers, whitespace and positions, each grammar with its own marks. CTL's
marks are ``-> ( ) [ ] ! & |``; it has no comments, and a formula is scanned
whole before it is parsed, so a bad character anywhere is the error reported.
"""

import bisect
import re
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from functools import cache, cached_property
from typing import Callable, Iterator, NamedTuple, NoReturn, TypeVar

from .lts import NAME_RE


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


@dataclass(frozen=True)
class AtomicProposition:
    """A labeling atom: ``at(state)`` or ``in(approach)``."""

    kind: str
    subject: str

    def __post_init__(self):
        if self.kind not in ("at", "in"):
            raise ValueError(f"atom kind must be 'at' or 'in', not {self.kind!r}")
        # Formula equality compares rendered text, which only names tell apart.
        if not NAME_RE.fullmatch(self.subject):
            raise ValueError(f"atom subject must be an identifier, not {self.subject!r}")

    def __str__(self) -> str:
        return f"{self.kind}({self.subject})"


class CtlFormula:
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

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # Rebuild through the constructor: restoring slots by assignment would raise.
    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

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


@cache
def _patterns(marks: tuple[str, ...], comments: bool) -> tuple[Callable, Callable]:
    """Matchers for skipped text then a mark (group 1) or a name (group 2),
    and for the skipped text alone."""
    # The lookahead keeps a failed match from backtracking into a comment.
    skip = r"(?:[ \t\r\n]|#[^\n]*(?=\n|\Z))*" if comments else r"[ \t\r\n]*"
    token = f"{skip}(?:({'|'.join(map(re.escape, marks))})|({NAME_RE.pattern}))"
    return re.compile(token).match, re.compile(skip).match


_REST_OF_LINE = re.compile(r"[^\n#]*")


class Token(NamedTuple):
    kind: str  # "ident" | "punct" | "eof", or "text" for a raw rest of line
    value: str
    offset: int


class Lexer:
    """Tokens and a peek/take cursor over one text, for either grammar.

    `marks` lists the punctuation, two-character marks first. `comments`
    skips ``#`` to end of line. Errors are built by
    `error(message, line, column, expected)`; positions count from
    `start_line`/`start_column`, which locate the text inside a larger one.
    """

    def __init__(self, text: str, marks: tuple[str, ...], error: Callable[..., Exception], *,
                 comments: bool = False, start_line: int = 1, start_column: int = 1):
        self.text = text
        self.error = error
        self.match_token, self.match_skip = _patterns(marks, comments)
        self.start_line = start_line
        self.start_column = start_column
        self.cursor = 0
        self.buffer: deque[Token] = deque()

    # Built on first use: a formula that parses never needs a position.
    @cached_property
    def line_starts(self) -> list[int]:
        return [0] + [m.end() for m in re.finditer("\n", self.text)]

    def position(self, offset: int) -> tuple[int, int]:
        """(line, column) of a text offset, shifted by the start point."""
        index = bisect.bisect_right(self.line_starts, offset) - 1
        column = offset - self.line_starts[index] + 1
        if index == 0:
            return self.start_line, self.start_column + column - 1
        return self.start_line + index, column

    def fail(self, message: str, tok: Token, expected: tuple[str, ...] = ()) -> NoReturn:
        raise self.error(message, *self.position(tok.offset), expected)

    def _scan(self) -> Token:
        m = self.match_token(self.text, self.cursor)
        if m is None:
            start = self.match_skip(self.text, self.cursor).end()
            if start < len(self.text):
                raise self.error(f"unexpected character {self.text[start]!r}",
                                 *self.position(start), ())
            self.cursor = start
            return Token("eof", "", start)
        self.cursor = m.end()
        group = m.lastindex
        return Token("punct" if group == 1 else "ident", m.group(group), m.start(group))

    def scan_all(self) -> None:
        """Scan to the end now, so that a bad character anywhere is reported
        before any parse error."""
        while not self.buffer or self.buffer[-1].kind != "eof":
            self.buffer.append(self._scan())

    def peek(self, ahead: int = 0) -> Token:
        while len(self.buffer) <= ahead:
            self.buffer.append(self._scan())
        return self.buffer[ahead]

    def take(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.buffer.popleft()
        return tok

    def accept(self, value: str) -> Token | None:
        """Take the next token if it is the mark or name `value`."""
        if self.peek().value == value:
            return self.take()
        return None

    def expect_ident(self, description: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected {description}", tok, ("identifier",))
        return self.take()

    def expect_punct(self, value: str) -> Token:
        tok = self.peek()
        if not (tok.kind == "punct" and tok.value == value):
            self.fail(f"expected '{value}'", tok, (value,))
        return self.take()

    def take_rest_of_line(self) -> Token:
        """The raw text from the cursor to end of line, ``#`` comment
        stripped, as one "text" token; the cursor moves past that line.
        Call it with no token peeked."""
        start = self.cursor
        eol = self.text.find("\n", start)
        self.cursor = len(self.text) if eol == -1 else eol + 1
        return Token("text", _REST_OF_LINE.match(self.text, start).group(), start)


_UNARY_KEYWORDS = {"EX": EX, "EF": EF, "EG": EG, "AX": AX, "AF": AF, "AG": AG}
_FORMULA_START = (
    "(", "!", "true", "false", "at", "in", "EX", "EF", "EG", "AX", "AF", "AG", "E", "A",
)


_CTL_MARKS = ("->", "(", ")", "[", "]", "!", "&", "|")


class _Parser:
    def __init__(self, lexer: Lexer):
        self.lx = lexer
        self.depth = 0

    def nested(self, opener: Token, parse: Callable[[], CtlFormula]):
        """Run `parse` one nesting level below `opener`, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.lx.fail("formula nested too deep", opener)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse_implies(self) -> CtlFormula:
        left = self.parse_or()
        arrow = self.lx.accept("->")
        if arrow:
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

    def parse_unary(self) -> CtlFormula:
        tok = self.lx.peek()
        if tok.kind == "punct" and tok.value == "!":
            self.lx.take()
            return Not(self.nested(tok, self.parse_unary))
        if tok.kind == "ident" and tok.value in _UNARY_KEYWORDS:
            self.lx.take()
            return _UNARY_KEYWORDS[tok.value](self.nested(tok, self.parse_unary))
        if tok.kind == "ident" and tok.value in ("E", "A"):
            self.lx.take()
            left, right = self.nested(tok, self.parse_until)
            return EU(left, right) if tok.value == "E" else AU(left, right)
        return self.parse_primary()

    def parse_until(self) -> tuple[CtlFormula, CtlFormula]:
        self.lx.expect_punct("[")
        left = self.parse_implies()
        if not self.lx.accept("U"):
            self.lx.fail("expected 'U'", self.lx.peek(), ("U",))
        right = self.parse_implies()
        self.lx.expect_punct("]")
        return left, right

    def parse_primary(self) -> CtlFormula:
        tok = self.lx.peek()
        if tok.kind == "punct" and tok.value == "(":
            self.lx.take()
            node = self.nested(tok, self.parse_implies)
            self.lx.expect_punct(")")
            return node
        if tok.kind == "ident":
            if tok.value == "true":
                self.lx.take()
                return TRUE
            if tok.value == "false":
                self.lx.take()
                return FALSE
            if tok.value in ("at", "in"):
                self.lx.take()
                self.lx.expect_punct("(")
                name = self.lx.expect_ident("a state or approach name")
                self.lx.expect_punct(")")
                return Atom(AtomicProposition(tok.value, name.value))
        self.lx.fail("expected a formula", tok, _FORMULA_START)


def parse_ctl(text: str, *, start_line: int = 1, start_column: int = 1) -> CtlFormula:
    """Parse concrete CTL syntax; positions in errors are offset by the start point."""
    lexer = Lexer(text, _CTL_MARKS, CtlSyntaxError,
                  start_line=start_line, start_column=start_column)
    lexer.scan_all()
    formula = _Parser(lexer).parse_implies()
    tok = lexer.peek()
    if tok.kind != "eof":
        lexer.fail("unexpected trailing input", tok, ("end of input", "&", "|", "->"))
    return formula
