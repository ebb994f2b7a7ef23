import re
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avmkit.ctl import (
    _CTL_MARKS,
    AF,
    AG,
    AU,
    AX,
    EF,
    EG,
    EU,
    EX,
    FALSE,
    TRUE,
    And,
    Atom,
    MAX_NESTING,
    AtomicProposition,
    CtlSyntaxError,
    Implies,
    Lexer,
    Not,
    Or,
    atoms,
    children,
    fold,
    normalize,
    parse_ctl,
    render,
)
from avmkit.dsl import _DOC_MARKS, parse_model
from avmkit.lts import NAME_RE

from conftest import MODEL_FILE
from generators import random_formula


def at(name):
    return Atom(AtomicProposition("at", name))


def shape(f):
    """The tree as nested tuples of node type, own field and children, so
    comparing shapes does not go through `render`."""
    return fold(f, lambda node, kids: (type(node), getattr(node, "value", None),
                                       getattr(node, "prop", None), kids))


class TestParse:
    def test_recovery_property_shape(self):
        f = parse_ctl("AG (at(Recognition) -> EF (at(Done) | at(Aborted)))")
        assert f == AG(Implies(at("Recognition"), EF(Or(at("Done"), at("Aborted")))))

    def test_until(self):
        assert parse_ctl("E [ true U at(Done) ]") == EU(TRUE, at("Done"))
        assert parse_ctl("A [ at(A) U at(B) ]") == AU(at("A"), at("B"))

    def test_unclosed_paren_positioned(self):
        with pytest.raises(CtlSyntaxError) as err:
            parse_ctl("EF at(Done")
        assert err.value.line == 1
        assert err.value.column == 11
        assert ")" in err.value.expected

    def test_precedence(self):
        f = parse_ctl("at(A) & at(B) | at(C) -> at(D)")
        assert f == Implies(Or(And(at("A"), at("B")), at("C")), at("D"))

    def test_implies_right_associative(self):
        f = parse_ctl("at(A) -> at(B) -> at(C)")
        assert f == Implies(at("A"), Implies(at("B"), at("C")))

    def test_unary_binds_tighter_than_and(self):
        f = parse_ctl("!at(A) & EX at(B)")
        assert f == And(Not(at("A")), EX(at("B")))

    def test_constants_and_in_atom(self):
        assert parse_ctl("true") == TRUE
        assert parse_ctl("false") == FALSE
        assert parse_ctl("in(Removal)") == Atom(AtomicProposition("in", "Removal"))

    def test_whitespace_insensitive(self):
        assert parse_ctl("EF(at(Done))") == parse_ctl("EF  (  at ( Done ) )")

    def test_trailing_garbage(self):
        with pytest.raises(CtlSyntaxError) as err:
            parse_ctl("at(A) at(B)")
        assert "end of input" in err.value.expected

    def test_missing_until_keyword(self):
        with pytest.raises(CtlSyntaxError) as err:
            parse_ctl("E [ at(A) at(B) ]")
        assert "U" in err.value.expected

    def test_empty_input(self):
        with pytest.raises(CtlSyntaxError) as err:
            parse_ctl("")
        assert err.value.column == 1

    def test_line_offset(self):
        with pytest.raises(CtlSyntaxError) as err:
            parse_ctl("EF at(Done", start_line=12, start_column=30)
        assert err.value.line == 12
        assert err.value.column == 40

    def test_bad_character(self):
        with pytest.raises(CtlSyntaxError):
            parse_ctl("at(A) % at(B)")

    def test_bad_character_wins_over_earlier_parse_error(self):
        with pytest.raises(CtlSyntaxError) as err:
            parse_ctl("at(A) ) $")
        assert str(err.value).startswith("unexpected character '$'")
        assert (err.value.line, err.value.column) == (1, 9)

    @pytest.mark.parametrize("mark", ["#", "=>", "-"])
    def test_document_marks_are_not_ctl(self, mark):
        with pytest.raises(CtlSyntaxError) as err:
            parse_ctl(f"at(A) {mark} at(B)")
        assert str(err.value).startswith(f"unexpected character {mark[0]!r}")
        assert (err.value.line, err.value.column) == (1, 7)


class TestNestingLimit:
    # (repeated prefix, offset of the nesting token inside it, repeated suffix)
    @pytest.mark.parametrize("prefix, offset, suffix", [
        ("!", 0, ""),
        ("AG ", 0, ""),
        ("(", 0, ")"),
        ("E [ true U ", 0, " ]"),
        ("at(A) -> ", 6, ""),
    ])
    def test_limit_is_exact_and_positioned(self, prefix, offset, suffix):
        def nest(depth):
            return prefix * depth + "at(B)" + suffix * depth

        parse_ctl(nest(MAX_NESTING))
        with pytest.raises(CtlSyntaxError) as err:
            parse_ctl(nest(MAX_NESTING + 1), start_line=4, start_column=10)
        assert str(err.value).startswith("formula nested too deep")
        assert (err.value.line, err.value.column) == (4, 10 + len(prefix) * MAX_NESTING + offset)

    def test_mixed_operators_share_one_limit(self):
        half = MAX_NESTING // 2
        parse_ctl("!(" * half + "true" + ")" * half)
        with pytest.raises(CtlSyntaxError):
            parse_ctl("!(" * half + "!true" + ")" * half)


class TestNormalize:
    def test_ef_is_until(self):
        assert normalize(EF(at("g"))) == EU(TRUE, at("g"))

    def test_ax_dual(self):
        assert normalize(AX(at("f"))) == Not(EX(Not(at("f"))))

    def test_ag_dual(self):
        assert normalize(AG(at("f"))) == Not(EU(TRUE, Not(at("f"))))

    def test_af_dual(self):
        assert normalize(AF(at("f"))) == Not(EG(Not(at("f"))))

    def test_implies_is_disjunction(self):
        assert normalize(Implies(at("f"), at("g"))) == Or(Not(at("f")), at("g"))

    def test_au_expansion(self):
        f, g = at("f"), at("g")
        assert normalize(AU(f, g)) == Not(
            Or(EU(Not(g), And(Not(f), Not(g))), EG(Not(g)))
        )

    def test_core_nodes_only(self):
        rng = Random(17)
        core = (EX, EG, EU, And, Or, Not, Atom)
        for _ in range(100):
            f = normalize(random_formula(rng, ["a", "b", "c"]))
            stack = [f]
            while stack:
                node = stack.pop()
                assert isinstance(node, core) or node in (TRUE, FALSE)
                for attr in ("operand", "left", "right"):
                    child = getattr(node, attr, None)
                    if child is not None:
                        stack.append(child)


class TestFold:
    def test_children_left_to_right(self):
        assert children(EU(at("a"), at("b"))) == (at("a"), at("b"))
        assert children(AX(at("a"))) == (at("a"),)
        assert children(TRUE) == ()
        with pytest.raises(TypeError):
            children("at(a)")

    def test_shared_node_combined_once_children_first(self):
        shared = Or(at("a"), at("b"))
        f = And(EX(shared), EG(shared))
        seen = []

        def combine(node, results):
            seen.append(node)
            assert results == tuple(seen.index(kid) for kid in children(node))
            return len(seen) - 1

        assert fold(f, combine) == 5
        assert [type(node) for node in seen] == [Atom, Atom, Or, EX, EG, And]

    def test_long_chains_need_no_recursion(self):
        chain = at("a")
        for _ in range(20_000):
            chain = And(chain, at("b"))
        assert fold(chain, lambda node, sizes: 1 + sum(sizes)) == 40_001
        assert render(chain) == " & ".join(["at(a)"] + ["at(b)"] * 20_000)
        assert len(list(atoms(normalize(chain)))) == 20_001


class TestRender:
    def test_minimal_parens(self):
        f = AG(Implies(at("Recognition"), EF(Or(at("Done"), at("Aborted")))))
        assert render(f) == "AG (at(Recognition) -> EF (at(Done) | at(Aborted)))"

    def test_plain_unary(self):
        assert render(EF(at("Done"))) == "EF at(Done)"

    def test_until_brackets(self):
        assert render(EU(TRUE, at("Done"))) == "E [ true U at(Done) ]"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_parse_render_roundtrip(self, seed):
        f = random_formula(Random(seed), ["StateA", "StateB", "StateC"])
        assert shape(parse_ctl(render(f))) == shape(f)


class TestEquality:
    CHAIN = " & ".join(["at(Done)"] * 3001)

    def test_long_chain_eq_hash_repr(self):
        f, g = parse_ctl(self.CHAIN), parse_ctl(self.CHAIN)
        assert f == g and hash(f) == hash(g)
        assert f != parse_ctl(self.CHAIN + " & at(End)")
        assert repr(f) == f"parse_ctl({self.CHAIN!r})"

    def test_equal_iff_same_tree(self):
        a, b, c = at("a"), at("b"), at("c")
        assert And(And(a, b), c) == And(And(at("a"), b), c)
        assert hash(And(And(a, b), c)) == hash(And(And(at("a"), b), c))
        assert And(And(a, b), c) != And(a, And(b, c))
        assert Implies(a, b) != Or(Not(a), b)
        assert at("a") != Atom(AtomicProposition("in", "a"))
        assert TRUE != at("true") and TRUE != "true"

    def test_documents_with_a_long_spec_compare(self):
        text = MODEL_FILE.read_text(encoding="utf-8") + f"spec deep on control: {self.CHAIN}\n"
        first, second = parse_model(text), parse_model(text)
        assert first == second
        assert hash(first.properties[-1]) == hash(second.properties[-1])
        assert first.properties[-1].formula == parse_ctl(self.CHAIN)


class TestAtoms:
    def test_collects_every_atom(self):
        f = parse_ctl("AG (at(Recognition) -> E [ in(Removal) U at(Done) ])")
        assert set(atoms(f)) == {
            AtomicProposition("at", "Recognition"),
            AtomicProposition("in", "Removal"),
            AtomicProposition("at", "Done"),
        }

    def test_atom_kind_validated(self):
        with pytest.raises(ValueError):
            AtomicProposition("on", "X")

    def test_atom_subject_is_an_identifier(self):
        # otherwise at(A) & at(B) would also render from one atom
        with pytest.raises(ValueError):
            AtomicProposition("at", "A) & at(B")

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    @example("é")
    @example("_0")
    @example("0_")
    def test_atom_subject_is_exactly_a_name(self, subject):
        if NAME_RE.fullmatch(subject):
            assert AtomicProposition("in", subject).subject == subject
        else:
            with pytest.raises(ValueError):
                AtomicProposition("in", subject)


# The scanner's pattern with plain, backtracking stars, kept as the reference
# the lexer must agree with token for token. A comment runs to its line's end
# (`$`), so no star inside a step can end one early. Where `-` is a mark, a
# step `- name -> name` is one token, with the value (label, target, target
# offset), that starts at its `-`.
def reference_tokens(text, marks, comments):
    skip = r"(?:[ \t\r\n]|#.*$)*" if comments else r"[ \t\r\n]*"
    not_stray = r" \t\r\n#" if comments else r" \t\r\n"
    name = "[A-Za-z_][A-Za-z0-9_]*"
    step = ""
    if "-" in marks:
        marks = [mark for mark in marks if mark != "-"]
        not_stray += "-"
        step = f"|(-)(?:{skip}({name}){skip}->{skip}({name}))?"
    pattern = f"{skip}(?:({'|'.join(map(re.escape, marks))})|({name})|([^{not_stray}])|\\Z{step})"
    tokens = []
    for m in re.finditer(pattern, text, re.MULTILINE):
        if m.lastindex is None:
            break
        if m.lastindex == 6:
            tokens.append((6, (m[5], m[6], m.start(6)), m.start(4)))
        else:
            tokens.append((m.lastindex, m[m.lastindex], m.start(m.lastindex)))
    return tokens


_PIECES = (" ", "\t", "\n", "\r", "\r\n", "#", "\x0b", "a", "Z", "q7", "0", "9", "_", "é",
           *_CTL_MARKS, *_DOC_MARKS, "=", ">", " - a -> ")


class TestLexerReference:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
           st.sampled_from([_CTL_MARKS, _DOC_MARKS]), st.booleans())
    @example("a # b -> c\r\n d", _DOC_MARKS, True)
    @example("a - # c -> d\n l # e\r\n -> # f\n b", _DOC_MARKS, True)
    @example("a -\r\n l\r\n->\r\n b", _DOC_MARKS, True)
    @example("a - l # -> b", _DOC_MARKS, True)
    @example("a - l -> b", _CTL_MARKS, False)
    def test_tokens_and_starts_match_the_reference(self, text, marks, comments):
        lexer = Lexer(text, marks, CtlSyntaxError, comments=comments)
        assert list(zip(lexer.kinds, lexer.values, lexer.starts))[:-5] == \
            reference_tokens(text, marks, comments)
