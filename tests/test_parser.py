import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from weylalg import (
    ParseError,
    Poly,
    WeylElement,
    normalize,
    normalize_text,
    parse,
    print_canonical,
)
from weylalg.parser import (
    MAX_NESTING,
    Lit,
    Neg,
    Power,
    Product,
    Sum,
    Sym,
    _Parser,
    _positions,
    _tokenize,
    _Values,
    format_pretty,
)
from weylalg.weyl import H, ONE, X, Y
from helpers import random_weyl
from rewrite_oracle import rewrite_normalize, rewrite_normalize_text
from tokenize_oracle import tokenize as reference_tokenize

Hp = Poly.gen()


class TestParse:
    def test_product_order_preserved(self):
        tree = parse("Y*X")
        assert tree == Product((Sym("Y"), Sym("X")))

    def test_sum_with_negation(self):
        tree = parse("X^2 - 1/2")
        assert tree == Sum((Power(Sym("X"), 2), Neg(Lit(F(1, 2)))))

    def test_parenthesized_power(self):
        tree = parse("X*(Y+H)^2")
        assert tree == Product((Sym("X"), Power(Sum((Sym("Y"), Sym("H"))), 2)))

    def test_whitespace_insensitive(self):
        assert parse(" X * Y ") == parse("X*Y")

    def test_leading_minus(self):
        assert normalize(parse("-H + 1")) == ONE - H

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("X + * Y")
        assert err.value.position == 4

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("X + Z")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse("1/0")

    def test_exponent_overflow(self):
        with pytest.raises(ParseError):
            parse("X^100000")

    def test_nesting_limit(self):
        assert parse("(" * MAX_NESTING + "X" + ")" * MAX_NESTING) == Sym("X")
        with pytest.raises(ParseError) as err:
            parse("(" * (MAX_NESTING + 1) + "X" + ")" * (MAX_NESTING + 1))
        assert err.value.position == MAX_NESTING
        with pytest.raises(ParseError):
            parse("(" * 5000 + "X" + ")" * 5000)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("X Y")


# text drawn from decimal digits (ASCII, Arabic-Indic, fullwidth), the
# grammar's symbols, Unicode spaces, and junk: digits that are not decimal
# (superscript two, one half), other letters, and any character at all
_text_chars = st.one_of(
    st.sampled_from("0123456789\u0661\u0663\uff12"),
    st.sampled_from("XYH+-*^()/"),
    st.sampled_from(" \t\n\x0b\x1c\u00a0\u2003\u2028\u3000"),
    st.sampled_from("\u00b2\u00bdZxh.,_\u00e9\u200b"),
    st.characters(),
)


def _kind(token):
    """The reference tokenizer's kind of a token text."""
    if not token:
        return "end"
    if token.isdecimal():
        return "int"
    return "sym" if token in "XYH" else token


class TestTokenizer:
    @given(st.lists(_text_chars, max_size=24).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_character_loop(self, text):
        try:
            expected = reference_tokenize(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                _tokenize(text)
            assert (str(err.value), err.value.position) == (str(exc), exc.position)
            return
        tokens, positions = _tokenize(text), _positions(text)
        assert len(tokens) == len(positions)
        assert [(_kind(token), token, pos) for token, pos in zip(tokens, positions)] == expected

    def test_regex_classes_are_the_str_predicates(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


# small free trees over every node kind: literals (zero included), the three
# letters, and powers with exponents 0..3 of letters and of compound bases
_leaves = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=3).map(Lit),
    st.sampled_from([Sym("X"), Sym("Y"), Sym("H")]),
)


def _nodes(children):
    lists = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        children.map(Neg),
        lists.map(Sum),
        lists.map(Product),
        st.builds(Power, children, st.integers(0, 3)),
    )


free_trees = st.recursive(_leaves, _nodes, max_leaves=8)


class TestNormalize:
    @given(free_trees)
    @settings(max_examples=300, deadline=None)
    def test_matches_letter_rewriting(self, tree):
        value = normalize(tree)
        assert isinstance(value, WeylElement)
        assert value == rewrite_normalize(tree, "left")

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0^0", ONE),
            ("H^0", ONE),
            ("(X*Y)^0", ONE),
            ("0*X", WeylElement()),
            ("(H+1)*X", WeylElement({1: Hp + 1})),
            ("X*(H+1)", WeylElement({1: Hp})),
            ("2*3*X", WeylElement({1: 6})),
            ("X*2*Y", WeylElement({0: 2 * Hp - 2})),
            # X^3 Y^5 = (3, -5) v_-2 = (H - 3)(H - 2)(H - 1) Y^2
            ("-(H^2-1)*X^3*Y^5", WeylElement({-2: -(Hp**2 - 1) * (Hp - 3) * (Hp - 2) * (Hp - 1)})),
        ],
    )
    def test_degree_zero_values(self, text, expected):
        value = normalize_text(text)
        assert isinstance(value, WeylElement)
        assert value == expected == rewrite_normalize_text(text)

    def test_defining_relations(self):
        assert normalize_text("Y*X") == H
        assert normalize_text("X*Y") == WeylElement({0: Hp - 1})
        assert normalize_text("Y*X - X*Y") == ONE

    def test_square_of_sum(self):
        # XY + YX = (H-1) + H
        expected = WeylElement({2: 1, -2: 1, 0: 2 * Hp - 1})
        assert normalize_text("(X+Y)^2") == expected

    def test_h_is_first_class(self):
        assert normalize_text("H") == normalize_text("Y*X")
        assert normalize_text("H^2*X") == WeylElement({1: Hp**2})

    def test_coefficient_passage(self):
        # X*H = (H-1)*X
        assert normalize_text("X*H") == WeylElement({1: Hp - 1})
        assert normalize_text("Y*H") == WeylElement({-1: Hp + 1})

    def test_confluence_of_strategies(self):
        rng = random.Random(51)
        texts = [
            "X*(Y+H)^2 - 3*Y*X*Y",
            "(X+Y+1)^3",
            "(H*X - X*H)*(Y^2 + 1/3)",
            "Y^3*X^3 - X^3*Y^3 + H^2",
        ]
        for _ in range(40):
            a = random_weyl(rng, 3, 2, 5, 2)
            b = random_weyl(rng, 3, 2, 5, 2)
            texts.append(f"({print_canonical(a)})*({print_canonical(b)})")
        for text in texts:
            tree = parse(text)
            assert rewrite_normalize(tree, "left") == rewrite_normalize(tree, "tree")
            assert normalize(tree) == rewrite_normalize(tree, "left")

    def test_ring_homomorphism(self):
        rng = random.Random(52)
        for _ in range(60):
            a = random_weyl(rng, 3, 2, 5, 2)
            b = random_weyl(rng, 3, 2, 5, 2)
            ea, eb = print_canonical(a), print_canonical(b)
            if a.is_zero() or b.is_zero():
                continue
            product = rewrite_normalize_text(f"({ea})*({eb})")
            assert product == rewrite_normalize_text(ea) * rewrite_normalize_text(eb)


def _text(tree):
    """Text that parses to the value of a free tree: every compound node in
    parentheses, a negated term of a sum after a binary minus."""
    kind = type(tree)
    if kind is Sym:
        return tree.name
    if kind is Lit:
        return f"({tree.value.numerator}/{tree.value.denominator})"
    if kind is Neg:
        return f"(-{_text(tree.arg)})"
    if kind is Power:
        return f"({_text(tree.base)}^{tree.exponent})"
    if kind is Product:
        return "(" + "*".join(map(_text, tree.factors)) + ")"
    parts = []
    for term in tree.terms:
        sign = " - " if type(term) is Neg else " + "
        parts.append(sign + _text(term.arg if sign == " - " else term))
    return "(" + "".join(parts).removeprefix(" + ").lstrip() + ")"


class TestReader:
    @given(free_trees)
    @settings(max_examples=300, deadline=None)
    def test_evaluating_while_parsing_matches_the_tree_walk(self, tree):
        text = _text(tree)
        assert normalize_text(text) == normalize(parse(text)) == normalize(tree)
        # before the final lift the value lies in the smallest ring the letters allow
        value = _Parser(text, _Values).parse()
        if "X" in text or "Y" in text:
            assert type(value) is WeylElement
        elif "H" in text:
            assert type(value) is Poly
        else:
            assert type(value) is F

    @pytest.mark.parametrize("text", ["X^0", "Y^0", "H^0", "(X)^3", "(1*H)^2", "2*(3 - 3)*X"])
    def test_letter_powers_and_zero(self, text):
        assert normalize_text(text) == normalize(parse(text)) == rewrite_normalize_text(text)

    def test_normalize_rejects_other_objects(self):
        with pytest.raises(TypeError, match="not a free expression node: str"):
            normalize(Sum((Sym("X"), "Y")))


class TestPrint:
    def test_degree_zero(self):
        assert print_canonical(H) == "(H)"

    def test_mixed_degrees_ascending(self):
        assert print_canonical(X + Y) == "(1)*Y^1 + (1)*X^1"

    def test_polynomial_coefficient(self):
        assert print_canonical(WeylElement({2: Hp - 1})) == "(H - 1)*X^2"

    def test_zero(self):
        assert print_canonical(WeylElement()) == "0"

    def test_round_trip_examples(self):
        for text in ("(H)", "(1)*Y^1 + (1)*X^1", "(H - 1)*X^2", "(-3/2*H + 1)*Y^3 + (H^2)"):
            element = normalize_text(text)
            assert normalize_text(print_canonical(element)) == element

    def test_round_trip_random(self):
        rng = random.Random(53)
        for _ in range(300):
            a = random_weyl(rng)
            assert normalize_text(print_canonical(a)) == a

    def test_format_pretty(self):
        assert format_pretty(ONE) == "1"
        assert format_pretty(H) == "H"
        assert format_pretty(X) == "X^1"
        assert format_pretty(X * 3) == "3*X^1"
        assert format_pretty(X + Y) == "(1)*Y^1 + (1)*X^1"
        assert normalize_text(format_pretty(X + Y)) == X + Y
