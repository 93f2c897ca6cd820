"""Expression front-end: parsing, normalization, canonical printing.

Grammar (whitespace-insensitive, '*' mandatory between factors):

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := 'X' | 'Y' | 'H' | rational | '(' expr ')'
    rational := int ('/' posint)?

Products are noncommutative and keep their factor order in the tree.
Parenthesized groups nest at most MAX_NESTING deep, exponents are at most
MAX_EXPONENT, and integer literals have at most sys.get_int_max_str_digits()
digits (Python's int-to-str limit, 4300 by default); text beyond any of
these limits raises ParseError.

normalize() evaluates a tree bottom-up and keeps each subtree's value in the
smallest of Q, Q[H] and the Weyl algebra that holds it: literals are
Fractions, H is a Poly, and a value becomes a WeylElement only once X or Y
appears.  Q[H] is the commutative degree-0 part, so sums, products and powers
there need no shift.  A power of one letter has a closed form (X^e = v_e,
Y^e = v_-e, H^e the monomial), and a degree-0 factor on the left of an
element multiplies its components (GradedElement.__rmul__); only a product
whose left factor is an element goes through the graded product.  The value
is lifted to a WeylElement once, at the end.  The printers give the
canonical text form, which parses back to the same element.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import ParseError
from .polynomials import Poly, poly_from_int_coeffs
from .weyl import X, Y, WeylElement

MAX_EXPONENT = 10_000
# deepest parenthesis nesting accepted; parsing and evaluation recurse on it
MAX_NESTING = 100


# ----------------------------------------------------------------------
# free expression trees
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Sym:
    name: str  # "X", "Y" or "H"


@dataclass(frozen=True)
class Lit:
    value: Fraction


# ----------------------------------------------------------------------
# lexer / parser
# ----------------------------------------------------------------------

_PUNCT = {"+", "-", "*", "^", "(", ")", "/"}


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in "XYH":
            tokens.append(("sym", ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _int(tok):
    try:
        return int(tok[1])
    except ValueError:  # the only ValueError int() raises on a decimal string
        raise ParseError(
            f"integer literal has more than {sys.get_int_max_str_digits()} digits", tok[2]
        ) from None


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self):
        terms = []
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        term = self.parse_term()
        terms.append(Neg(term) if sign < 0 else term)
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            term = self.parse_term()
            terms.append(Neg(term) if op == "-" else term)
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.peek()[0] == "*":
            self.advance()
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_factor(self):
        base = self.parse_base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            exponent = _int(tok)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds the limit {MAX_EXPONENT}", tok[2])
            return Power(base, exponent)
        return base

    def parse_base(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "sym":
            return Sym(value)
        if kind == "int":
            numerator = _int(tok)
            if self.peek()[0] == "/":
                self.advance()
                dtok = self.expect("int")
                denominator = _int(dtok)
                if denominator == 0:
                    raise ParseError("zero denominator", dtok[2])
                return Lit(Fraction(numerator, denominator))
            return Lit(Fraction(numerator))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than the limit {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text: str):
    """Parse expression text into a free expression tree."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.expect("end")
    return expr


# ----------------------------------------------------------------------
# evaluation to normal form
# ----------------------------------------------------------------------

_LETTERS = {"X": X, "Y": Y, "H": Poly.gen()}


def _letter_power(name: str, e: int):
    """X^e = v_e, Y^e = v_(-e), H^e the monomial; 1 for e = 0."""
    if not e:
        return Fraction(1)
    if name == "H":
        return poly_from_int_coeffs([0] * e + [1])
    return WeylElement({e if name == "X" else -e: 1})


def _evaluate(expr):
    """The value of a tree in the smallest of Q, Q[H], A_1 that holds it:
    a Fraction, a Poly or a WeylElement."""
    if isinstance(expr, Sym):
        return _LETTERS[expr.name]
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Neg):
        return -_evaluate(expr.arg)
    if isinstance(expr, Sum):
        return reduce(operator.add, map(_evaluate, expr.terms))
    if isinstance(expr, Product):
        return reduce(operator.mul, map(_evaluate, expr.factors))
    if isinstance(expr, Power):
        if isinstance(expr.base, Sym):
            return _letter_power(expr.base.name, expr.exponent)
        return _evaluate(expr.base) ** expr.exponent
    raise TypeError(f"not a free expression node: {type(expr).__name__}")


def normalize(expr) -> WeylElement:
    """Evaluate a free expression tree to graded normal form."""
    # the recursion stays in _evaluate, so a wrapper around normalize
    # (such as a tracing span) sees one call per tree
    value = _evaluate(expr)
    return value if isinstance(value, WeylElement) else WeylElement({0: value})


def normalize_text(text: str) -> WeylElement:
    return normalize(parse(text))


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------

def print_canonical(a: WeylElement) -> str:
    """Canonical text form: components ascending, each coefficient in parens."""
    comps = a.components()
    if not comps:
        return "0"
    parts = []
    for i, f in comps:
        poly = f.format()
        if i == 0:
            parts.append(f"({poly})")
        elif i > 0:
            parts.append(f"({poly})*X^{i}")
        else:
            parts.append(f"({poly})*Y^{-i}")
    return " + ".join(parts)


def format_pretty(a: WeylElement) -> str:
    """Friendlier rendering for CLI text output; still parseable."""
    comps = a.components()
    if not comps:
        return "0"
    if len(comps) == 1:
        i, f = comps[0]
        if i == 0:
            return f.format()
        power = f"X^{i}" if i > 0 else f"Y^{-i}"
        if f == Poly.one():
            return power
        if f.is_constant():
            return f"{f.format()}*{power}"
    return print_canonical(a)
