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

One recursive-descent parser reads the text and hands each node it
recognizes to a builder.  parse() passes the tree builder and returns the
free expression tree.  normalize_text() passes the value builder, so it
evaluates while it parses and builds no tree; normalize() walks a tree
through the same value builder, so the evaluation rules exist once.

The value builder keeps each subtree's value in the smallest of Q, Q[H] and
the Weyl algebra that holds it: literals are Fractions, H is a Poly, and a
value becomes a WeylElement only once X or Y appears.  Q[H] is the
commutative degree-0 part, so sums, products and powers there need no
shift, and a sum of Q[H] terms is added on one integer list and put in
canonical form once.  A power of one letter has a closed form (X^e = v_e,
Y^e = v_-e, H^e the monomial; the one of the letter's ring for e = 0), and a
degree-0 factor on the left of an element multiplies its components
(GradedElement.__rmul__); only a product whose left factor is an element
goes through the graded product.  The value is lifted to a WeylElement once,
at the end.  The printers give the canonical text form, which parses back to
the same element.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import ParseError
from .polynomials import Poly, _poly, poly_sum
from .weyl import MAX_EXPONENT, X, Y, WeylElement

# deepest parenthesis nesting accepted; parsing and evaluation recurse on it
MAX_NESTING = 100

_H = Poly.gen()
_ONE = Poly.one()
_LETTERS = {"X": X, "Y": Y, "H": _H}


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

# a token: a run of decimal digits or one other character that is not
# whitespace (\d and \s are str.isdecimal and str.isspace)
_TOKEN = re.compile(r"\d+|\S")
_SYMBOLS = frozenset("XYH+-*^()/")
# the characters of the usual text, which need no further test
_PLAIN = _SYMBOLS | frozenset("0123456789 ")


def _tokenize(text):
    """The tokens of text, then "" for its end; a stray character raises ParseError."""
    if not _PLAIN.issuperset(text):
        stray = [c for c in set(text) - _SYMBOLS if not (c.isspace() or c.isdecimal())]
        if stray:
            pos = min(map(text.index, stray))
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def _positions(text):
    """The position of each token of text, then len(text); read only for an error."""
    return [match.start() for match in _TOKEN.finditer(text)] + [len(text)]


class _Parser:
    """Recursive descent over the tokens of one text; build makes every node."""

    def __init__(self, text, build):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.build = build

    def error(self, message, i):
        return ParseError(message, _positions(self.text)[i])

    def parse(self):
        node = self.expr()
        token = self.tokens[self.i]
        if token:
            raise self.error(f"expected 'end', found {token!r}", self.i)
        return node

    def integer(self):
        """The value of the next token, which must be a run of decimal digits."""
        i = self.i
        self.i = i + 1
        token = self.tokens[i]
        if not token.isdecimal():
            raise self.error(f"expected 'int', found {token!r}", i)
        try:
            return int(token)
        except ValueError:  # the only ValueError int() raises on a decimal string
            raise self.error(
                f"integer literal has more than {sys.get_int_max_str_digits()} digits", i
            ) from None

    def expr(self):
        tokens, neg = self.tokens, self.build.neg
        token = tokens[self.i]
        if token == "+" or token == "-":
            self.i += 1
        terms = [neg(self.term()) if token == "-" else self.term()]
        token = tokens[self.i]
        while token == "+" or token == "-":
            self.i += 1
            terms.append(neg(self.term()) if token == "-" else self.term())
            token = tokens[self.i]
        return terms[0] if len(terms) == 1 else self.build.sum(terms)

    def term(self):
        tokens, factor = self.tokens, self.factor
        factors = [factor()]
        while tokens[self.i] == "*":
            self.i += 1
            factors.append(factor())
        return factors[0] if len(factors) == 1 else self.build.product(factors)

    def factor(self):
        tokens, build = self.tokens, self.build
        token = tokens[self.i]
        if token in _LETTERS:
            self.i += 1
            base = build.sym(token)
        elif token.isdecimal():
            numerator = self.integer()
            if tokens[self.i] == "/":
                self.i += 1
                i = self.i
                denominator = self.integer()
                if not denominator:
                    raise self.error("zero denominator", i)
                base = build.lit(Fraction(numerator, denominator))
            else:
                base = build.lit(Fraction(numerator))
        elif token == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nest deeper than the limit {MAX_NESTING}", self.i)
            self.i += 1
            self.depth += 1
            base = self.expr()
            if tokens[self.i] != ")":
                raise self.error(f"expected ')', found {tokens[self.i]!r}", self.i)
            self.i += 1
            self.depth -= 1
        else:
            raise self.error(f"unexpected token {token!r}", self.i)
        if tokens[self.i] != "^":
            return base
        self.i += 1
        i = self.i
        exponent = self.integer()
        if exponent > MAX_EXPONENT:
            raise self.error(f"exponent {exponent} exceeds the limit {MAX_EXPONENT}", i)
        return build.power(base, exponent)


class _Tree:
    """Node builder for parse(): the free expression tree."""

    sym, lit, neg, power = Sym, Lit, Neg, Power

    @staticmethod
    def sum(terms):
        return Sum(tuple(terms))

    @staticmethod
    def product(factors):
        return Product(tuple(factors))


def parse(text: str):
    """Parse expression text into a free expression tree."""
    return _Parser(text, _Tree).parse()


# ----------------------------------------------------------------------
# evaluation to normal form
# ----------------------------------------------------------------------

class _Values:
    """Node builder for normalize_text() and normalize(): the value of each
    node in the smallest of Q, Q[H], A_1 that holds it, a Fraction, a Poly or
    a WeylElement."""

    sym = staticmethod(_LETTERS.__getitem__)
    neg = staticmethod(operator.neg)

    @staticmethod
    def lit(value):
        return value

    @staticmethod
    def sum(terms):
        kinds = set(map(type, terms))
        if WeylElement in kinds:
            return reduce(operator.add, terms)
        total = poly_sum(terms)
        return total if Poly in kinds else total.coeff(0)

    @staticmethod
    def product(factors):
        if len(factors) == 2 and type(factors[0]) is Fraction and type(factors[1]) is Poly:
            # c*H^e, the shape of each printed coefficient term: the Poly
            # scales its integer list, with no detour through Fraction.__mul__
            return factors[1] * factors[0]
        return reduce(operator.mul, factors)

    @staticmethod
    def power(base, exponent):
        # each letter evaluates to one shared object, so identity finds a letter's power
        if base is X or base is Y:
            return WeylElement._canonical({exponent if base is X else -exponent: _ONE})
        if base is _H:
            return _poly([0] * exponent + [1])
        return base ** exponent


# how each tree node folds through the value builder
_FOLD = {
    Sym: lambda node: _Values.sym(node.name),
    Lit: lambda node: _Values.lit(node.value),
    Neg: lambda node: _Values.neg(_evaluate(node.arg)),
    Sum: lambda node: _Values.sum([_evaluate(term) for term in node.terms]),
    Product: lambda node: _Values.product([_evaluate(factor) for factor in node.factors]),
    Power: lambda node: _Values.power(_evaluate(node.base), node.exponent),
}


def _evaluate(expr):
    """The value of a free tree, folded through the value builder."""
    fold = _FOLD.get(type(expr))
    if fold is None:
        raise TypeError(f"not a free expression node: {type(expr).__name__}")
    return fold(expr)


def normalize(expr) -> WeylElement:
    """Evaluate a free expression tree to graded normal form."""
    # the recursion stays in _evaluate, so a wrapper around normalize
    # (such as a tracing span) sees one call per tree
    return WeylElement._promote(_evaluate(expr))


def normalize_text(text: str) -> WeylElement:
    """Evaluate expression text to graded normal form while parsing it."""
    return WeylElement._promote(_Parser(text, _Values).parse())


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
