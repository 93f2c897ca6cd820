"""Tame automorphisms as words in the standard generators.

Generators and their action on (X, Y):

    PhiX(n, lam)      (X, Y) -> (X, Y + lam X^n)        n >= 1
    PhiY(n, lam)      (X, Y) -> (X + lam Y^n, Y)        n >= 1
    Torus(mu)         (X, Y) -> (mu X, mu^-1 Y)         mu != 0
    Translate(c, d)   (X, Y) -> (X + c, Y + d)
    Xi                (X, Y) -> (Y, -X)

A word applies its generators left to right: the first entry acts first.
Its images of X and Y are composed right to left: starting from (X, Y), each
generator, last entry first, replaces the pair (p, q) by its own images
evaluated at (p, q), so a generator costs at most two graded products.
Applying the word to an element then substitutes the images once and
re-normalizes, which preserves commutators because every generator's images
again satisfy the defining relation.

Composition is demand-driven: each formula declares which of p and q it
reads, so a first pass over the word learns which images each step must
produce, and the composition computes only those.  Applying a word to X
composes only the image of X, and to a constant composes nothing.

Each generator class is the one place that states what that generator is:
its formulas _x(p, q) and _y(p, q), its images of X and Y evaluated at the
pair (p, q), with _x_reads and _y_reads naming the images each one reads;
its inverse as a word (inverse_word); its text form (_text); and its JSON
keys (_keys, one per constructor argument, in order).  The private base
_Generator derives images(), to_json() and the JSON reader from these,
writing and reading each key by the declared type of its field: an int as
a JSON integer, a Fraction as a string like "3/2".  PhiX and PhiY share
_Triangular, which validates n (1 <= n <= MAX_EXPONENT, the text grammar's
cap on exponents), builds the inverse, and declares their
keys "n" and "lambda".  A word's JSON entry names its generator's class in
the "gen" key.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import DomainError
from .polynomials import Poly, _as_fraction, _json_list, rat_format, rat_from_json, rat_to_str
from .weyl import MAX_EXPONENT, WeylElement, X, Y


def _signed(scalar, body=""):
    sign = "-" if scalar < 0 else "+"
    return f" {sign} {rat_format(abs(scalar))}{body}"


# which of the pair (p, q) a formula reads, and which images a composition
# step must produce: _P for the image of X, _Q for the image of Y
_P, _Q = 1, 2


class _Generator:
    """images(), to_json() and the JSON reader, derived from the _x, _y and
    _keys of the subclass; _keys names the constructor arguments in JSON, in
    order, and each is written and read by its field's declared type.
    _x_reads and _y_reads say which of p and q the formulas _x and _y read."""

    _keys = ()

    def images(self):
        return self._x(X, Y), self._y(X, Y)

    def to_json(self):
        values = ((k, f.type, getattr(self, f.name)) for k, f in zip(self._keys, fields(self)))
        return {"gen": type(self).__name__, **{k: v if t == "int" else rat_to_str(v) for k, t, v in values}}

    @classmethod
    def _from_json(cls, item):
        args = []
        for key, f in zip(cls._keys, fields(cls)):
            if key not in item:
                raise DomainError(f"{cls.__name__} entry has no {key!r} field")
            value, what = item[key], f"{cls.__name__} field {key!r}"
            if f.type != "int":
                value = rat_from_json(value, what)
            elif type(value) is not int:
                raise DomainError(f"{what} must be an integer, got {value!r}")
            args.append(value)
        return cls(*args)


@dataclass(frozen=True)
class _Triangular(_Generator):
    """PhiX and PhiY: lam times the n-th power of one letter, added to the other."""

    n: int
    lam: Fraction
    _keys = ("n", "lambda")

    def __post_init__(self):
        name = type(self).__name__
        if type(self.n) is not int:
            raise DomainError(f"{name} requires an integer n, got {self.n!r}")
        if self.n < 1:
            raise DomainError(f"{name} requires n >= 1")
        if self.n > MAX_EXPONENT:
            raise DomainError(f"{name} requires n <= {MAX_EXPONENT}, got {self.n}")
        object.__setattr__(self, "lam", _as_fraction(self.lam))

    def inverse_word(self):
        return (type(self)(self.n, -self.lam),)


class PhiX(_Triangular):
    _x_reads, _y_reads = _P, _P | _Q

    def _x(self, p, q):
        return p

    def _y(self, p, q):
        return q + p**self.n * self.lam if self.lam else q

    def _text(self):
        return f"(X, Y{_signed(self.lam, f'*X^{self.n}')})"


class PhiY(_Triangular):
    _x_reads, _y_reads = _P | _Q, _Q

    def _x(self, p, q):
        return p + q**self.n * self.lam if self.lam else p

    def _y(self, p, q):
        return q

    def _text(self):
        return f"(X{_signed(self.lam, f'*Y^{self.n}')}, Y)"


@dataclass(frozen=True)
class Torus(_Generator):
    mu: Fraction
    _keys = ("mu",)
    _x_reads, _y_reads = _P, _Q

    def __post_init__(self):
        mu = _as_fraction(self.mu)
        if not mu:
            raise DomainError("Torus requires a nonzero scalar")
        object.__setattr__(self, "mu", mu)

    def _x(self, p, q):
        return p * self.mu

    def _y(self, p, q):
        return q._scaled(self.mu.denominator, self.mu.numerator)

    def inverse_word(self):
        return (Torus(1 / self.mu),)

    def _text(self):
        return f"({rat_format(self.mu)}*X, {rat_format(1 / self.mu)}*Y)"


@dataclass(frozen=True)
class Translate(_Generator):
    c: Fraction
    d: Fraction
    _keys = ("c", "d")
    _x_reads, _y_reads = _P, _Q

    def __post_init__(self):
        object.__setattr__(self, "c", _as_fraction(self.c))
        object.__setattr__(self, "d", _as_fraction(self.d))

    def _x(self, p, q):
        return p + self.c

    def _y(self, p, q):
        return q + self.d

    def inverse_word(self):
        return (Translate(-self.c, -self.d),)

    def _text(self):
        return f"(X{_signed(self.c)}, Y{_signed(self.d)})"


@dataclass(frozen=True)
class Xi(_Generator):
    _x_reads, _y_reads = _Q, _P

    def _x(self, p, q):
        return q

    def _y(self, p, q):
        return -p

    def inverse_word(self):
        # Xi^4 = id and Xi^2 = Torus(-1), so Xi^-1 = Torus(-1) then Xi
        return (Torus(Fraction(-1)), Xi())

    def _text(self):
        return "(Y, -X)"


_KINDS = {cls.__name__: cls for cls in (PhiX, PhiY, Torus, Translate, Xi)}


def _gen_from_json(item):
    kind = item.get("gen") if isinstance(item, dict) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DomainError(f"word entry {item!r} has no known generator kind")
    return _KINDS[kind]._from_json(item)


@dataclass(frozen=True)
class AutoWord:
    """A finite composition of generators, applied left to right."""

    gens: tuple = ()

    def __post_init__(self):
        gens = tuple(self.gens)
        for gen in gens:
            if not isinstance(gen, _Generator):
                raise DomainError(f"word entry {gen!r} is not a generator")
        object.__setattr__(self, "gens", gens)

    def __len__(self):
        return len(self.gens)

    def __add__(self, other):
        if isinstance(other, AutoWord):
            return AutoWord(self.gens + other.gens)
        return NotImplemented

    def to_json(self):
        return {"word": [g.to_json() for g in self.gens]}

    @staticmethod
    def from_json(obj) -> "AutoWord":
        """Rebuild a word from its JSON form; malformed input raises DomainError."""
        return AutoWord(tuple(_gen_from_json(item) for item in _json_list(obj, "word", "a word")))

    def __str__(self):
        return " ; ".join(g._text() for g in self.gens) if self.gens else "identity"


def _reads(a: WeylElement) -> int:
    """The images that _evaluate(a, ...) reads: that of X for a positive
    degree, that of Y for a negative one, and both for a coefficient that is
    not constant (the image of H is their product)."""
    need = 0
    for i, f in a.components():
        if f.degree:
            return _P | _Q
        if i > 0:
            need |= _P
        elif i < 0:
            need |= _Q
    return need


def _evaluate(a: WeylElement, image_x, image_y) -> WeylElement:
    """Substitute images for X and Y into the normal form of a; an image
    that a does not read (see _reads) may be None."""
    h_image = None
    result = WeylElement()
    for i, f in a.components():
        # each degree occurs once, so each power of an image is taken once
        power = image_x**i if i > 0 else image_y**-i if i < 0 else None
        if not f.degree:
            # a scalar coefficient scales each component of the image by its
            # stored integers, num/den in lowest terms; a constant needs no image
            result = result + (power._scaled(f._c[0], f._den) if power is not None else WeylElement({0: f}))
            continue
        if h_image is None:
            h_image = image_y * image_x
        # Horner evaluation of f at the image of H, from the top coefficient down
        acc = WeylElement({0: f.lc})
        for e in range(f.degree - 1, -1, -1):
            acc = acc * h_image + f.coeff(e)
        term = acc if power is None else acc * power
        result = result + term
    return result


def apply_auto(word: AutoWord, a: WeylElement) -> WeylElement:
    if not isinstance(a, WeylElement):
        raise TypeError(f"apply_auto acts on a WeylElement, got {type(a).__name__}")
    return _evaluate(a, *_images(word, _reads(a)))


def auto_images(word: AutoWord):
    """(image of X, image of Y) under the whole word."""
    return _images(word, _P | _Q)


def _images(word: AutoWord, need: int):
    """(image of X, image of Y) under word, with None for an image that need
    (_P for X, _Q for Y) does not ask for.

    The first pass, front to back, turns what the last composition step must
    produce into what each earlier step must produce; the second composes
    right to left and computes only those images."""
    needs = []
    for gen in word.gens:
        needs.append(need)
        need = (gen._x_reads if need & _P else 0) | (gen._y_reads if need & _Q else 0)
    p, q = X, Y
    for gen, need in zip(reversed(word.gens), reversed(needs)):
        p, q = (gen._x(p, q) if need & _P else None), (gen._y(p, q) if need & _Q else None)
    return p, q


def invert_auto(word: AutoWord) -> AutoWord:
    gens = []
    for gen in reversed(word.gens):
        gens.extend(gen.inverse_word())
    return AutoWord(tuple(gens))


_WORD_LEN_CAP = 1000  # bounds the work; criterion 6 and the benchmark draw at most 5


def random_tame(seed: int, word_len: int = 4, max_n: int = 3, coeff_height: int = 5) -> AutoWord:
    """Deterministic pseudorandom word within the given limits."""
    if word_len < 1 or max_n < 1 or coeff_height < 1:
        raise DomainError("random_tame limits must be positive")
    if word_len > _WORD_LEN_CAP:
        raise DomainError(f"word_len = {word_len} exceeds the cap {_WORD_LEN_CAP}")
    if max_n > MAX_EXPONENT:
        raise DomainError(f"max_n = {max_n} exceeds the cap {MAX_EXPONENT}")
    rng = _random.Random(seed)

    def rat(nonzero=False):
        while True:
            value = Fraction(rng.randint(-coeff_height, coeff_height), rng.randint(1, coeff_height))
            if value or not nonzero:
                return value

    gens = []
    for _ in range(rng.randint(1, word_len)):
        # _KINDS keeps its declaration order, so each seed keeps its word
        kind = rng.choice(tuple(_KINDS.values()))
        if issubclass(kind, _Triangular):
            gens.append(kind(rng.randint(1, max_n), rat()))
        elif kind is Torus:
            gens.append(Torus(rat(nonzero=True)))
        elif kind is Translate:
            gens.append(Translate(rat(), rat()))
        else:
            gens.append(Xi())
    return AutoWord(tuple(gens))


# ----------------------------------------------------------------------
# affine pairs
# ----------------------------------------------------------------------

def _linear_word(a, b, c, d) -> list:
    """Generators realizing X -> c Y + d X, Y -> a Y + b X (det ad - bc = 1),
    listed in application order."""
    if a * d - b * c != 1:
        raise DomainError("affine_decompose requires ad - bc = 1")
    if d:
        # matrix [[d, b], [c, a]] = lower(c/d) * diag(d) * upper(b/d),
        # composed right to left, so the word applies upper first
        word = []
        if b:
            word.append(PhiX(1, b / d))
        if d != 1:
            word.append(Torus(d))
        if c:
            word.append(PhiY(1, c / d))
        return word
    # d == 0 forces b c = -1; peel one Xi: M = (M * M(Xi)^-1) * M(Xi)
    inner = _linear_word(c, d, -a, -b)
    return [Xi()] + inner


def _affine_word(a, b, c, d, lam, mu) -> AutoWord:
    """affine_decompose's word from Fraction entries, not yet checked."""
    gens = [Translate(mu, lam)] if lam or mu else []
    gens.extend(_linear_word(a, b, c, d))
    return AutoWord(tuple(gens))


def affine_decompose(a, b, c, d, lam, mu) -> AutoWord:
    """A word tau with tau(Y) = a Y + b X + lam and tau(X) = c Y + d X + mu."""
    a, b, c, d = _as_fraction(a), _as_fraction(b), _as_fraction(c), _as_fraction(d)
    lam, mu = _as_fraction(lam), _as_fraction(mu)
    word = _affine_word(a, b, c, d, lam, mu)
    expect_y = WeylElement({-1: a, 1: b, 0: Poly.constant(lam)})
    expect_x = WeylElement({-1: c, 1: d, 0: Poly.constant(mu)})
    if auto_images(word) != (expect_x, expect_y):
        raise RuntimeError("affine decomposition failed verification; internal defect")
    return word
