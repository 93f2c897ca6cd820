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
Applying the word to an element then substitutes the two images once and
re-normalizes, which preserves commutators because every generator's images
again satisfy the defining relation.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .polynomials import Poly, _as_fraction, _json_list, rat_format, rat_from_json, rat_to_str
from .weyl import WeylElement, X, Y

__all__ = [
    "PhiX",
    "PhiY",
    "Torus",
    "Translate",
    "Xi",
    "AutoWord",
    "apply_auto",
    "invert_auto",
    "random_tame",
    "affine_decompose",
]


@dataclass(frozen=True)
class PhiX:
    n: int
    lam: Fraction

    def __post_init__(self):
        if type(self.n) is not int:
            raise DomainError(f"PhiX requires an integer n, got {self.n!r}")
        if self.n < 1:
            raise DomainError("PhiX requires n >= 1")
        object.__setattr__(self, "lam", _as_fraction(self.lam))

    def _compose(self, p, q):
        return p, q + p**self.n * self.lam

    def images(self):
        return self._compose(X, Y)

    def inverse_word(self):
        return (PhiX(self.n, -self.lam),)

    def to_json(self):
        return {"gen": "PhiX", "n": self.n, "lambda": rat_to_str(self.lam)}


@dataclass(frozen=True)
class PhiY:
    n: int
    lam: Fraction

    def __post_init__(self):
        if type(self.n) is not int:
            raise DomainError(f"PhiY requires an integer n, got {self.n!r}")
        if self.n < 1:
            raise DomainError("PhiY requires n >= 1")
        object.__setattr__(self, "lam", _as_fraction(self.lam))

    def _compose(self, p, q):
        return p + q**self.n * self.lam, q

    def images(self):
        return self._compose(X, Y)

    def inverse_word(self):
        return (PhiY(self.n, -self.lam),)

    def to_json(self):
        return {"gen": "PhiY", "n": self.n, "lambda": rat_to_str(self.lam)}


@dataclass(frozen=True)
class Torus:
    mu: Fraction

    def __post_init__(self):
        mu = _as_fraction(self.mu)
        if not mu:
            raise DomainError("Torus requires a nonzero scalar")
        object.__setattr__(self, "mu", mu)

    def _compose(self, p, q):
        return p * self.mu, q * (1 / self.mu)

    def images(self):
        return self._compose(X, Y)

    def inverse_word(self):
        return (Torus(1 / self.mu),)

    def to_json(self):
        return {"gen": "Torus", "mu": rat_to_str(self.mu)}


@dataclass(frozen=True)
class Translate:
    c: Fraction
    d: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", _as_fraction(self.c))
        object.__setattr__(self, "d", _as_fraction(self.d))

    def _compose(self, p, q):
        return p + self.c, q + self.d

    def images(self):
        return self._compose(X, Y)

    def inverse_word(self):
        return (Translate(-self.c, -self.d),)

    def to_json(self):
        return {"gen": "Translate", "c": rat_to_str(self.c), "d": rat_to_str(self.d)}


@dataclass(frozen=True)
class Xi:
    def _compose(self, p, q):
        return q, -p

    def images(self):
        return self._compose(X, Y)

    def inverse_word(self):
        # Xi^4 = id and Xi^2 = Torus(-1), so Xi^-1 = Torus(-1) then Xi
        return (Torus(Fraction(-1)), Xi())

    def to_json(self):
        return {"gen": "Xi"}


_GENERATORS = (PhiX, PhiY, Torus, Translate, Xi)

# generator kind -> (class, JSON fields in constructor order)
_GEN_JSON = {
    "PhiX": (PhiX, ("n", "lambda")),
    "PhiY": (PhiY, ("n", "lambda")),
    "Torus": (Torus, ("mu",)),
    "Translate": (Translate, ("c", "d")),
    "Xi": (Xi, ()),
}


def _gen_from_json(item):
    kind = item.get("gen") if isinstance(item, dict) else None
    if not isinstance(kind, str) or kind not in _GEN_JSON:
        raise DomainError(f"word entry {item!r} has no known generator kind")
    cls, fields = _GEN_JSON[kind]
    return cls(*(_field_from_json(kind, item, field) for field in fields))


def _field_from_json(kind, item, field):
    if field not in item:
        raise DomainError(f"{kind} entry has no {field!r} field")
    value = item[field]
    if field == "n":
        if type(value) is not int:
            raise DomainError(f"{kind} field 'n' must be an integer, got {value!r}")
        return value
    return rat_from_json(value, f"{kind} field {field!r}")


@dataclass(frozen=True)
class AutoWord:
    """A finite composition of generators, applied left to right."""

    gens: tuple = ()

    def __post_init__(self):
        gens = tuple(self.gens)
        for gen in gens:
            if not isinstance(gen, _GENERATORS):
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
        if not self.gens:
            return "identity"

        def signed(scalar, body=""):
            sign = "-" if scalar < 0 else "+"
            return f" {sign} {rat_format(abs(scalar))}{body}"

        return " ; ".join(
            {
                "PhiX": lambda g: f"(X, Y{signed(g.lam, f'*X^{g.n}')})",
                "PhiY": lambda g: f"(X{signed(g.lam, f'*Y^{g.n}')}, Y)",
                "Torus": lambda g: f"({rat_format(g.mu)}*X, {rat_format(1 / g.mu)}*Y)",
                "Translate": lambda g: f"(X{signed(g.c)}, Y{signed(g.d)})",
                "Xi": lambda g: "(Y, -X)",
            }[type(g).__name__](g)
            for g in self.gens
        )


def _evaluate(a: WeylElement, image_x: WeylElement, image_y: WeylElement) -> WeylElement:
    """Substitute images for X and Y into the normal form of a."""
    h_image = None
    result = WeylElement()
    pow_cache: dict[int, WeylElement] = {}

    def vpow(i: int) -> WeylElement:
        if i not in pow_cache:
            base = image_x if i > 0 else image_y
            pow_cache[i] = base ** abs(i)
        return pow_cache[i]

    for i, f in a.components():
        if not f.degree:
            # a scalar coefficient multiplies each component of the image
            result = result + vpow(i) * f.lc
            continue
        if h_image is None:
            h_image = image_y * image_x
        # Horner evaluation of f at the image of H, from the top coefficient down
        *lower, (last, top) = f.terms
        acc = WeylElement({0: top})
        for e, c in reversed(lower):
            for _ in range(last - e):
                acc = acc * h_image
            acc = acc + c
            last = e
        for _ in range(last):
            acc = acc * h_image
        term = acc if i == 0 else acc * vpow(i)
        result = result + term
    return result


def apply_auto(word: AutoWord, a: WeylElement) -> WeylElement:
    if not isinstance(a, WeylElement):
        raise TypeError(f"apply_auto acts on a WeylElement, got {type(a).__name__}")
    return _evaluate(a, *auto_images(word))


def auto_images(word: AutoWord):
    """(image of X, image of Y) under the whole word."""
    p, q = X, Y
    for gen in reversed(word.gens):
        p, q = gen._compose(p, q)
    return p, q


def invert_auto(word: AutoWord) -> AutoWord:
    gens = []
    for gen in reversed(word.gens):
        gens.extend(gen.inverse_word())
    return AutoWord(tuple(gens))


def random_tame(seed: int, word_len: int = 4, max_n: int = 3, coeff_height: int = 5) -> AutoWord:
    """Deterministic pseudorandom word within the given limits."""
    if word_len < 1 or max_n < 1 or coeff_height < 1:
        raise DomainError("random_tame limits must be positive")
    rng = _random.Random(seed)

    def rat(nonzero=False):
        while True:
            value = Fraction(rng.randint(-coeff_height, coeff_height), rng.randint(1, coeff_height))
            if value or not nonzero:
                return value

    gens = []
    for _ in range(rng.randint(1, word_len)):
        kind = rng.choice(("PhiX", "PhiY", "Torus", "Translate", "Xi"))
        if kind == "PhiX":
            gens.append(PhiX(rng.randint(1, max_n), rat()))
        elif kind == "PhiY":
            gens.append(PhiY(rng.randint(1, max_n), rat()))
        elif kind == "Torus":
            gens.append(Torus(rat(nonzero=True)))
        elif kind == "Translate":
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


def affine_decompose(a, b, c, d, lam, mu) -> AutoWord:
    """A word tau with tau(Y) = a Y + b X + lam and tau(X) = c Y + d X + mu."""
    a, b, c, d = _as_fraction(a), _as_fraction(b), _as_fraction(c), _as_fraction(d)
    lam, mu = _as_fraction(lam), _as_fraction(mu)
    gens = []
    if lam or mu:
        gens.append(Translate(mu, lam))
    gens.extend(_linear_word(a, b, c, d))
    word = AutoWord(tuple(gens))
    expect_y = WeylElement({-1: a, 1: b, 0: Poly.constant(lam)})
    expect_x = WeylElement({-1: c, 1: d, 0: Poly.constant(mu)})
    if apply_auto(word, Y) != expect_y or apply_auto(word, X) != expect_x:
        raise RuntimeError("affine decomposition failed verification; internal defect")
    return word
