"""Normal-form arithmetic for the first Weyl algebra and its localization.

Elements are stored in graded normal form: a finite map from the integer
degree i to a nonzero coefficient f_i, denoting sum f_i(H) * v_i with

    v_i = X^i   (i > 0),      v_i = Y^(-i)   (i < 0),      v_0 = 1.

WeylElement carries Poly coefficients (the algebra generated by X, Y with
Y*X = H and X*Y = H - 1); BElement carries RatFunc coefficients (the skew
Laurent localization at Q[H] \\ {0}).  Multiplication is driven by the
structure constants (n, m) defined by  v_n v_m = (n, m) v_{n+m}.

GradedElement.__mul__ is the one product loop of both classes.  Since
v_i g = sigma^i(g) v_i, the product of f_i v_i and g_j v_j is
f_i sigma^i(g_j) (i, j) v_{i+j}.  The loop collects the triples
(f_i, sigma^i(g_j), (i, j)) of each output degree k = i + j and hands them
to the coefficient ring's sum_of_products, which puts only the sum in
canonical form: Poly sums the integer products over one common
denominator, and RatFunc adds its products with its own operators.  Sums,
negations and scalar multiples build their results directly from
components already nonzero and of the element's ring; only the public
constructor coerces and re-adds what it is given.  An int or Fraction is
read as its numerator and denominator once: a multiple scales each
component through the ring's _scaled, and a sum changes component 0 alone
through the ring's _plus, so neither promotes the scalar to an element.

HomogeneousElement is the X-power presentation coeff * X**degree used by
the centralizer machinery; for negative degrees it differs from the v-basis
by the unit Y^m X^m, the structure constant (-m, m) = H (H+1) ... (H+m-1),
so that Y^m = (-m, m) X^(-m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .polynomials import (
    NEG_INF,
    Poly,
    RatFunc,
    _json_fields,
    _json_list,
    _json_pairs,
    _power,
    falling_window,
    monic_split,
    sigma_pow,
)


# the largest power the text grammar and the generators PhiX and PhiY accept
MAX_EXPONENT = 10_000


@lru_cache(maxsize=4096)
def structure_constant(n: int, m: int) -> Poly:
    """The polynomial (n, m) with v_n v_m = (n, m) v_{n+m}."""
    if n > 0 and m < 0:
        count = min(n, -m)
        # (H - n)(H - n + 1) ... : count ascending factors starting at H - n
        return falling_window(n, count)
    if n < 0 and m > 0:
        count = min(-n, m)
        # (H + |n| - 1)(H + |n| - 2) ... : count descending factors ending at H - n - count
        return falling_window(n + count, count)
    return Poly.one()


def structure_constant_right(n: int, m: int) -> Poly:
    """The right-hand constant <n, m> with (n, m) v_{n+m} = v_{n+m} <n, m>."""
    return sigma_pow(structure_constant(n, m), -(n + m))


class GradedElement:
    """Shared implementation for WeylElement and BElement, each of which
    names its coefficient ring (Poly or RatFunc) as _ring."""

    __slots__ = ("_comp",)

    def __init__(self, components=()):
        if isinstance(components, dict):
            components = components.items()
        comp = {}
        for degree, coeff in components:
            if type(degree) is not int:
                raise TypeError("graded degrees must be integers")
            c = self._coefficient(coeff)
            if degree in comp:
                c = comp[degree] + c
            if c:
                comp[degree] = c
            elif degree in comp:
                del comp[degree]
        self._comp = comp

    @classmethod
    def _coefficient(cls, value):
        """value in the coefficient ring cls._ring; TypeError when it has no place there."""
        c = cls._ring._coerce(value)
        if c is None:
            raise TypeError(f"cannot use {type(value).__name__} as a {cls._ring.__name__} coefficient")
        return c

    @classmethod
    def _canonical(cls, comp: dict):
        """The element with components comp: nonzero coefficients of cls's ring, not copied."""
        element = object.__new__(cls)
        element._comp = comp
        return element

    # -- inspection --------------------------------------------------------

    def components(self):
        """Graded components as ((degree, coefficient), ...) ascending."""
        return tuple(sorted(self._comp.items()))

    def coefficient(self, degree: int):
        return self._comp.get(degree)

    def support(self):
        return frozenset(self._comp)

    def mass(self) -> int:
        return len(self._comp)

    def is_zero(self) -> bool:
        return not self._comp

    def is_homogeneous(self) -> bool:
        return len(self._comp) == 1

    # -- ring operations ----------------------------------------------------

    @classmethod
    def _promote(cls, value):
        """value as an element, a coefficient in degree 0; None when it is neither."""
        if isinstance(value, GradedElement):
            return value
        if isinstance(value, RatFunc):
            cls = BElement
        c = cls._ring._coerce(value)
        if c is None:
            return None
        return cls._canonical({0: c} if c else {})

    @staticmethod
    def _join(a, b):
        """a and b in their common class: BElement if either is one."""
        if type(a) is type(b):
            return a, b
        return a.to_b(), b.to_b()

    def _scaled(self, num: int, den: int):
        """self * (num/den) for coprime integers num and den != 0: a central
        scalar scales each component on its stored integers."""
        if not num:
            return self._canonical({})
        if num == den:
            return self
        return self._canonical({i: c._scaled(num, den) for i, c in self._comp.items()})

    def _plus(self, num: int, den: int):
        """self + num/den for coprime integers num and den > 0: only the
        degree-0 component changes."""
        if not num:
            return self
        comp = dict(self._comp)
        c = comp.get(0)
        c = (self._coefficient(0) if c is None else c)._plus(num, den)
        if c:
            comp[0] = c
        else:
            del comp[0]
        return self._canonical(comp)

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            if isinstance(other, (int, Fraction)):
                return self._plus(other.numerator, other.denominator)
            other = self._promote(other)
            if other is None:
                return NotImplemented
        a, b = self._join(self, other)
        if not a._comp:
            return b
        if not b._comp:
            return a
        comp = dict(a._comp)
        for k, g in b._comp.items():
            f = comp.get(k)
            if f is None:
                comp[k] = g
            else:
                f = f + g
                if f:
                    comp[k] = f
                else:
                    del comp[k]
        return a._canonical(comp)

    __radd__ = __add__

    def __neg__(self):
        return self._canonical({i: -c for i, c in self._comp.items()})

    def __sub__(self, other):
        if not isinstance(other, (GradedElement, int, Fraction)):
            other = self._promote(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            if isinstance(other, (int, Fraction)):
                # central scalars act componentwise; H-coefficients must pass
                # through the shift, so they take the general product below
                return self._scaled(other.numerator, other.denominator)
            other = self._promote(other)
            if other is None:
                return NotImplemented
        a, b = self._join(self, other)
        # the terms of each output degree k, summed once by the coefficient ring
        terms = {}
        for i, f in a._comp.items():
            for j, g in b._comp.items():
                term = (f, g.sigma(i), structure_constant(i, j))
                k = i + j
                if k in terms:
                    terms[k].append(term)
                else:
                    terms[k] = [term]
        sum_of_products = a._ring.sum_of_products
        comp = {}
        for k, ts in terms.items():
            c = sum_of_products(ts)
            if c:
                comp[k] = c
        return a._canonical(comp)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if isinstance(other, Poly):
            # a degree-0 factor on the left needs no shift:
            # f * sum g_j v_j = sum (f g_j) v_j
            if not other:
                return self._canonical({})
            return self._canonical({j: other * g for j, g in self._comp.items()})
        if isinstance(other, RatFunc):
            # a rational coefficient makes the product a BElement
            return self._promote(other) * self
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("element exponent must be a nonnegative integer")
        return _power(self, n) if n else type(self)({0: 1})

    def __eq__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        a, b = self._join(self, o)
        return a._comp == b._comp

    def __hash__(self):
        # equal values hash alike: zero and degree-0 elements as their
        # coefficient (a scalar or Poly equals them), and Weyl and B forms of
        # one element by the same (degree, coefficient) pairs
        comp = self._comp
        if not comp:
            return hash(0)
        if len(comp) == 1 and 0 in comp:
            return hash(comp[0])
        return hash(tuple(sorted(comp.items())))

    def __bool__(self):
        return bool(self._comp)

    # -- serialization -------------------------------------------------------

    @classmethod
    def from_json(cls, obj):
        """Rebuild an element from its JSON form; malformed input raises DomainError.

        The pairs go to the constructor, so a repeated degree adds up.
        """
        items = _json_pairs(_json_list(obj, "components", "an element"), "element")
        return cls((i, cls._ring.from_json(c)) for i, c in items)

    def to_json(self):
        return {"components": [[i, c.to_json()] for i, c in sorted(self._comp.items())]}

    def __repr__(self):
        body = ", ".join(f"{i}: {c}" for i, c in sorted(self._comp.items()))
        return f"{type(self).__name__}({{{body}}})"


class WeylElement(GradedElement):
    """An element of the Weyl algebra in graded normal form (Poly coefficients)."""

    __slots__ = ()
    _ring = Poly

    def to_b(self) -> "BElement":
        return BElement({i: RatFunc(c) for i, c in self._comp.items()})


class BElement(GradedElement):
    """An element of the localized algebra (RatFunc coefficients)."""

    __slots__ = ()
    _ring = RatFunc

    def to_b(self) -> "BElement":
        return self

    def is_weyl(self) -> bool:
        return all(c.is_polynomial() for c in self._comp.values())

    def to_weyl(self) -> WeylElement:
        if not self.is_weyl():
            raise DomainError("element has non-polynomial coefficients")
        return WeylElement({i: c.as_poly() for i, c in self._comp.items()})


X = WeylElement({1: 1})
Y = WeylElement({-1: 1})
H = WeylElement({0: Poly.gen()})
ONE = WeylElement({0: 1})
ZERO = WeylElement()


def mul(a, b):
    return a * b


def commutator(a, b):
    return a * b - b * a


def mass(a) -> int:
    """Number of nonzero graded components; 0 for the zero element."""
    return a.mass()


def components(a):
    return a.components()


def total_degree(a: WeylElement):
    """Degree in the standard filtration by X and Y: max(2 deg f_i + |i|)."""
    if a.is_zero():
        return NEG_INF
    return max(2 * f.degree + abs(i) for i, f in a.components())


def _xi_flip(a: WeylElement, negated: int) -> WeylElement:
    """Send degree i to -i under H -> 1 - H, negating the odd degrees of
    sign negated."""
    if not isinstance(a, WeylElement):
        raise TypeError(f"xi acts on a WeylElement, got {type(a).__name__}")
    comp = {}
    for i, f in a.components():
        g = f.compose_affine(-1, 1)
        if i * negated > 0 and i % 2:
            g = -g
        comp[-i] = g
    return WeylElement(comp)


def xi_apply(a: WeylElement) -> WeylElement:
    """The grading-reversing automorphism X -> Y, Y -> -X (so H -> 1 - H)."""
    return _xi_flip(a, -1)


def xi_inverse_apply(a: WeylElement) -> WeylElement:
    """Inverse of xi_apply: X -> -Y, Y -> X."""
    return _xi_flip(a, 1)


def in_skew_subalgebra(a: WeylElement, side: str) -> bool:
    """Membership in the skew polynomial subalgebra spanned by degrees >= 0
    ("plus") or <= 0 ("minus")."""
    if side == "plus":
        return all(i >= 0 for i in a.support())
    if side == "minus":
        return all(i <= 0 for i in a.support())
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


# ----------------------------------------------------------------------
# homogeneous elements in the X-power presentation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneousElement:
    """coeff * X**degree with coeff in Q(H); the Laurent presentation used
    for centralizer computations.  The constructor coerces coeff into Q(H):
    an int, Fraction or Poly becomes a RatFunc."""

    degree: int
    coeff: RatFunc

    def __post_init__(self):
        if type(self.degree) is not int:
            raise DomainError(f"homogeneous degree must be an integer, got {self.degree!r}")
        coeff = BElement._coefficient(self.coeff)
        if coeff.is_zero():
            raise DomainError("homogeneous elements are nonzero by definition")
        object.__setattr__(self, "coeff", coeff)

    def is_monic(self) -> bool:
        return self.coeff.is_monic()

    def monic_split(self):
        lead, monic = monic_split(self.coeff)
        return lead, HomogeneousElement(self.degree, monic)

    def __mul__(self, other: "HomogeneousElement") -> "HomogeneousElement":
        if not isinstance(other, HomogeneousElement):
            return NotImplemented
        return HomogeneousElement(
            self.degree + other.degree,
            self.coeff * sigma_pow(other.coeff, self.degree),
        )

    def __pow__(self, n: int) -> "HomogeneousElement":
        if not isinstance(n, int) or n < 1:
            raise ValueError("homogeneous power must be a positive integer")
        return _power(self, n)

    def to_graded(self) -> BElement:
        """Convert to the v-basis: X^(-m) = (-m, m)^(-1) v_(-m)."""
        if self.degree >= 0:
            return BElement({self.degree: self.coeff})
        return BElement({self.degree: self.coeff / structure_constant(self.degree, -self.degree)})

    @staticmethod
    def from_graded_component(degree: int, coeff) -> "HomogeneousElement":
        if degree < 0:
            coeff = BElement._coefficient(coeff) * structure_constant(degree, -degree)
        return HomogeneousElement(degree, coeff)

    @staticmethod
    def from_graded(a: GradedElement) -> "HomogeneousElement":
        if not a.is_homogeneous():
            raise DomainError("element is not homogeneous" if a else "the zero element is not homogeneous")
        return HomogeneousElement.from_graded_component(*a.components()[0])

    to_json = _json_fields

    def __str__(self):
        if self.degree == 0:
            return self.coeff.format()
        return f"({self.coeff.format()}) * X^{self.degree}"
