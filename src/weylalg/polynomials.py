"""Exact arithmetic in Q[H] and Q(H) with the shift automorphism.

Polynomials in the single variable H are stored sparsely as a tuple of
(exponent, coefficient) pairs in ascending exponent order; coefficients are
``fractions.Fraction`` values and zero coefficients are never stored.  The
degree of the zero polynomial is the absorbing sentinel ``NEG_INF``.

Rational functions are kept in a canonical form: numerator and denominator
coprime, denominator monic.  The shift automorphism acts by
``sigma(f)(H) = f(H - 1)``, so ``sigma_pow(f, i)`` substitutes ``H - i``
for ``H``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .errors import DomainError

NEG_INF = float("-inf")

Rat = Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def rat_to_str(c: Fraction) -> str:
    """Canonical serialization of a rational: always ``num/den``."""
    return f"{c.numerator}/{c.denominator}"


def rat_from_str(text: str) -> Fraction:
    return Fraction(text)


class Poly:
    """A univariate polynomial over Q in the variable H."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict[int, Fraction] = {}
        for exp, coeff in terms:
            if not isinstance(exp, int) or exp < 0:
                raise ValueError(f"exponent must be a nonnegative integer, got {exp!r}")
            c = _as_fraction(coeff)
            if c:
                c = acc.get(exp, Fraction(0)) + c
                if c:
                    acc[exp] = c
                elif exp in acc:
                    del acc[exp]
        object.__setattr__(self, "_terms", tuple(sorted(acc.items())))

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def gen() -> "Poly":
        """The variable H."""
        return _GEN

    @staticmethod
    def constant(c) -> "Poly":
        return Poly(((0, _as_fraction(c)),))

    @staticmethod
    def linear(shift) -> "Poly":
        """H + shift."""
        return Poly(((1, Fraction(1)), (0, _as_fraction(shift))))

    # -- inspection --------------------------------------------------------

    @property
    def terms(self):
        return self._terms

    @property
    def degree(self):
        return self._terms[-1][0] if self._terms else NEG_INF

    @property
    def lc(self) -> Fraction:
        """Leading coefficient; zero for the zero polynomial."""
        return self._terms[-1][1] if self._terms else Fraction(0)

    def coeff(self, exp: int) -> Fraction:
        for e, c in self._terms:
            if e == exp:
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return len(self._terms) == 0 or (len(self._terms) == 1 and self._terms[0][0] == 0)

    def is_monic(self) -> bool:
        return bool(self._terms) and self._terms[-1][1] == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise DomainError(f"{self} is not a constant")
        return self._terms[0][1] if self._terms else Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(self._terms + other._terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple((e, -c) for e, c in self._terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return _ZERO
            return Poly(tuple((e, k * c) for e, k in self._terms))
        if not isinstance(other, Poly):
            return NotImplemented
        # structure_constant returns the shared _ONE for most degree pairs
        if other is _ONE:
            return self
        if self is _ONE:
            return other
        acc: dict[int, Fraction] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = e1 + e2
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return Poly(acc.items())

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result, base = _ONE, self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __divmod__(self, other: "Poly"):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self._terms)
        quo: dict[int, Fraction] = {}
        dlead, clead = other._terms[-1]
        while rem:
            e = max(rem)
            if e < dlead:
                break
            factor = rem[e] / clead
            quo[e - dlead] = factor
            for e2, c2 in other._terms:
                k = e - dlead + e2
                v = rem.get(k, Fraction(0)) - factor * c2
                if v:
                    rem[k] = v
                elif k in rem:
                    del rem[k]
        return Poly(quo.items()), Poly(rem.items())

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(("Poly", self._terms))

    def __bool__(self):
        return bool(self._terms)

    # -- substitution ------------------------------------------------------

    def compose_affine(self, a, b) -> "Poly":
        """Substitute a*H + b for H."""
        a = _as_fraction(a)
        b = _as_fraction(b)
        arg = Poly(((1, a), (0, b)))
        result = _ZERO
        power = _ONE
        last = 0
        for e, c in self._terms:
            for _ in range(e - last):
                power = power * arg
            last = e
            result = result + power * c
        return result

    def sigma(self, i: int) -> "Poly":
        """Apply the i-th power of the shift: H -> H - i."""
        if i == 0:
            return self
        return self.compose_affine(1, -i)

    def evaluate(self, x) -> Fraction:
        x = _as_fraction(x)
        total = Fraction(0)
        for e, c in self._terms:
            total += c * x**e
        return total

    def derivative(self) -> "Poly":
        return Poly(tuple((e - 1, c * e) for e, c in self._terms if e))

    def monic(self) -> "Poly":
        if self.is_zero():
            raise DomainError("the zero polynomial has no monic associate")
        return self * (1 / self.lc)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {"poly": [[e, rat_to_str(c)] for e, c in self._terms]}

    @staticmethod
    def from_json(obj) -> "Poly":
        return Poly((int(e), rat_from_str(c)) for e, c in obj["poly"])

    def format(self) -> str:
        """Human text form, descending exponents, e.g. ``H^2 - 3/2*H + 1``."""
        if not self._terms:
            return "0"
        parts = []
        for e, c in reversed(self._terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "H" if e == 1 else f"H^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"Poly({self.format()!r})"


_ZERO = Poly.__new__(Poly)
object.__setattr__(_ZERO, "_terms", ())
_ONE = Poly.__new__(Poly)
object.__setattr__(_ONE, "_terms", ((0, Fraction(1)),))
_GEN = Poly.__new__(Poly)
object.__setattr__(_GEN, "_terms", ((1, Fraction(1)),))

H = _GEN


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in Q[H]; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


class RatFunc:
    """A rational function in H over Q, kept gcd-reduced with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Poly.constant(num)
        if den is None:
            den = _ONE
        elif isinstance(den, (int, Fraction)):
            den = Poly.constant(den)
        if den.is_zero():
            raise DomainError("rational function with zero denominator")
        if num.is_zero():
            num, den = _ZERO, _ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            c = den.lc
            if c != 1:
                inv = 1 / c
                num, den = num * inv, den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- inspection --------------------------------------------------------

    @property
    def degree(self):
        """deg num - deg den; NEG_INF for zero."""
        if self.num.is_zero():
            return NEG_INF
        return self.num.degree - self.den.degree

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den == _ONE

    def is_polynomial(self) -> bool:
        return self.den == _ONE

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise DomainError(f"{self} is not a polynomial")
        return self.num

    def constant_value(self) -> Fraction:
        return self.as_poly().constant_value()

    def is_monic(self) -> bool:
        return self.num.is_monic() and self.den.is_monic()

    # -- field operations --------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, (int, Fraction, Poly)):
            return RatFunc(value if isinstance(value, Poly) else Poly.constant(value))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "RatFunc":
        return 1 / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("rational-function exponent must be an integer")
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = RatFunc(_ONE)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash(("RatFunc", self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def sigma(self, i: int) -> "RatFunc":
        if i == 0:
            return self
        return RatFunc(self.num.sigma(i), self.den.sigma(i))

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "ratfunc": {
                "num": self.num.to_json()["poly"],
                "den": self.den.to_json()["poly"],
            }
        }

    @staticmethod
    def from_json(obj) -> "RatFunc":
        body = obj["ratfunc"]
        return RatFunc(
            Poly.from_json({"poly": body["num"]}),
            Poly.from_json({"poly": body["den"]}),
        )

    def format(self) -> str:
        if self.den == _ONE:
            return self.num.format()
        return f"({self.num.format()})/({self.den.format()})"

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"RatFunc({self.format()!r})"


def sigma_pow(f, i: int):
    """Apply the i-th power of the shift automorphism: H -> H - i.

    Works on Poly and RatFunc alike and returns the same type.
    """
    if isinstance(f, (Poly, RatFunc)):
        return f.sigma(i)
    raise TypeError(f"sigma_pow expects Poly or RatFunc, got {type(f).__name__}")


def delta_op(f, i: int):
    """(1 - sigma^i)(f) = f(H) - f(H - i); drops the degree by exactly one."""
    if i == 0:
        raise DomainError("delta_op requires a nonzero shift exponent")
    return f - sigma_pow(f, i)


def rat_deg(h):
    """Degree of a Poly or RatFunc, with NEG_INF for zero."""
    if isinstance(h, (Poly, RatFunc)):
        return h.degree
    raise TypeError(f"rat_deg expects Poly or RatFunc, got {type(h).__name__}")


def monic_split(h):
    """Split a nonzero Poly or RatFunc as (leading scalar, monic part)."""
    if isinstance(h, Poly):
        if h.is_zero():
            raise DomainError("cannot monic-split zero")
        return h.lc, h.monic()
    if isinstance(h, RatFunc):
        if h.is_zero():
            raise DomainError("cannot monic-split zero")
        lead = h.num.lc
        return lead, RatFunc(h.num.monic(), h.den)
    raise TypeError(f"monic_split expects Poly or RatFunc, got {type(h).__name__}")


def rising_product(m: int) -> Poly:
    """H (H+1) ... (H+m-1); the unit relating Y^m to X^(-m) in the localization."""
    result = _ONE
    for j in range(m):
        result = result * Poly.linear(j)
    return result


def falling_window(start: int, count: int) -> Poly:
    """(H - start)(H - start + 1) ... (H - start + count - 1)."""
    result = _ONE
    for j in range(count):
        result = result * Poly.linear(-(start - j))
    return result


def _lcm(a: int, b: int) -> int:
    return a // _int_gcd(a, b) * b


def clear_denominators(f: Poly) -> tuple[Fraction, list[int]]:
    """Write f = scale * F with F a primitive integer polynomial, lc(F) > 0.

    Returns (scale, dense ascending integer coefficient list of F).
    F is empty for f = 0.
    """
    if f.is_zero():
        return Fraction(0), []
    den = 1
    for _, c in f.terms:
        den = _lcm(den, c.denominator)
    ints = {e: int(c * den) for e, c in f.terms}
    content = 0
    for v in ints.values():
        content = _int_gcd(content, abs(v))
    sign = 1 if ints[max(ints)] > 0 else -1
    content *= sign
    deg = max(ints)
    dense = [ints.get(e, 0) // content for e in range(deg + 1)]
    return Fraction(content, den), dense


def poly_from_int_coeffs(coeffs) -> Poly:
    return Poly((e, Fraction(c)) for e, c in enumerate(coeffs))
