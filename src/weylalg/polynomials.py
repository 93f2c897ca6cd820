"""Exact arithmetic in Q[H] and Q(H) with the shift automorphism.

A polynomial in the single variable H is stored as F / d: a tuple F of
Python ints, ascending by exponent with no trailing zeros, over one positive
integer denominator d with gcd(content(F), d) = 1 (the form of FLINT's
fmpq_poly).  The form is canonical, so equality and hashing compare the
stored fields.  The zero polynomial is ((), 1), and its degree is the
absorbing sentinel ``NEG_INF``.

All coefficient arithmetic runs on the module-level functions on integer
lists below, which factor.py shares.  So are the same lists' reduction,
division and Euclid's gcd in F_p[x], and the coprimality test built on
them: one Euclid modulo the prime 2^61 - 1, which lets ``poly_gcd``
answer 1 without Euclid over Q, and falls through to the exact path when
it shows nothing.  The shift automorphism acts by
``sigma(f)(H) = f(H - 1)``, so ``sigma_pow(f, i)`` substitutes ``H - i``
for ``H``; it and ``compose_affine`` are integer Taylor shifts.

Rational functions are kept in a canonical form: numerator and denominator
coprime, denominator monic.

A rational scalar meets a coefficient in one place per ring, on the stored
integers and with no Fraction built: ``_scaled(num, den)`` multiplies by
num/den and ``_plus(num, den)`` adds it.  A Poly multiple divides out two
gcds with the scalar's parts and none over its coefficients; a Poly sum
changes only the constant term but keeps its one gcd, as the content may
change.  A RatFunc scales or shifts only its numerator, which stays prime
to the denominator.  Poly's operators route int and Fraction operands
there.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError

NEG_INF = float("-inf")

Rat = Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def _digits(n: int) -> str:
    """str(n), with a DomainError past Python's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:  # the only ValueError str(int) raises
        raise DomainError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits to print"
        ) from None


def rat_to_str(c: Fraction) -> str:
    """Canonical serialization of a rational: always ``num/den``."""
    return f"{_digits(c.numerator)}/{_digits(c.denominator)}"


def rat_format(c: Fraction) -> str:
    """Human text of a rational, as str() gives it: ``3/2`` or ``3``."""
    return _digits(c.numerator) if c.denominator == 1 else rat_to_str(c)


def rat_from_json(value, what: str) -> Fraction:
    """The rational a JSON string like "3/2" holds; anything else raises DomainError."""
    if isinstance(value, str):
        # only rat_to_str's form, '-'? digits ('/' digits)?, each part read by int()
        # within the digit limit: Fraction("1e10000000") would compute 10**10000000
        num, slash, den = value.partition("/")
        if num[num.startswith("-"):].isdecimal() and (den.isdecimal() or not slash):
            try:
                return Fraction(int(num), int(den) if slash else 1)
            except (ValueError, ZeroDivisionError):  # past the digit limit, or a zero denominator
                pass
    raise DomainError(f'{what} must be a rational like "3/2", got {value!r}')


def _json_list(obj, key: str, what: str) -> list:
    """obj[key] when obj is a JSON object holding a list there; else DomainError."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, list):
        raise DomainError(f'{what} must be a JSON object with a "{key}" list')
    return value


def _json_pairs(items: list, what: str) -> list:
    """items when each is an [integer, value] pair; else DomainError."""
    for item in items:
        if not (isinstance(item, list) and len(item) == 2 and type(item[0]) is int):
            raise DomainError(f"{what} entry {item!r} is not an [integer, value] pair")
    return items


def _power(base, n: int):
    """base**n for n >= 1 by square-and-multiply, with no squaring after the last bit."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


# ----------------------------------------------------------------------
# integer polynomials: lists of ints, ascending exponent
# ----------------------------------------------------------------------

def _strip(f):
    """Drop trailing zeros in place; return f."""
    while f and not f[-1]:
        f.pop()
    return f


def _add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, b in enumerate(g):
        out[i] += b
    return _strip(out)


def _sub(f, g):
    return _add(f, [-b for b in g])


def _mul(f, g):
    if len(f) > len(g):
        f, g = g, f
    if not f:
        return []
    if len(f) == 1:
        a = f[0]
        return _strip([a * b for b in g])
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return _strip(out)


def _pseudo_divmod(f, g):
    """(q, r, s) with s*f = q*g + r, deg r < deg g and s > 0 a divisor of lc(g)**k.

    Each step scales by only the part of lc(g) the leading coefficient
    lacks, so a monic g divides with s = 1.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(g) - 1
    lead = g[-1]
    r = list(f)
    q = [0] * max(len(r) - n, 0)
    s = 1
    for i in range(len(q) - 1, -1, -1):
        c = r.pop()  # the coefficient of x^(i + n)
        if not c:
            continue
        d = gcd(c, lead) if lead > 0 else -gcd(c, lead)
        m, c = lead // d, c // d
        if m != 1:
            r = [m * a for a in r]
            q = [m * a for a in q]
            s *= m
        q[i] = c
        for j in range(n):
            r[i + j] -= c * g[j]
    return q, _strip(r), s


def _primitive(f):
    """(content, primitive part); the content takes the sign of the leading coefficient."""
    content = gcd(*f)
    if not content:
        return 0, []
    if f[-1] < 0:
        content = -content
    return content, [a // content for a in f]


def _derivative(f):
    return [i * a for i, a in enumerate(f)][1:]


def _taylor_shift(f, t: int):
    """Replace f(x) by f(x + t) in place; Horner's rule, O(deg^2) integer steps."""
    if t:
        n = len(f)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                f[j] += t * f[j + 1]


# ----------------------------------------------------------------------
# integer polynomials mod p: the same lists, reduced to [0, p)
# ----------------------------------------------------------------------

def _gf_normal(f, p):
    return _strip([a % p for a in f])


def _gf_monic(f, p):
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [a * inv % p for a in f]


def _gf_divmod(f, g, p):
    """(quotient, remainder) of f by g in (Z/p)[x], lc(g) a unit mod p.

    f and g may be any integer lists.  Only each leading coefficient divided
    by is reduced mod p, and the remainder once, at the end.  p need not be
    prime: Hensel lifting divides by a monic g modulo p**e.
    """
    n = len(g) - 1
    if len(f) - 1 < n:
        return [], _gf_normal(f, p)
    inv = pow(g[-1], -1, p)
    rem = list(f)
    low = g[:n]
    quo = [0] * (len(rem) - n)
    for shift in range(len(quo) - 1, -1, -1):
        c = rem.pop() * inv % p  # the coefficient of x^(shift + n)
        if c:
            quo[shift] = c
            for j, b in enumerate(low, shift):
                rem[j] -= c * b
    return _strip(quo), _gf_normal(rem, p)


def _gf_gcd(f, g, p):
    """The monic gcd in F_p[x]; [] for two zero polynomials."""
    f, g = _gf_normal(f, p), _gf_normal(g, p)
    while g:
        f, g = g, _gf_divmod(f, g, p)[1]
    return _gf_monic(f, p)


_P = 2**61 - 1  # a Mersenne prime


def _coprime(f, g):
    """True when one Euclid mod _P shows the nonzero integer polynomials f
    and g coprime over Q; False means only that it does not show it.

    A common divisor of f and g over Z has a leading coefficient dividing
    lc(f), so when _P divides neither leading coefficient it keeps its
    degree mod _P, where it divides the gcd: a constant gcd mod _P leaves
    only constant common divisors (the degree bound of modular gcds).
    """
    return bool(f[-1] % _P and g[-1] % _P) and len(_gf_gcd(f, g, _P)) == 1


def _poly(coeffs, den=1) -> "Poly":
    """The canonical Poly coeffs / den from an integer list (consumed) and den != 0."""
    _strip(coeffs)
    if not coeffs:
        return _ZERO
    if den != 1:
        if den < 0:
            den, coeffs = -den, [-a for a in coeffs]
        g = gcd(den, *coeffs)
        if g != 1:
            den //= g
            coeffs = [a // g for a in coeffs]
    return _stored(tuple(coeffs), den)


def _reduced_terms(f: "Poly") -> list:
    """[(e, numerator, denominator), ...] of the nonzero terms of f, ascending,
    each coefficient in lowest terms, read off the stored integers."""
    den = f._den
    out = []
    for e, c in enumerate(f._c):
        if c:
            g = gcd(c, den)
            out.append((e, c // g, den // g))
    return out


def _stored(coeffs: tuple, den: int) -> "Poly":
    """A Poly from fields already in canonical form (or a term only poly_sum reads)."""
    p = object.__new__(Poly)
    p._c = coeffs
    p._den = den
    return p


class Poly:
    """A univariate polynomial over Q in the variable H."""

    __slots__ = ("_c", "_den")

    def __init__(self, terms=()):
        # the numerators are summed over the lcm of the term denominators,
        # and only the sum is put in canonical form
        kept = []
        for exp, coeff in terms:
            if type(exp) is not int or exp < 0:
                raise ValueError(f"exponent must be a nonnegative integer, got {exp!r}")
            if type(coeff) is not int:
                coeff = _as_fraction(coeff)
            if coeff:
                kept.append((exp, coeff))
        den = lcm(*(c.denominator for _, c in kept))
        coeffs = [0] * (max(e for e, _ in kept) + 1 if kept else 0)
        for exp, c in kept:
            coeffs[exp] += c.numerator * (den // c.denominator)
        p = _poly(coeffs, den)
        self._c, self._den = p._c, p._den

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
        if type(c) is not int:
            c = _as_fraction(c)
        return _poly([c.numerator], c.denominator)

    @staticmethod
    def _coerce(value):
        """value as a Poly when it is a Poly, int or Fraction; else None."""
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.constant(value)
        return None

    @staticmethod
    def linear(shift) -> "Poly":
        """H + shift."""
        shift = _as_fraction(shift)
        return _stored((shift.numerator, shift.denominator), shift.denominator)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self):
        """((exponent, Fraction coefficient), ...) ascending, nonzero coefficients only."""
        den = self._den
        return tuple((e, Fraction(c, den)) for e, c in enumerate(self._c) if c)

    @property
    def degree(self):
        return len(self._c) - 1 if self._c else NEG_INF

    @property
    def lc(self) -> Fraction:
        """Leading coefficient; zero for the zero polynomial."""
        return Fraction(self._c[-1], self._den) if self._c else Fraction(0)

    def coeff(self, exp: int) -> Fraction:
        if 0 <= exp < len(self._c):
            return Fraction(self._c[exp], self._den)
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._c

    def is_constant(self) -> bool:
        return len(self._c) <= 1

    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == self._den

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise DomainError(f"{self} is not a constant")
        return self.coeff(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._plus(other.numerator, other.denominator)
        a, b = self._den, other._den
        if a == b:
            return _poly(_add(self._c, other._c), a)
        g = gcd(a, b)
        f1 = _mul(self._c, [b // g])
        f2 = _mul(other._c, [a // g])
        return _poly(_add(f1, f2), a // g * b)

    __radd__ = __add__

    def __neg__(self):
        return _stored(tuple(-a for a in self._c), self._den)

    def __sub__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._plus(-other.numerator, other.denominator)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, num: int, den: int) -> "Poly":
        """self * (num/den) for coprime integers num and den != 0, on the stored integers.

        The sign of den is moved to num first.  For canonical C/d and
        reduced num/den, gcd(num content(C), d den) = gcd(num, d) gcd(content(C), den),
        since num is prime to den and content(C) to d; so dividing num and d
        by g1 = gcd(num, d), and C and den by g2 = gcd(den, *C), leaves the
        product canonical with no gcd over its coefficients.
        """
        if not num or not self._c:
            return _ZERO
        if den < 0:
            num, den = -num, -den
        d = self._den
        g1 = gcd(num, d) if d != 1 else 1
        g2 = gcd(den, *self._c) if den != 1 else 1
        if g1 != 1:
            num //= g1
            d //= g1
        coeffs = self._c if g2 == 1 else [a // g2 for a in self._c]
        if num != 1:
            coeffs = [num * a for a in coeffs]
        return _stored(tuple(coeffs), d * (den // g2))

    def _plus(self, num: int, den: int) -> "Poly":
        """self + num/den for coprime integers num and den > 0: only the
        constant term moves, but it may change the content, so the sum keeps
        its one gcd."""
        if not num:
            return self
        d = self._den
        g = gcd(d, den)
        coeffs = list(self._c) if den == g else [a * (den // g) for a in self._c]
        if coeffs:
            coeffs[0] += num * (d // g)
        else:
            coeffs.append(num)
        return _poly(coeffs, d // g * den)

    def __mul__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._scaled(other.numerator, other.denominator)
        # a polynomial RatFunc's denominator is the shared _ONE, and RatFunc
        # arithmetic multiplies by it
        if other is _ONE:
            return self
        if self is _ONE:
            return other
        return _poly(_mul(self._c, other._c), self._den * other._den)

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(terms) -> "Poly":
        """The sum of f * g * c over a nonempty list of triples (f, g, c) of Polys.

        The products are summed on integer lists over one common
        denominator, and only the sum is put in canonical form.
        """
        acc = None
        for f, g, c in terms:
            p = list(f._c) if g is _ONE else _mul(f._c, g._c)
            if c is not _ONE:
                p = _mul(p, c._c)
            d = f._den * g._den * c._den
            if acc is None:
                acc, den = p, d
                continue
            if d != den:
                common = lcm(den, d)
                if common != den:
                    acc = _mul(acc, [common // den])
                    den = common
                if common != d:
                    p = _mul(p, [common // d])
            if len(p) > len(acc):
                acc, p = p, acc
            for e, a in enumerate(p):
                acc[e] += a
        return _poly(acc, den)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return _power(self, n) if n else _ONE

    def __divmod__(self, other: "Poly"):
        if type(other) is not Poly:
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        # s F = Q G + R gives F/a = (Q b / (s a)) (G/b) + R / (s a)
        q, r, s = _pseudo_divmod(self._c, other._c)
        den = s * self._den
        return _poly(_mul(q, [other._den]), den), _poly(r, den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if type(other) is not Poly:
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        return self._c == other._c and self._den == other._den

    def __hash__(self):
        # a constant equals its Fraction, so it must hash as one
        if len(self._c) <= 1:
            return hash(self.coeff(0))
        return hash((self._c, self._den))

    def __bool__(self):
        return bool(self._c)

    # -- substitution ------------------------------------------------------

    def compose_affine(self, a, b) -> "Poly":
        """Substitute a*H + b for H."""
        a, b = _as_fraction(a), _as_fraction(b)
        if not self._c:
            return self
        # a = p/q, b = r/s, n = deg f: G(y) = s^n f(y/s) has integer coefficients, and
        # f(aH + b) = (sq)^-n sum_i d_i (sp)^i q^(n-i) H^i with sum_i d_i y^i = G(y + r)
        p, q = a.numerator, a.denominator
        r, s = b.numerator, b.denominator
        n = len(self._c) - 1
        c = [x * s ** (n - i) for i, x in enumerate(self._c)]
        _taylor_shift(c, r)
        c = [d * (s * p) ** i * q ** (n - i) for i, d in enumerate(c)]
        return _poly(c, self._den * (s * q) ** n)

    def sigma(self, i: int) -> "Poly":
        """Apply the i-th power of the shift: H -> H - i."""
        if i == 0 or len(self._c) <= 1:
            return self
        c = list(self._c)
        _taylor_shift(c, -i)
        # an integer shift keeps the content, so the form stays canonical
        return _stored(tuple(c), self._den)

    def evaluate(self, x) -> Fraction:
        x = _as_fraction(x)
        total = Fraction(0)
        for c in reversed(self._c):
            total = total * x + c
        return total / self._den

    def derivative(self) -> "Poly":
        return _poly(_derivative(self._c), self._den)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise DomainError("the zero polynomial has no monic associate")
        return _poly(list(self._c), self._c[-1])

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {"poly": [[e, f"{_digits(n)}/{_digits(d)}"] for e, n, d in _reduced_terms(self)]}

    @staticmethod
    def from_json(obj) -> "Poly":
        """Rebuild a polynomial from its JSON form; malformed input raises DomainError."""
        return _poly_from_json(_json_list(obj, "poly", "a polynomial"))

    def format(self) -> str:
        """Human text form, descending exponents, e.g. ``H^2 - 3/2*H + 1``."""
        if not self._c:
            return "0"
        parts = []
        for e, n, d in reversed(_reduced_terms(self)):
            mag = _digits(abs(n)) if d == 1 else f"{_digits(abs(n))}/{_digits(d)}"
            if e:
                var = "H" if e == 1 else f"H^{e}"
                body = var if mag == "1" else f"{mag}*{var}"
            else:
                body = mag
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if n > 0 else f" - {body}")
        return "".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"Poly({self.format()!r})"


_ZERO = _stored((), 1)
_ONE = _stored((1,), 1)
_GEN = _stored((0, 1), 1)

H = _GEN


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in Q[H]; gcd(0, 0) = 0.

    The common answer 1 is found without Euclid over Q: when one argument
    is a nonzero constant, or when one Euclid mod a 61-bit prime shows the
    two coprime.
    """
    if len(a._c) == 1 or len(b._c) == 1 or (a._c and b._c and _coprime(a._c, b._c)):
        return _ONE
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


class RatFunc:
    """A rational function in H over Q, kept gcd-reduced with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        n = Poly._coerce(num)
        d = _ONE if den is None else Poly._coerce(den)
        if n is None or d is None:
            raise TypeError(f"RatFunc needs Poly, int or Fraction parts, got {num!r} and {den!r}")
        num, den = n, d
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
        self.num, self.den = num, den

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
        """value as a RatFunc when it is a RatFunc, Poly, int or Fraction; else None."""
        if isinstance(value, RatFunc):
            return value
        p = Poly._coerce(value)
        return None if p is None else RatFunc(p)

    def _scaled(self, num: int, den: int) -> "RatFunc":
        """self * (num/den) for coprime nonzero integers num and den: a
        nonzero scalar keeps the parts coprime, so only the numerator is scaled."""
        return _ratfunc(self.num._scaled(num, den), self.den)

    def _plus(self, num: int, den: int) -> "RatFunc":
        """self + num/den for coprime integers num and den > 0: the numerator
        gains (num/den) times the denominator and stays prime to it (a zero
        sum leaves a constant denominator, which is monic, so 1)."""
        return _ratfunc(self.num + self.den._scaled(num, den), self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return _ratfunc(-self.num, self.den)

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

    @staticmethod
    def sum_of_products(terms) -> "RatFunc":
        """The sum of f * g * c over a nonempty list of triples (f, g, c); c may be a Poly."""
        total = None
        for f, g, c in terms:
            p = f * g
            if c is not _ONE:
                p = p * c
            total = p if total is None else total + p
        return total

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
        if n < 0:
            return _power(self.inverse(), -n)
        return _power(self, n) if n else RatFunc(_ONE)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a polynomial equals its numerator, so it must hash as one
        if self.is_polynomial():
            return hash(self.num)
        return hash(("RatFunc", self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def sigma(self, i: int) -> "RatFunc":
        if i == 0:
            return self
        # an integer shift keeps the parts coprime and the denominator monic
        return _ratfunc(self.num.sigma(i), self.den.sigma(i))

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
        """Rebuild a rational function from its JSON form; malformed input raises DomainError."""
        body = obj.get("ratfunc") if isinstance(obj, dict) else None
        if not isinstance(body, dict):
            raise DomainError('a rational function must be a JSON object with a "ratfunc" object')
        return RatFunc(
            _poly_from_json(_json_list(body, "num", '"ratfunc"')),
            _poly_from_json(_json_list(body, "den", '"ratfunc"')),
        )

    def format(self) -> str:
        if self.den == _ONE:
            return self.num.format()
        return f"({self.num.format()})/({self.den.format()})"

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"RatFunc({self.format()!r})"


def _ratfunc(num: Poly, den: Poly) -> RatFunc:
    """A RatFunc from parts already in canonical form: coprime, den monic."""
    r = object.__new__(RatFunc)
    r.num, r.den = num, den
    return r


def _poly_from_json(items: list) -> Poly:
    terms = []
    for exp, coeff in _json_pairs(items, "polynomial"):
        if exp < 0:
            raise DomainError(f"polynomial exponent {exp} is negative")
        terms.append((exp, rat_from_json(coeff, "a polynomial coefficient")))
    return Poly(terms)


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
    return falling_window(0, m)


def falling_window(start: int, count: int) -> Poly:
    """(H - start)(H - start + 1) ... (H - start + count - 1)."""
    r = [1]
    for j in range(count):
        # multiply r by H + c in place, from the top down
        c = j - start
        r.append(r[-1])
        for i in range(len(r) - 2, 0, -1):
            r[i] = r[i - 1] + c * r[i]
        r[0] *= c
    return _poly(r)


def clear_denominators(f: Poly) -> tuple[Fraction, list[int]]:
    """Write f = scale * F with F a primitive integer polynomial, lc(F) > 0.

    Returns (scale, dense ascending integer coefficient list of F).
    F is empty for f = 0.
    """
    content, dense = _primitive(f._c)
    return Fraction(content, f._den), dense


def poly_sum(terms) -> Poly:
    """The sum of a nonempty list of Polys and rationals, as one Poly.

    Each term enters Poly.sum_of_products as the product t * 1 * 1, so the
    terms are added on one integer list and put in canonical form once.  A
    rational term enters as its numerator over its denominator with no
    canonical form of its own (a zero stays [0]): only the sum reads it.
    """
    return Poly.sum_of_products([
        (t if type(t) is Poly else _stored((t.numerator,), t.denominator), _ONE, _ONE) for t in terms
    ])
