"""Shared random generators for the test suite (all seeded, deterministic),
and the check of a coefficient's stored canonical form."""

from fractions import Fraction
from math import gcd

from weylalg import Poly, RatFunc, WeylElement


def random_rat(rng, height, nonzero=False):
    while True:
        value = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if value or not nonzero:
            return value


def random_poly(rng, max_deg, height, nonzero=False, monic=False):
    while True:
        deg = rng.randint(0, max_deg)
        terms = {e: random_rat(rng, height) for e in range(deg + 1)}
        if monic:
            terms[deg] = Fraction(1)
        p = Poly(terms.items())
        if not p.is_zero() or not (nonzero or monic):
            return p


def random_int_monic(rng, deg, height):
    terms = {e: Fraction(rng.randint(-height, height)) for e in range(deg)}
    terms[deg] = Fraction(1)
    return Poly(terms.items())


def random_ratfunc(rng, max_deg, height, nonzero=False):
    num = random_poly(rng, max_deg, height, nonzero=nonzero)
    den = random_poly(rng, max_deg, height, nonzero=True)
    return RatFunc(num, den)


def random_weyl(rng, max_components=3, coeff_deg=4, height=10, span=3):
    comp = {}
    for _ in range(rng.randint(0, max_components)):
        comp[rng.randint(-span, span)] = random_poly(rng, coeff_deg, height)
    return WeylElement(comp)


def random_weyl_nonzero(rng, **kwargs):
    while True:
        a = random_weyl(rng, **kwargs)
        if not a.is_zero():
            return a


def assert_canonical_coefficient(c):
    """A Poly's stored C / d, or each part of a RatFunc, is canonical:
    no trailing zero, d > 0 and gcd(content(C), d) = 1; a RatFunc's parts
    are coprime with a monic denominator, which is 1 for zero."""
    if isinstance(c, RatFunc):
        assert_canonical_coefficient(c.num)
        assert_canonical_coefficient(c.den)
        assert c.den.is_monic()
        assert RatFunc(c.num, c.den).den == c.den
        return
    coeffs, den = c._c, c._den
    assert type(coeffs) is tuple and all(type(a) is int for a in coeffs)
    assert den > 0 and (not coeffs or coeffs[-1])
    assert gcd(den, *coeffs) == 1
