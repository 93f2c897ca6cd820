"""Complete factorization over Q for Poly and RatFunc values.

The pipeline is the classical one for Z[x]: the squarefree kernel,
reduction modulo the first odd prime that keeps the polynomial squarefree
and its degree, Hensel lifting, and subset recombination.  One gcd g of f
and f' gives the kernel f / g, which holds each irreducible factor of f
once; most f are shown coprime to f' by one Euclid modulo a 61-bit prime,
and are their own kernel.  Zassenhaus runs once, on the kernel, and each
factor's multiplicity is one more than the number of times it divides g
exactly.  The modular factors come from distinct-degree factorization in
F_p[x]; the linear ones are x - a for the roots a found by evaluation at
every residue, and those of degree >= 2 are split by Cantor-Zassenhaus.
The search for p rules out a prime below the degree by a root the
polynomial shares with its derivative mod p, where one exists, before any
gcd.  The modular factors are lifted together, on one factor tree built
bottom up once mod p, up the ladder of exponents ceil(l / 2**i) to
exactly p**l, where p**l exceeds twice a Mignotte-style coefficient
bound.  After each rung one loop tries the open lifted factors by exact
division, singly below p**l and in subsets at p**l, so most factors are
found well below p**l and lifting stops once fewer than two are open.
Residues mod p**e stay in [0, p**e); only a candidate over Z is read off
in the symmetric range.  Everything is exact integer arithmetic; the
returned bases are monic irreducible polynomials over Q.

Integer polynomials are int lists, ascending, as Poly stores them; their
Z[x] arithmetic, and the F_p[x] reduction, division and gcd, come from
polynomials.py; this module adds the rest of the F_p[x] arithmetic,
symmetric reduction mod m and Hensel lifting on top.  Only the public
surface speaks Poly / RatFunc.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError
from .polynomials import (
    Poly,
    RatFunc,
    _add,
    _derivative,
    _gf_divmod,
    _gf_gcd,
    _gf_monic,
    _gf_normal,
    _mul,
    _poly,
    _primitive,
    _pseudo_divmod,
    _reduced_terms,
    _strip,
    _sub,
    clear_denominators,
    poly_gcd,
    rat_to_str,
)


@dataclass(frozen=True)
class FactoredPoly:
    """unit * product(base**exponent) with monic irreducible bases.

    Negative exponents appear when a RatFunc was factored.
    """

    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def expand(self):
        """Multiply the factorization back out (RatFunc iff some exponent < 0)."""
        num = Poly.one()
        den = Poly.one()
        for base, exp in self.factors:
            if exp > 0:
                num = num * base**exp
            else:
                den = den * base**(-exp)
        if den == Poly.one():
            return num * self.unit
        return RatFunc(num * self.unit, den)

    def exponent_map(self) -> dict[Poly, int]:
        return {base: exp for base, exp in self.factors}

    def to_json(self):
        return {
            "unit": rat_to_str(self.unit),
            "factors": [[base.to_json()["poly"], exp] for base, exp in self.factors],
        }

    def __str__(self):
        if not self.factors:
            return str(self.unit)
        parts = [f"({base})^{exp}" for base, exp in self.factors]
        return f"{self.unit} * " + " * ".join(parts)


def _poly_key(f: Poly):
    """(degree, ((e, numerator, denominator), ...)) over the nonzero terms of
    f, ascending, read from its stored integers without building Fractions."""
    return (f.degree, tuple(_reduced_terms(f)))


# ----------------------------------------------------------------------
# symmetric reduction of integer polynomials
# ----------------------------------------------------------------------

def _trunc(f, m):
    """Reduce coefficients to the symmetric range (-m/2, m/2]."""
    half = m // 2
    out = []
    for a in f:
        a = a % m
        if a > half:
            a -= m
        out.append(a)
    return _strip(out)


# ----------------------------------------------------------------------
# arithmetic in F_p[x]
# ----------------------------------------------------------------------

def _gf_gcdex(f, g, p):
    """Extended Euclid: returns (s, t, h) with s*f + t*g = h, h monic gcd."""
    r0, r1 = _gf_normal(f, p), _gf_normal(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_normal(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _gf_normal(_sub(t0, _mul(q, t1)), p)
    if not r0:
        return s0, t0, r0
    inv = pow(r0[-1], -1, p)
    scale = lambda u: _gf_normal(_mul(u, [inv]), p)
    return scale(s0), scale(t0), scale(r0)


def _gf_eval(f, a, p):
    """f(a) in F_p, by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = (v * a + c) % p
    return v


def _gf_pow_mod(base, n, f, p):
    result = [1]
    base = _gf_divmod(base, f, p)[1]
    while n:
        if n & 1:
            result = _gf_divmod(_mul(result, base), f, p)[1]
        base = _gf_divmod(_mul(base, base), f, p)[1]
        n >>= 1
    return result


def _gf_ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f in F_p[x].

    Returns [(g, d)] with g the monic product of the degree-d irreducible
    factors of f; g has deg g // d of them.
    """
    factors = []
    h = [0, 1]  # x^(p^d) mod f
    d = 1
    while len(f) - 1 >= 2 * d:
        h = _gf_pow_mod(h, p, f, p)
        g = _gf_gcd(_sub(h, [0, 1]), f, p)
        if len(g) > 1:
            factors.append((g, d))
            f = _gf_divmod(f, g, p)[0]
            h = _gf_divmod(h, f, p)[1]
        d += 1
    if len(f) > 1:
        factors.append((f, len(f) - 1))
    return factors


def _gf_edf(g, d, p, rng):
    """Equal-degree split of a monic product g of distinct degree-d
    irreducibles in F_p[x] into those irreducibles.

    For d = 1 the factors are x - a for the roots a of g in 0..p-1, found by
    evaluation, with no random trials.  The scan takes O(p deg g) steps in
    F_p, and p stays small: it is the first odd prime dividing neither lc(f)
    nor disc(f) of the f being factored (_good_prime), so every odd prime
    below p divides lc(f) disc(f).  Their product grows like e^p, so p is at
    most about ln |lc(f) disc(f)|, linear in the bit size of f, and no
    size-based choice between two methods is needed.

    For d >= 2, p must be odd: a random a splits g by
    gcd(a^((p^d-1)/2) - 1, g) (Cantor-Zassenhaus).  The set of factors
    does not depend on the method or on rng.
    """
    n = len(g) - 1
    if n == d:
        return [g]
    if d == 1:
        return [[-a % p, 1] for a in range(p) if not _gf_eval(g, a, p)]
    while True:
        a = _strip([rng.randrange(p) for _ in range(n)])
        b = _gf_gcd(_sub(_gf_pow_mod(a, (p**d - 1) // 2, g, p), [1]), g, p)
        if 0 < len(b) - 1 < n:
            return _gf_edf(b, d, p, rng) + _gf_edf(_gf_divmod(g, b, p)[0], d, p, rng)


# ----------------------------------------------------------------------
# Hensel lifting on one factor tree
# ----------------------------------------------------------------------

def _hensel_step(M, f, g, h, s, t, last):
    """One lift of f = g*h from mod m to mod M, for any M dividing m**2.

    Requires f = g*h and s*g + t*h = 1 (mod m), h monic; dividing by a
    monic h is exact modulo any M, so _gf_divmod serves for M, and residues
    stay in [0, M) as it returns them.  On the last rung nothing lifts
    further, so s and t come back as they were.
    """
    e = _gf_normal(_sub(f, _mul(g, h)), M)
    q, r = _gf_divmod(_mul(s, e), h, M)
    g1 = _gf_normal(_add(_add(g, _mul(t, e)), _mul(q, g)), M)
    h1 = _gf_normal(_add(h, r), M)
    if last:
        return g1, h1, s, t
    b = _gf_normal(_sub(_add(_mul(s, g1), _mul(t, h1)), [1]), M)
    c, d = _gf_divmod(_mul(s, b), h1, M)
    s1 = _gf_normal(_sub(s, d), M)
    t1 = _gf_normal(_sub(_sub(t, _mul(t, b)), _mul(c, g1)), M)
    return g1, h1, s1, t1


def _factor_tree(p, modular, lo=0, hi=None):
    """The factor tree of the monic mod-p factors modular[lo:hi].

    A leaf is the index of its factor.  An inner node is the list
    [g, h, s, t, left, right]: g and h are the monic products of the left
    and right halves of its factors and s*g + t*h = 1 (mod p).  The tree is
    built bottom up: a node takes g and h from its children, each the leaf's
    factor or the product of the child's own g and h.
    """
    if hi is None:
        hi = len(modular)
    if hi - lo == 1:
        return lo
    mid = (lo + hi) // 2
    left = _factor_tree(p, modular, lo, mid)
    right = _factor_tree(p, modular, mid, hi)
    g, h = (
        _gf_normal(_mul(child[0], child[1]), p) if isinstance(child, list) else modular[child]
        for child in (left, right)
    )
    s, t, one = _gf_gcdex(g, h, p)
    if one != [1]:
        raise RuntimeError("modular factors are not coprime; bad prime slipped through")
    return [g, h, s, t, left, right]


def _lift_tree(tree, f, M, last, lifted):
    """Lift a factor tree of the monic f one rung, to mod M; the leaves'
    factors go to lifted."""
    if not isinstance(tree, list):
        lifted[tree] = f
        return
    g, h, s, t, left, right = tree
    tree[:4] = g, h, s, t = _hensel_step(M, f, g, h, s, t, last)
    _lift_tree(left, g, M, last, lifted)
    _lift_tree(right, h, M, last, lifted)


# ----------------------------------------------------------------------
# Zassenhaus over Z
# ----------------------------------------------------------------------

def _ladder(l):
    """The exponents ceil(l / 2**i), ascending from 1 to l; each is at most
    twice the one before, so one Hensel step climbs each rung."""
    rungs = [l]
    while rungs[-1] > 1:
        rungs.append((rungs[-1] + 1) // 2)
    return rungs[::-1]


def _exact_quotient(f, g):
    """f / g when the primitive g divides the nonzero f in Z[x], else None.

    g divides f only if its constant term divides f's, which rules most
    candidates out before any division.  No remainder means f = q*g over
    Q, and then q is in Z[x] (Gauss's lemma), so every leading coefficient
    the division meets is a multiple of lc(g): it never scales, and the
    quotient is q.
    """
    if f[0] % g[0] if g[0] else f[0]:
        return None
    quotient, rem, _ = _pseudo_divmod(f, g)
    return None if rem else quotient


def _good_prime(f):
    """The first odd prime p that divides neither lc(f) nor the
    discriminant of f, so f keeps its degree and stays squarefree mod p;
    lc(f) and the discriminant have finitely many prime factors, so it exists.

    While p <= deg f, a root that f shares with f' in F_p rules p out in
    O(p deg f) steps, before the O(deg f ** 2) gcd of f and f' mod p; the
    gcd would rule p out too, so the search picks the same prime.
    """
    n = len(f) - 1
    for p in itertools.count(3, 2):
        if f[-1] % p and all(p % k for k in range(3, isqrt(p) + 1, 2)):
            fp = _gf_normal(f, p)
            dfp = _derivative(fp)
            if p <= n and any(
                not _gf_eval(fp, a, p) and not _gf_eval(dfp, a, p) for a in range(p)
            ):
                continue
            if len(_gf_gcd(fp, dfp, p)) == 1:
                return p


def _zassenhaus(f):
    """Irreducible factors (primitive, lc > 0) of a primitive squarefree
    integer polynomial with lc > 0 and degree >= 1."""
    n = len(f) - 1
    if n == 1:
        return [list(f)]
    lead = f[-1]
    height = max(abs(a) for a in f)
    bound = (isqrt(n + 1) + 1) * 2**n * height * lead

    p = _good_prime(f)
    ddf = _gf_ddf(_gf_monic(_gf_normal(f, p), p), p)
    # the split is random, the set of factors it finds is not
    rng = random.Random(0)
    modular = sorted(
        (u for g, d in ddf for u in _gf_edf(g, d, p, rng)), key=lambda u: (len(u), u)
    )

    l = 1
    while p**l <= 2 * bound:
        l += 1

    # Lift the tree one rung at a time; after each rung try the open factors
    # by exact division, restarting after each hit.  Below p**l only single
    # factors are tried, and a hit is irreducible: it is a unit times u mod
    # p, as p does not divide lc(f), and u is irreducible mod p.  At p**l
    # each hit takes at most half of the open factors, so the cofactor left
    # at the end is never constant.
    tree = _factor_tree(p, modular)
    lifted = list(modular)
    remaining = list(range(len(modular)))
    current = list(f)
    found = []
    for e in _ladder(l):
        if len(remaining) < 2:
            break
        pe = p**e
        if e > 1:
            target = _gf_normal(_mul(f, [pow(lead, -1, pe)]), pe)
            _lift_tree(tree, target, pe, e == l, lifted)
        size = 1
        while 2 * size <= len(remaining) and (size == 1 or e == l):
            for subset in itertools.combinations(remaining, size):
                cand = [current[-1]]
                for i in subset:
                    cand = _trunc(_mul(cand, lifted[i]), pe)
                cand = _primitive(cand)[1]
                quotient = _exact_quotient(current, cand)
                if quotient is not None:
                    found.append(cand)
                    current = quotient
                    remaining = [i for i in remaining if i not in subset]
                    break
            else:
                size += 1
    return found + [current]


# ----------------------------------------------------------------------
# public surface
# ----------------------------------------------------------------------

def factor_poly(f: Poly) -> FactoredPoly:
    """Factor a nonzero polynomial over Q into monic irreducibles."""
    if not isinstance(f, Poly):
        raise TypeError(f"factor_poly expects Poly, got {type(f).__name__}")
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    unit = f.lc
    if f.degree == 0:
        return FactoredPoly(unit, ())
    # g = gcd(f, f') holds each irreducible factor of f once fewer times
    # than f does, so the kernel f / g holds each once, and a factor's
    # multiplicity is one more than the number of times it divides g
    _, whole = clear_denominators(f)
    _, rest = clear_denominators(poly_gcd(f, f.derivative()))
    collected = []
    for part in _zassenhaus(_exact_quotient(whole, rest)):
        mult = 1
        while (quotient := _exact_quotient(rest, part)) is not None:
            rest, mult = quotient, mult + 1
        collected.append((_poly(part).monic(), mult))
    collected.sort(key=lambda item: _poly_key(item[0]))
    return FactoredPoly(unit, tuple(collected))


def factor_ratfunc(h: RatFunc) -> FactoredPoly:
    """Factor a nonzero rational function; denominator bases get negative exponents.

    A RatFunc's numerator and denominator are coprime, so no base is in both.
    """
    if not isinstance(h, RatFunc):
        raise TypeError(f"factor_ratfunc expects RatFunc, got {type(h).__name__}")
    if h.is_zero():
        raise DomainError("cannot factor the zero rational function")
    top = factor_poly(h.num)
    bottom = factor_poly(h.den)
    factors = top.factors + tuple((base, -exp) for base, exp in bottom.factors)
    factors = tuple(sorted(factors, key=lambda item: _poly_key(item[0])))
    return FactoredPoly(top.unit / bottom.unit, factors)


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over Q (degree >= 1 required)."""
    return f.degree >= 1 and factor_poly(f).factors == ((f.monic(), 1),)
