"""Centralizers of homogeneous elements in the localized algebra.

For a monic homogeneous u = alpha * X^n (n != 0) the centralizer is the
Laurent polynomial ring on a single generator v = beta * X^(sign(n) s),
where s is the least positive divisor of |n| admitting a monic solution
beta of the twisted product equation

    beta sigma^s(beta) ... sigma^((k-1) s)(beta) = alpha      (n > 0)
    beta sigma^-s(beta) ... sigma^(-(k-1) s)(beta) = alpha    (n < 0)

with k = |n| / s.  The solver factors alpha, groups the irreducible bases
into orbits of the shift H -> H - s, solves an integer deconvolution for
the exponent pattern inside each orbit (the minus direction is the plus
one on mirrored positions), and assembles beta once from the solved
exponents.  Infeasibility is certified by either a degree obstruction or
the first nonvanishing residue position of the deconvolution.  The
factorization does not depend on s, so centralizer_generator factors alpha
once per query, at the first divisor that passes the degree test, and
reuses it for every later divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import DomainError, TwistedRootInfeasible
from .factor import FactoredPoly, _poly_key, factor_ratfunc
from .polynomials import Poly, RatFunc, sigma_pow
from .weyl import HomogeneousElement


def _check_twist(k: int, s: int, direction: str):
    if direction not in ("plus", "minus"):
        raise ValueError(f"direction must be 'plus' or 'minus', got {direction!r}")
    if k < 1 or s < 1:
        raise DomainError("twisted root needs positive k and s")


def twisted_product(beta, k: int, s: int, direction: str):
    """Product of k copies of beta shifted by 0, s, 2s, ... (plus) or
    0, -s, -2s, ... (minus)."""
    _check_twist(k, s, direction)
    step = s if direction == "plus" else -s
    result = beta
    for m in range(1, k):
        result = result * sigma_pow(beta, m * step)
    return result


@dataclass(frozen=True)
class Orbit:
    """A shift orbit of irreducible bases: position j holds rep(H - j*s)."""

    rep: Poly
    step: int
    exponents: tuple[tuple[int, int], ...]  # (position, exponent), ascending

    def base_at(self, j: int) -> Poly:
        return sigma_pow(self.rep, j * self.step)


def shift_orbit_partition(factors: FactoredPoly, s: int) -> list[Orbit]:
    """Group irreducible bases into orbits of H -> H - s.

    The monic bases of degree d in one orbit have subleading coefficients
    c + d*j*s for integers j, so exactly one member, the key, has it in
    (-d*s, 0]: a base with subleading coefficient c is key(H - j*s) for
    j = floor(-c / (d*s)), and bases are grouped by their keys.
    """
    if s <= 0:
        raise DomainError("orbit step must be a positive integer")
    orbits: dict[Poly, dict[int, int]] = {}
    for base, exp in factors.factors:
        d = base.degree
        j = -base.coeff(d - 1) // (d * s)
        positions = orbits.setdefault(sigma_pow(base, -j * s), {})
        positions[j] = positions.get(j, 0) + exp
    out = []
    for rep, positions in orbits.items():
        low = min(positions)
        rep0 = sigma_pow(rep, low * s)
        shifted = tuple(sorted((j - low, e) for j, e in positions.items()))
        out.append(Orbit(rep0, s, shifted))
    out.sort(key=lambda o: _poly_key(o.rep))
    return out


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Why a divisor admits no twisted root.

    kind "degree": k does not divide deg alpha (forced_degree is the
    fractional deg alpha / k).  kind "residue": the deconvolution on the
    named orbit leaves a nonzero residue at `position`.
    """

    divisor: int
    kind: str
    forced_degree: tuple[int, int] | None = None
    orbit_rep: Poly | None = None
    position: int | None = None
    residue: int | None = None

    def to_json(self):
        body = {"divisor": self.divisor, "kind": self.kind}
        if self.forced_degree is not None:
            body["forced_degree"] = list(self.forced_degree)
        if self.orbit_rep is not None:
            body["orbit_rep"] = self.orbit_rep.to_json()
        if self.position is not None:
            body["position"] = self.position
            body["residue"] = self.residue
        return body

    def __str__(self):
        if self.kind == "degree":
            num, den = self.forced_degree
            return (
                f"divisor {self.divisor}: degree obstruction, "
                f"forced coefficient degree {num}/{den} is not an integer"
            )
        return (
            f"divisor {self.divisor}: orbit of {self.orbit_rep} leaves residue "
            f"{self.residue} at position {self.position}"
        )


def _deconvolve(exponents: dict[int, int], k: int):
    """Solve sum_{m=0}^{k-1} d(j - m) = e(j) for finitely supported d.

    Returns (d, None) on success or (None, (position, residue)) at the first
    failing convolution position.  Solving for d(j) position by position
    matches e up to hi = max e, so a failure lies in (hi, hi + k), where d
    and e vanish and the residue is minus the value the recurrence asks of
    d(j).  One pass keeps a running window sum, so the work is O(span + k).
    """
    hi = max(exponents)
    d: dict[int, int] = {}
    window = 0  # sum_{m=1}^{k-1} d(j - m)
    for j in range(min(exponents), hi + k):
        val = exponents.get(j, 0) - window
        if val:
            if j > hi:
                return None, (j, -val)
            d[j] = val
        window += val - d.get(j + 1 - k, 0)
    return d, None


def solve_twisted_root(alpha: RatFunc, k: int, s: int, direction: str) -> RatFunc:
    """The unique monic beta with the k-fold twisted product equal to alpha.

    Raises TwistedRootInfeasible when no such beta exists for this divisor.
    """
    return _twisted_root(alpha, k, s, direction, lambda: factor_ratfunc(alpha))


def _twisted_root(alpha: RatFunc, k: int, s: int, direction: str, factored) -> RatFunc:
    """solve_twisted_root, with the factorization of alpha taken from factored().

    factored is called only for a divisor that passes the degree test; the
    factorization does not depend on s, so a caller trying several divisors
    can hand in one that factors alpha once.
    """
    _check_twist(k, s, direction)
    if not alpha.is_monic():
        raise DomainError("twisted root is defined for monic alpha")
    deg = alpha.degree
    if deg % k:
        raise TwistedRootInfeasible(
            InfeasibilityCertificate(divisor=s, kind="degree", forced_degree=(deg, k))
        )
    sign = 1 if direction == "plus" else -1
    num = den = Poly.one()
    for orbit in shift_orbit_partition(factored(), s):
        d, failure = _deconvolve({sign * j: e for j, e in orbit.exponents}, k)
        if failure is not None:
            position, residue = failure
            raise TwistedRootInfeasible(
                InfeasibilityCertificate(
                    divisor=s,
                    kind="residue",
                    orbit_rep=orbit.rep,
                    position=sign * position,
                    residue=residue,
                )
            )
        for j, e in d.items():
            power = orbit.base_at(sign * j) ** abs(e)
            num, den = (num * power, den) if e > 0 else (num, den * power)
    beta = RatFunc(num, den)
    # the per-orbit pattern is necessary and sufficient; keep one exact check
    if twisted_product(beta, k, s, direction) != alpha:
        raise RuntimeError("deconvolution produced a wrong twisted root; internal defect")
    return beta


@dataclass(frozen=True)
class CentralizerResult:
    """Generator data for the centralizer of a monic homogeneous element."""

    v: HomogeneousElement
    s: int
    beta: RatFunc
    infeasible_divisors: tuple[InfeasibilityCertificate, ...]

    def to_json(self):
        return {
            "s": self.s,
            "beta": self.beta.to_json(),
            "v": self.v.to_json(),
            "infeasible_divisors": [c.to_json() for c in self.infeasible_divisors],
        }


def positive_divisors(n: int) -> list[int]:
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def centralizer_generator(u: HomogeneousElement) -> CentralizerResult:
    """Least-divisor centralizer generator per the twisted product equations.

    Scans the proper divisors of |n| in increasing order; when none admits
    a root, s = |n| does, with k = 1 and beta = alpha.
    """
    n = u.degree
    if n == 0:
        raise DomainError("degree-zero elements have centralizer Q(H); use centralizer_rational")
    if not u.is_monic():
        raise DomainError("centralizer_generator expects a monic element")
    direction = "plus" if n > 0 else "minus"
    sign = 1 if n > 0 else -1
    alpha = u.coeff
    factored = cache(lambda: factor_ratfunc(alpha))
    certificates = []
    for s in positive_divisors(n)[:-1]:
        try:
            beta = _twisted_root(alpha, abs(n) // s, s, direction, factored)
            break
        except TwistedRootInfeasible as exc:
            certificates.append(exc.certificate)
    else:
        s, beta = abs(n), alpha
    return CentralizerResult(
        v=HomogeneousElement(sign * s, beta),
        s=s,
        beta=beta,
        infeasible_divisors=tuple(certificates),
    )


@dataclass(frozen=True)
class PowerDecomposition:
    """w = scalar * v**exponent inside the centralizer's Laurent ring."""

    scalar: Fraction
    exponent: int


def power_decompose(w: HomogeneousElement, v: HomogeneousElement):
    """Express w as scalar * v**j with j >= 1, or None when impossible."""
    if v.degree == 0:
        raise DomainError("centralizer generators have nonzero degree")
    if w.degree % v.degree or w.degree // v.degree < 1:
        return None
    j = w.degree // v.degree
    ratio = w.coeff / (v**j).coeff
    if not ratio.is_constant():
        return None
    return PowerDecomposition(scalar=ratio.constant_value(), exponent=j)


def centralizer_rational(u: RatFunc) -> str:
    """Centralizer of a nonconstant degree-zero element: all of Q(H)."""
    if not isinstance(u, RatFunc):
        raise TypeError("centralizer_rational expects a RatFunc")
    if u.is_constant():
        raise DomainError("constants are central; their centralizer is the whole algebra")
    return "K(H)"


def in_rational_centralizer(b) -> bool:
    """Membership test for C(u) with u in Q(H) \\ Q: concentrated in degree 0."""
    return all(i == 0 for i in b.support())
