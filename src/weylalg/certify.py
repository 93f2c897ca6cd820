"""Constructive certificates for commuting pairs, and impossibility sweeps.

certify_pair(P, Q) takes a pair with [P, Q] = 1 whose masses satisfy the
certified hypotheses (both at most 2, or one equal to 1) and produces a tame
automorphism word tau with tau(Y) = P and tau(X) = Q.  _reduce builds the
word in one pass, with no recursion:

  * affine pairs go through an explicit SL2 decomposition;
  * otherwise the constant terms of P and then Q become translations;
  * a mass-1 P is swapped in as the partner, behind xi^-1, and a partner
    of negative degree is flipped by xi^-1, with one Xi at the end.
    The partner is then lambda X, and each component of the complement
    P - Y/lambda becomes a triangular generator, then Torus(lambda).  No
    constant comes back after the flip: the only part of P whose
    commutator with a partner g v_q lands in degree q != 0 is P's degree-0
    part, so it commutes with the partner only if it is invariant under
    the shift sigma^q.  Then it is a constant, and that constant was
    already peeled;
  * a mass-2 / mass-2 pair needs no rule of its own.  The degree lemma
    (1 - sigma^s)(H^e) = e*s*H^(e-1) + lower terms shows that a pair on
    the supports {-k, k} commutes to 1 only when k = 1 and its coefficients
    are constants, an affine pair (the proof is in _reduce's last comment).

Every certificate is verified before it is returned: its images of X and
Y, composed once, must equal (Q, P).  That check is also the proof of
[P, Q] = 1, since every generator preserves YX - XY = 1, so
[P, Q] = tau([Y, X]) = 1.  The commutator itself is computed only to word
a refusal: when the scope test, _reduce or the final check fails, one
guarded block refuses a pair with [P, Q] != 1 with it, ahead of that error.

impossibility_sweep encodes the excluded configurations as exact linear
systems with integer coefficients, one triangular block per unknown
polynomial.  The degree lemma (1 - sigma^s)(H^e) = e*s*H^(e-1) + lower
terms puts the end of the column of H^e in row e - 1, with the entry e*s,
never zero.  A cell is empty when the row where its top coefficient's
column ends lies below row 0 (so its right-hand side is 0) and holds no
other entry: that row forces the top coefficient to 0.  The other cells
have witnesses in closed form, each checked independently: case-ii/iii at
p = 1, deg a = deg b = 0 get the scalar family alpha * beta = t, and
case-v at p = q, deg a = deg b = d gets a = -H/p - H^d, b = H^d, since
(1 - sigma^-p)(-H/p) = 1.  A sweep reads where a column ends from
delta_op, once per column, in a cache that ends with the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import DomainError, OutOfScopeError
from .polynomials import Poly, _poly, delta_op, rat_to_str
from .tame import AutoWord, PhiX, Torus, Translate, Xi, _affine_word, auto_images
from .weyl import (
    ONE,
    WeylElement,
    commutator,
    mass,
    structure_constant,
    total_degree,
    xi_inverse_apply,
)


def delta_balance_check(a, b, p: int, q: int) -> Poly:
    """Evaluate (1 - sigma^-p)(a) + (1 - sigma^-q)(b) exactly."""
    if p < 1 or q < 1:
        raise DomainError("delta_balance_check requires positive p and q")
    if isinstance(a, (int, Fraction)):
        a = Poly.constant(a)
    if isinstance(b, (int, Fraction)):
        b = Poly.constant(b)
    return delta_op(a, -p) + delta_op(b, -q)


# ----------------------------------------------------------------------
# pair certification
# ----------------------------------------------------------------------

def _affine_parts(e: WeylElement):
    """Coefficients (y, x, const) of an element of total degree <= 1."""
    parts = (e.coefficient(i) for i in (-1, 1, 0))
    return tuple(Fraction(0) if f is None else f.constant_value() for f in parts)


def _internal(msg):
    return RuntimeError(f"certifier internal defect: {msg}")


def _reduce(P: WeylElement, Q: WeylElement) -> AutoWord:
    if total_degree(P) <= 1 and total_degree(Q) <= 1:
        a, b, lam = _affine_parts(P)
        c, d, mu = _affine_parts(Q)
        return _affine_word(a, b, c, d, lam, mu)
    # constant terms commute with everything; peel them into translations
    # so the mass dispatch below sees pure graded shapes
    const_p, const_q = (f.coeff(0) if f is not None else Fraction(0)
                        for f in (P.coefficient(0), Q.coefficient(0)))
    gens = []
    if const_p:
        gens.append(Translate(Fraction(0), const_p))
        P = P - const_p
    if const_q:
        gens.append(Translate(const_q, Fraction(0)))
        Q = Q - const_q
    if mass(Q) != 1 and mass(P) == 1:
        # swap through [P, Q] = [-Q, P]: certify (-Q, P), precompose xi^-1
        gens += Xi().inverse_word()
        P, Q = -Q, P
    if mass(Q) == 1:
        ((q, g),) = Q.components()
        flip = q < 0
        if flip:
            P, Q = xi_inverse_apply(P), xi_inverse_apply(Q)
            ((q, g),) = Q.components()
        if q != 1 or not g.is_constant():
            raise _internal("mass-1 partner is not a scalar multiple of X")
        lam = g.constant_value()
        lam_inv = 1 / lam
        for i, f in (P - WeylElement({-1: lam_inv})).components():
            # a wrong Y-part leaves a component of degree -1
            if i < 1 or not f.is_constant():
                raise _internal("complement is not a polynomial in X")
            gens.append(PhiX(i, f.constant_value() * lam_inv**i))
        if lam != 1:
            gens.append(Torus(lam))
        if flip:
            gens.append(Xi())
        return AutoWord(tuple(gens))
    # Constants are peeled and neither side has mass 1, so an in-scope pair
    # here has masses (2, 2), and no rule certifies it.  On the supports
    # {-k, k}, P = f1 v_-k + f2 v_k and Q = g1 v_-k + g2 v_k, the +-2k
    # components of [P, Q] vanish only if g_i = c_i f_i, since a
    # sigma^k-invariant rational function is constant.  Then
    # [P, Q] = (c1 - c2) (1 - sigma^-k)(f2 sigma^k(f1) (k, -k)), where the
    # polynomial inside has degree deg f1 + deg f2 + k.  1 - sigma^-k lowers
    # a positive degree by exactly one, so the commutator is a nonzero
    # constant only when k = 1 and f1, f2 are constants: an affine pair,
    # which the first rule certifies.  No input has reached this line on
    # another support.
    raise _internal(f"pair of masses {mass(P)}, {mass(Q)} has no mass-1 side")


def _refuse_noncommuting(P, Q):
    """Raise DomainError when [P, Q] != 1."""
    comm = commutator(P, Q)
    if comm != ONE:
        from .parser import format_pretty

        # operands that are not elements may give a scalar commutator
        raise DomainError(f"commutator is {format_pretty(WeylElement._promote(comm))}, not 1")


def certify_pair(P: WeylElement, Q: WeylElement) -> AutoWord:
    """A tame word tau with tau(Y) = P, tau(X) = Q, verified by composing
    its images of X and Y once and comparing them with (Q, P).  _reduce
    builds every word unchecked, an affine pair's SL2 word too.

    The check also proves [P, Q] = 1: every generator preserves
    YX - XY = 1, so [P, Q] = tau([Y, X]) = 1.  A certified pair therefore
    never computes its commutator; a refused one does, to name it.

    When the guarded scope test, reduction or final check fails, a pair with
    [P, Q] != 1 raises DomainError naming its commutator, in the context of
    the step's error; a commuting pair raises that error: OutOfScopeError
    when the masses fall outside the certified hypotheses.
    """
    if not (isinstance(P, WeylElement) and isinstance(Q, WeylElement)):
        # the commutator refuses operands that are not elements before mass reads them
        _refuse_noncommuting(P, Q)
    try:
        mp, mq = mass(P), mass(Q)
        if not ((mp <= 2 and mq <= 2) or mp == 1 or mq == 1):
            raise OutOfScopeError(
                f"masses ({mp}, {mq}) are outside the certified range: "
                "need both <= 2 or one equal to 1"
            )
        word = _reduce(P, Q)
        if auto_images(word) != (Q, P):
            raise _internal("certificate failed the final application check")
    except (ValueError, RuntimeError):
        # OutOfScopeError and DomainError are ValueErrors, _internal a RuntimeError
        _refuse_noncommuting(P, Q)
        raise
    return word


# ----------------------------------------------------------------------
# the sweep's top rows
# ----------------------------------------------------------------------

def _top_row(e, shift):
    """The row where the column of H^e ends in a system of 1 - sigma^shift.

    The degree lemma (1 - sigma^s)(H^e) = e*s*H^(e-1) + lower terms puts it
    at e - 1, with the entry e*s != 0.  Every other column of the block ends
    lower, since the H^e' terms cancel: deg (1 - sigma^s)(H^e') <= e' - 1.
    A top row at or above 1 has right-hand side 0, so when no other column
    reaches it, it forces the top coefficient to 0.  A case-ii/iii cell has
    one block, and is empty when _top_row(big, -p) >= 1; a case-v cell is
    empty when deg a < deg b and _top_row(deg b, -q) >= 1, since every
    column of a then ends below row deg b - 1.
    """
    return delta_op(_poly([0] * e + [1]), shift).degree


# ----------------------------------------------------------------------
# impossibility sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    pattern: str
    p: int
    q: int
    deg_a: int | None
    deg_b: int | None
    status: str  # "empty" or "solutions"
    detail: str
    witness: dict | None = None

    def to_json(self):
        body = {
            "pattern": self.pattern,
            "p": self.p,
            "q": self.q,
            "deg_a": self.deg_a,
            "deg_b": self.deg_b,
            "status": self.status,
            "detail": self.detail,
        }
        if self.witness is not None:
            body["witness"] = self.witness
        return body


@dataclass(frozen=True)
class SweepReport:
    pattern: str
    bounds: dict
    cells: tuple

    def to_json(self):
        return {
            "pattern": self.pattern,
            "bounds": dict(self.bounds),
            "cells": [c.to_json() for c in self.cells],
        }

    def empty_cells(self):
        return [c for c in self.cells if c.status == "empty"]

    def solution_cells(self):
        return [c for c in self.cells if c.status == "solutions"]


def _cell_pair_system(top_row, p, q, deg_a, deg_b, pattern):
    """Cell for: exists a (exact degree deg_a), b (exact degree deg_b) with
    (1 - sigma^-p)(a) + (1 - sigma^-q)(b) = 1."""
    detail = f"(1-s^-{p})(a) + (1-s^-{q})(b) = 1, deg a = {deg_a}, deg b = {deg_b}"
    if deg_a < deg_b and top_row(deg_b, -q) >= 1:
        return SweepCell(
            pattern, p, q, deg_a, deg_b, "empty",
            detail + "; every solution drops the leading coefficient of b",
        )
    # deg a = deg b at p = q is left: (1 - sigma^-p)(a + b) = 1 is solved by
    # a + b = -H/p, and b = H^d keeps both leading coefficients
    if p != q or deg_a != deg_b:
        raise _internal(f"top row does not decide {detail}")
    b_poly = Poly(((deg_b, 1),))
    a_poly = Poly(((1, Fraction(-1, p)),)) - b_poly
    balance = delta_balance_check(a_poly, b_poly, p, q)
    if balance != Poly.one() or (a_poly.degree, b_poly.degree) != (deg_a, deg_b):
        raise RuntimeError("sweep witness failed independent verification")
    witness = {"a": a_poly.to_json(), "b": b_poly.to_json()}
    return SweepCell(pattern, p, q, deg_a, deg_b, "solutions", detail + "; witness verified", witness)


def _cell_single_system(top_row, p, q, deg_a, deg_b, pattern, extra=""):
    """Cell for: exists alpha (deg deg_a), beta (deg deg_b) with
    [alpha X^p, beta Y^p] = 1, relaxed to gamma = alpha sigma^p(beta) (p,-p)
    of exact degree deg_a + deg_b + p with (1 - sigma^-p)(gamma) = 1."""
    big = deg_a + deg_b + p
    detail = (
        f"[a X^{p}, b Y^{p}] = 1 via (1-s^-{p})(gamma) = 1, "
        f"deg gamma = {deg_a} + {deg_b} + {p}{extra}"
    )
    if top_row(big, -p) >= 1:
        return SweepCell(
            pattern, p, q, deg_a, deg_b, "empty",
            detail + "; every solution has deg gamma <= 1, below the forced degree",
        )
    # deg gamma = 1 is left, solved by the scalar family alpha * beta = t
    if big != 1:
        raise _internal(f"top row does not decide {detail}")
    t = 1 / delta_op(structure_constant(p, -p), -p).constant_value()
    alpha = WeylElement({p: t})
    beta = WeylElement({-p: 1})
    if commutator(alpha, beta) != ONE:
        raise RuntimeError("sweep witness failed independent verification")
    witness = {
        "alpha": rat_to_str(t),
        "beta": rat_to_str(Fraction(1)),
        "relation": f"alpha*beta = {rat_to_str(t)}",
    }
    return SweepCell(pattern, p, q, deg_a, deg_b, "solutions", detail + "; solutions exist", witness)


def _case_ii_cells(pattern, bounds, top_row):
    max_deg = bounds["max_coeff_deg"]
    for p in range(1, bounds["p"] + 1):
        for q in range(1, bounds["q"] + 1):
            if p != q:
                reason = f"[a X^{p}, b Y^{q}] is concentrated in degree {p - q}, never 1"
                yield SweepCell(pattern, p, q, None, None, "empty", reason)
                continue
            for deg_a in range(max_deg + 1):
                for deg_b in range(max_deg + 1):
                    yield _cell_single_system(top_row, p, q, deg_a, deg_b, pattern)


def _case_iii_cells(pattern, bounds, top_row):
    max_deg = bounds["max_coeff_deg"]
    note = "; from [P, Q_s] = 1 after the graded splitting of [P, Q] = 1"
    for p in range(2, bounds["p"] + 1):
        for deg_a in range(max_deg + 1):
            for deg_b in range(max_deg + 1):
                yield _cell_single_system(top_row, p, p, deg_a, deg_b, pattern, note)


def _case_v_cells(pattern, bounds, top_row):
    max_deg = bounds["max_coeff_deg"]
    for p in range(2, bounds["p"] + 1):
        for q in range(p, bounds["q"] + 1):
            if q == p:
                for d in range(p - 1, p - 1 + max_deg + 1):
                    yield _cell_pair_system(top_row, p, q, d, d, pattern)
                continue
            for deg_a in range(p - 1, p - 1 + max_deg + 1):
                for deg_b in range(q - 1, q - 1 + max_deg + 1):
                    if deg_a < deg_b:
                        yield _cell_pair_system(top_row, p, q, deg_a, deg_b, pattern)


# sweep pattern -> its cells, in report order
_SWEEPS = {"case-ii": _case_ii_cells, "case-iii": _case_iii_cells, "case-v": _case_v_cells}
_SWEEP_CAP = 16  # the largest bound a sweep accepts


def impossibility_sweep(pattern: str, bounds: dict) -> SweepReport:
    """Exhaustive exact-linear-algebra sweep over one excluded configuration.

    bounds has exactly the keys p, q, max_coeff_deg.  Cells are independent and run in
    the deterministic cell enumeration order, which is the report order.
    """
    if pattern not in _SWEEPS:
        raise DomainError(f"unknown sweep pattern {pattern!r}")
    unknown = [key for key in bounds if key not in ("p", "q", "max_coeff_deg")]
    if unknown:
        raise DomainError(f"unknown bound {unknown[0]!r}")
    for key in ("p", "q", "max_coeff_deg"):
        if key not in bounds:
            raise DomainError(f"bounds must include {key!r}")
        if type(bounds[key]) is not int or bounds[key] < 0:
            raise DomainError(f"bound {key!r} must be a nonnegative integer")
        if bounds[key] > _SWEEP_CAP:
            raise DomainError(f"bound {key!r} = {bounds[key]} exceeds the cap {_SWEEP_CAP}")
    if bounds["p"] < 1 or bounds["q"] < 1:
        raise DomainError("bounds p and q must be at least 1")
    top_row = cache(_top_row)  # shared by the cells of this sweep only
    cells = tuple(_SWEEPS[pattern](pattern, bounds, top_row))
    return SweepReport(pattern=pattern, bounds=dict(bounds), cells=cells)
