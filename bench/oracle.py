"""Independent checks that do not use the library's multiplication.

The Weyl algebra acts faithfully on Q[t] by X = (multiply by t) and
Y = d/dt, so Y X - X Y = 1 and H = Y X sends t^j to (j + 1) t^j.  An
element sum f_i(H) v_i therefore sends t^k to

    sum_i f_i(k + i + 1) * c_i(k) * t^(k + i),

with c_i(k) = 1 for i >= 0 and c_i(k) = k (k - 1) ... (k + i + 1) for i < 0.
Distinct components land on distinct powers of t, so an element whose
coefficients have degree at most d and which kills t^k for d + 1 values of
k (all at least its largest Y-power) is zero.  That turns every identity
between elements into finitely many exact evaluations at integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Operator:
    """An element's action on Q[t], with coefficients cleared to integers."""

    __slots__ = ("parts", "span", "coeff_degree")

    def __init__(self, element):
        parts = []
        for i, f in element.components():
            den = lcm(*(c.denominator for _, c in f.terms))
            dense = [0] * (f.terms[-1][0] + 1)
            for e, c in f.terms:
                dense[e] = c.numerator * (den // c.denominator)
            parts.append((i, dense[::-1], den))
        self.parts = parts
        self.span = max((abs(i) for i, _, _ in parts), default=0)
        self.coeff_degree = max((len(d) - 1 for _, d, _ in parts), default=0)

    def __call__(self, poly: dict) -> dict:
        """Apply to a polynomial in t given as {exponent: Fraction}."""
        out: dict = {}
        for i, desc, den in self.parts:
            for k, c in poly.items():
                if i < 0:
                    if k < -i:
                        continue
                    scale = 1
                    for r in range(-i):
                        scale *= k - r
                else:
                    scale = 1
                j = k + i
                x = j + 1
                value = 0
                for a in desc:
                    value = value * x + a
                if value:
                    out[j] = out.get(j, 0) + c * Fraction(value * scale, den)
        return {j: v for j, v in out.items() if v}


def _probe_points(span: int, degree: int) -> range:
    return range(span, span + degree + 1)


def is_product(result, factors) -> bool:
    """result == factors[0] * factors[1] * ..., checked through the action."""
    ops = [Operator(f) for f in factors]
    res = Operator(result)
    span = max(res.span, sum(o.span for o in ops))
    degree = max(res.coeff_degree, sum(o.coeff_degree + o.span for o in ops))
    for k in _probe_points(span, degree):
        poly = {k: Fraction(1)}
        for op in reversed(ops):
            poly = op(poly)
        if res({k: Fraction(1)}) != poly:
            return False
    return True


def commutes_to_one(p, q) -> bool:
    """[p, q] = p q - q p == 1, checked through the action."""
    op, oq = Operator(p), Operator(q)
    span = op.span + oq.span
    degree = op.coeff_degree + oq.coeff_degree + min(op.span, oq.span)
    for k in _probe_points(span, degree):
        mono = {k: Fraction(1)}
        left, right = op(oq(mono)), oq(op(mono))
        diff = dict(left)
        for j, v in right.items():
            diff[j] = diff.get(j, 0) - v
        diff[k] = diff.get(k, 0) - 1
        if any(diff.values()):
            return False
    return True


def poly_eval(poly, x) -> Fraction:
    """Evaluate a Poly at a rational point from its (exponent, coefficient) terms."""
    return sum((c * Fraction(x) ** e for e, c in poly.terms), Fraction(0))
