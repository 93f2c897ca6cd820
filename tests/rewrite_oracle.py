"""Reference normalizer by elementary letter rewriting.

Rewrites a free expression tree (from :func:`weylalg.parser.parse`) to
graded normal form using only the elementary moves: letters commute past
H-coefficients through the shift, and the adjacent pairs YX, XY collapse to
H and H - 1.  It deliberately does not use the closed-form structure
constants or :class:`~weylalg.weyl.WeylElement` multiplication, so tests use
it as an independent oracle for the product in :mod:`weylalg.weyl` and for
:func:`weylalg.parser.normalize`.

The two strategies differ only in the association order of products and
must agree; both exist so confluence can be tested.
"""

from weylalg.parser import Lit, Neg, Power, Product, Sum, Sym, parse
from weylalg.polynomials import Poly
from weylalg.weyl import WeylElement


def _times_x(comp):
    """Right-multiply a normal form by the letter X."""
    out = {}
    for k, f in comp.items():
        if k >= 0:
            g = f
        else:
            # (f Y^m) X = f (H + m - 1) Y^(m-1): collapse one YX to H
            g = f * Poly.linear(-k - 1)
        if g:
            key = k + 1
            out[key] = out[key] + g if key in out else g
    return {k: v for k, v in out.items() if v}


def _times_y(comp):
    """Right-multiply a normal form by the letter Y."""
    out = {}
    for k, f in comp.items():
        if k <= 0:
            g = f
        else:
            # (f X^k) Y = f (H - k) X^(k-1): collapse one XY to H - 1
            g = f * Poly.linear(-k)
        if g:
            key = k - 1
            out[key] = out[key] + g if key in out else g
    return {k: v for k, v in out.items() if v}


def _mul_rewrite(a, b):
    """Product of two normal-form component maps by elementary moves only."""
    result = {}
    for l, g in b.items():
        partial = {}
        for k, f in a.items():
            term = f * g.sigma(k)
            if term:
                partial[k] = partial.get(k, Poly.zero()) + term
        partial = {k: v for k, v in partial.items() if v}
        step = _times_x if l > 0 else _times_y
        for _ in range(abs(l)):
            partial = step(partial)
        for k, v in partial.items():
            w = result.get(k, Poly.zero()) + v
            if w:
                result[k] = w
            elif k in result:
                del result[k]
    return result


def _add_comp(a, b):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, Poly.zero()) + v
        if w:
            out[k] = w
        elif k in out:
            del out[k]
    return out


_ATOMS = {
    "X": {1: Poly.one()},
    "Y": {-1: Poly.one()},
    "H": {0: Poly.gen()},
}


def _rewrite(expr, strategy):
    if isinstance(expr, Sym):
        return dict(_ATOMS[expr.name])
    if isinstance(expr, Lit):
        return {0: Poly.constant(expr.value)} if expr.value else {}
    if isinstance(expr, Neg):
        return {k: -v for k, v in _rewrite(expr.arg, strategy).items()}
    if isinstance(expr, Sum):
        out = {}
        for term in expr.terms:
            out = _add_comp(out, _rewrite(term, strategy))
        return out
    if isinstance(expr, Power):
        base = _rewrite(expr.base, strategy)
        out = {0: Poly.one()}
        for _ in range(expr.exponent):
            out = _mul_rewrite(out, base)
        return out
    if isinstance(expr, Product):
        parts = [_rewrite(f, strategy) for f in expr.factors]
        if strategy == "left":
            out = parts[0]
            for p in parts[1:]:
                out = _mul_rewrite(out, p)
            return out
        if strategy == "tree":
            while len(parts) > 1:
                paired = []
                for i in range(0, len(parts) - 1, 2):
                    paired.append(_mul_rewrite(parts[i], parts[i + 1]))
                if len(parts) % 2:
                    paired.append(parts[-1])
                parts = paired
            return parts[0]
        raise ValueError(f"unknown strategy {strategy!r}")
    raise TypeError(f"not a free expression node: {type(expr).__name__}")


def rewrite_normalize(expr, strategy: str = "left") -> WeylElement:
    """Rewrite a free expression to graded normal form by letter moves."""
    return WeylElement(_rewrite(expr, strategy))


def rewrite_normalize_text(text: str, strategy: str = "left") -> WeylElement:
    return rewrite_normalize(parse(text), strategy)
