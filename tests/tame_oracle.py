"""Reference application of tame words, one generator at a time.

``apply_sequential`` applies a word's generators left to right, each step
substituting that generator's images of X and Y into the whole current
element (Horner in the image of H, plus powers of the images); a torus
scales each graded component and xi goes through
:func:`weylalg.weyl.xi_apply`.  The images are written out here rather than
read from the generators, so tests use it as an independent oracle for
:func:`weylalg.tame.apply_auto` and :func:`weylalg.tame.auto_images`,
which compose the word's images right to left and substitute once.  A
scalar enters only as a degree-0 element or a constant Poly, so the
oracle adds and multiplies elements and polynomials, never an element or
a polynomial and a bare rational: those paths are the library's own.
"""

from weylalg.polynomials import Poly
from weylalg.tame import PhiX, PhiY, Torus, Translate, Xi
from weylalg.weyl import WeylElement, X, Y, xi_apply


def _evaluate(a, image_x, image_y):
    """Substitute images for X and Y into the normal form of a."""
    h_image = image_y * image_x
    result = WeylElement()
    pow_cache = {}

    def vpow(i):
        if i not in pow_cache:
            base = image_x if i > 0 else image_y
            pow_cache[i] = base ** abs(i)
        return pow_cache[i]

    for i, f in a.components():
        # Horner evaluation of f at the image of H
        acc = WeylElement()
        last = None
        for e, c in reversed(f.terms):
            if last is None:
                acc = WeylElement({0: c})
            else:
                for _ in range(last - e):
                    acc = acc * h_image
                acc = acc + WeylElement({0: c})
            last = e
        if last is not None and last > 0:
            for _ in range(last):
                acc = acc * h_image
        term = acc if i == 0 else acc * vpow(i)
        result = result + term
    return result


def _images(gen):
    if isinstance(gen, PhiX):
        return X, Y + WeylElement({gen.n: gen.lam})
    if isinstance(gen, PhiY):
        return X + WeylElement({-gen.n: gen.lam}), Y
    if isinstance(gen, Translate):
        return X + WeylElement({0: gen.c}), Y + WeylElement({0: gen.d})
    raise TypeError(f"no substitution images for {gen!r}")


def _apply_gen(gen, a):
    if isinstance(gen, Torus):
        return WeylElement({i: f * Poly.constant(gen.mu**i) for i, f in a.components()})
    if isinstance(gen, Xi):
        return xi_apply(a)
    return _evaluate(a, *_images(gen))


def apply_sequential(word, a):
    for gen in word.gens:
        a = _apply_gen(gen, a)
    return a
