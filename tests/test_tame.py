import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from weylalg import (
    AutoWord,
    DomainError,
    PhiX,
    PhiY,
    Poly,
    Torus,
    Translate,
    WeylElement,
    Xi,
    affine_decompose,
    apply_auto,
    auto_images,
    certify_pair,
    commutator,
    invert_auto,
    random_tame,
    total_degree,
    xi_apply,
)
import weylalg.tame as tame_module
from weylalg.weyl import MAX_EXPONENT, H, ONE, GradedElement, X, Y
from helpers import in_mass_scope, random_weyl
from tame_oracle import apply_sequential

Hp = Poly.gen()


def word(*gens):
    return AutoWord(tuple(gens))


class TestGenerators:
    def test_torus(self):
        assert apply_auto(word(Torus(F(2))), X) == X * 2
        assert apply_auto(word(Torus(F(2))), Y) == Y * F(1, 2)
        assert apply_auto(word(Torus(F(2))), H) == H

    def test_phi_x(self):
        assert apply_auto(word(PhiX(1, F(3))), Y) == Y + X * 3
        assert apply_auto(word(PhiX(5, F(-1))), X) == X

    def test_phi_y(self):
        assert apply_auto(word(PhiY(2, F(1, 2))), X) == X + WeylElement({-2: F(1, 2)})

    def test_translate(self):
        assert apply_auto(word(Translate(F(3), F(-1))), X) == X + 3
        assert apply_auto(word(Translate(F(3), F(-1))), Y) == Y - 1

    def test_xi_matches_xi_apply(self):
        rng = random.Random(71)
        for _ in range(50):
            a = random_weyl(rng)
            assert apply_auto(word(Xi()), a) == xi_apply(a)

    def test_validation(self):
        with pytest.raises(DomainError, match="PhiX requires n >= 1"):
            PhiX(0, F(1))
        with pytest.raises(DomainError, match="PhiY requires n >= 1"):
            PhiY(0, F(1))
        with pytest.raises(DomainError, match=f"PhiX requires n <= {MAX_EXPONENT}, got {MAX_EXPONENT + 1}"):
            PhiX(MAX_EXPONENT + 1, F(1))
        assert PhiX(MAX_EXPONENT, F(1)).n == MAX_EXPONENT
        with pytest.raises(DomainError):
            Torus(F(0))

    def test_word_entries_must_be_generators(self):
        for entry in (1, "Xi", Xi, None):
            with pytest.raises(DomainError, match=f"word entry {entry!r} is not a generator"):
                AutoWord((Xi(), entry))

    def test_applies_only_to_weyl_elements(self):
        with pytest.raises(TypeError, match="WeylElement, got int"):
            apply_auto(word(), 3)
        with pytest.raises(TypeError, match="WeylElement, got BElement"):
            apply_auto(word(Xi()), X.to_b())

    def test_degrees_must_be_integers(self):
        # a bool degree would print X^True and write "n": true, which
        # AutoWord.from_json rejects
        for gen in (PhiX, PhiY):
            for n in (True, 2.0):
                with pytest.raises(DomainError, match="requires an integer n"):
                    gen(n, F(1))

    def test_composite_example(self):
        w = word(PhiX(2, F(1)), Torus(F(2)))
        img_h = apply_auto(w, H)
        # tau(H) = tau(Y) tau(X) and the relation survives
        assert img_h == apply_auto(w, Y) * apply_auto(w, X)
        assert commutator(apply_auto(w, Y), apply_auto(w, X)) == ONE


class TestGeneratorForms:
    """Each kind's text and JSON forms, and its equality and repr."""

    @pytest.mark.parametrize(
        "gen, text, blob",
        [
            (PhiX(2, F(-3, 4)), "(X, Y - 3/4*X^2)", {"gen": "PhiX", "n": 2, "lambda": "-3/4"}),
            (PhiX(1, F(5)), "(X, Y + 5*X^1)", {"gen": "PhiX", "n": 1, "lambda": "5/1"}),
            (PhiY(3, F(1, 2)), "(X + 1/2*Y^3, Y)", {"gen": "PhiY", "n": 3, "lambda": "1/2"}),
            (PhiY(1, F(-2)), "(X - 2*Y^1, Y)", {"gen": "PhiY", "n": 1, "lambda": "-2/1"}),
            (Torus(F(-2, 3)), "(-2/3*X, -3/2*Y)", {"gen": "Torus", "mu": "-2/3"}),
            (Torus(F(5)), "(5*X, 1/5*Y)", {"gen": "Torus", "mu": "5/1"}),
            (Translate(F(-1, 2), F(3)), "(X - 1/2, Y + 3)", {"gen": "Translate", "c": "-1/2", "d": "3/1"}),
            (Translate(F(0), F(-7, 5)), "(X + 0, Y - 7/5)", {"gen": "Translate", "c": "0/1", "d": "-7/5"}),
            (Xi(), "(Y, -X)", {"gen": "Xi"}),
        ],
    )
    def test_text_and_json(self, gen, text, blob):
        assert str(word(gen)) == text
        assert gen.to_json() == blob
        assert word(gen).to_json() == {"word": [blob]}
        assert AutoWord.from_json({"word": [blob]}) == word(gen)

    def test_kinds_stay_apart(self):
        assert PhiX(1, F(1)) != PhiY(1, F(1))
        assert repr(PhiY(2, F(-1, 3))) == "PhiY(n=2, lam=Fraction(-1, 3))"
        assert repr(Translate(F(1), F(0))) == "Translate(c=Fraction(1, 1), d=Fraction(0, 1))"
        assert repr(Xi()) == "Xi()" and Xi() == Xi()
        assert str(word()) == "identity"


class TestWordAlgebra:
    def test_left_to_right_application(self):
        w = word(PhiX(1, F(1)), Torus(F(2)))
        # first Y -> Y + X, then the torus scales each letter
        assert apply_auto(w, Y) == Y * F(1, 2) + X * 2

    def test_relation_preserved_random(self):
        for seed in range(40):
            w = random_tame(seed, word_len=5, max_n=3, coeff_height=4)
            p, q = apply_auto(w, Y), apply_auto(w, X)
            assert commutator(p, q) == ONE

    def test_homomorphism_random(self):
        rng = random.Random(72)
        for seed in range(25):
            w = random_tame(seed, word_len=3, max_n=2, coeff_height=3)
            a = random_weyl(rng, 2, 2, 4, 2)
            b = random_weyl(rng, 2, 2, 4, 2)
            assert apply_auto(w, a * b) == apply_auto(w, a) * apply_auto(w, b)
            assert apply_auto(w, a + b) == apply_auto(w, a) + apply_auto(w, b)


class TestInvert:
    def test_single_generator(self):
        assert invert_auto(word(PhiX(3, F(2)))) == word(PhiX(3, F(-2)))

    def test_empty(self):
        assert invert_auto(word()) == word()

    def test_reverse_and_invert(self):
        w = word(Torus(F(2)), PhiY(1, F(1)))
        assert invert_auto(w) == word(PhiY(1, F(-1)), Torus(F(1, 2)))

    def test_xi_inverse_expansion(self):
        assert invert_auto(word(Xi())) == word(Torus(F(-1)), Xi())

    def test_two_sided_inverse_random(self):
        rng = random.Random(73)
        for seed in range(30):
            w = random_tame(seed, word_len=4, max_n=3, coeff_height=4)
            iw = invert_auto(w)
            a = random_weyl(rng, 2, 2, 4, 2)
            assert apply_auto(iw, apply_auto(w, a)) == a
            assert apply_auto(w, apply_auto(iw, a)) == a


class TestRandomTame:
    def test_deterministic(self):
        limits = dict(word_len=6, max_n=4, coeff_height=7)
        assert random_tame(123, **limits) == random_tame(123, **limits)
        assert random_tame(123, **limits) != random_tame(124, **limits)

    def test_bounds(self):
        for seed in range(60):
            w = random_tame(seed, word_len=5, max_n=3, coeff_height=4)
            assert 1 <= len(w) <= 5
            for gen in w.gens:
                if isinstance(gen, (PhiX, PhiY)):
                    assert 1 <= gen.n <= 3
                    assert abs(gen.lam.numerator) <= 4 and gen.lam.denominator <= 4
                elif isinstance(gen, Torus):
                    assert gen.mu != 0

    def test_rejects_bad_limits(self):
        with pytest.raises(DomainError):
            random_tame(1, word_len=0)

    def test_corpus_is_pinned(self):
        # the criterion-6 corpus: both images of each word, and the certificate
        # of each pair of masses in scope, as canonical JSON, one line per seed
        digest = hashlib.sha256()
        certified = 0
        for seed in range(1, 3001):
            w = random_tame(seed, word_len=5, max_n=3, coeff_height=6)
            P, Q = apply_auto(w, Y), apply_auto(w, X)
            parts = [P.to_json(), Q.to_json()]
            if in_mass_scope(P, Q):
                parts.append(certify_pair(P, Q).to_json())
                certified += 1
            digest.update(json.dumps(parts, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        assert certified == 1856
        assert digest.hexdigest() == "c9d222815bc0e53065451fe7d036c71c037e512e6c6cfbafa581e19a5be18590"


class TestAffineDecompose:
    def test_identity(self):
        assert affine_decompose(1, 0, 0, 1, 0, 0) == word()

    def test_wrong_word_fails_verification(self, monkeypatch):
        monkeypatch.setattr(tame_module, "_linear_word", lambda a, b, c, d: [Xi()])
        with pytest.raises(RuntimeError, match="affine decomposition failed verification"):
            affine_decompose(1, 0, 0, 1, 0, 0)

    def test_pure_translation(self):
        assert affine_decompose(1, 0, 0, 1, 5, 7) == word(Translate(F(7), F(5)))

    def test_rotation(self):
        w = affine_decompose(0, 1, -1, 0, 0, 0)
        assert apply_auto(w, Y) == X
        assert apply_auto(w, X) == -Y

    def test_rejects_bad_determinant(self):
        with pytest.raises(DomainError):
            affine_decompose(1, 0, 0, 2, 0, 0)

    def test_random_sl2_with_translations(self):
        rng = random.Random(74)
        count = 0
        while count < 60:
            a, b, c = (F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))
            if a == 0:
                continue
            d = (1 + b * c) / a
            lam = F(rng.randint(-4, 4))
            mu = F(rng.randint(-4, 4), rng.randint(1, 2))
            w = affine_decompose(a, b, c, d, lam, mu)
            assert apply_auto(w, Y) == Y * a + X * b + lam
            assert apply_auto(w, X) == X * d + Y * c + mu
            count += 1

    def test_zero_pivot_branch(self):
        for b in (F(1), F(-2), F(1, 3)):
            c = -1 / b
            w = affine_decompose(F(0), b, c, F(0), F(2), F(-1))
            assert apply_auto(w, Y) == X * b + 2
            assert apply_auto(w, X) == Y * c - 1


class TestImages:
    def test_auto_images(self):
        w = word(PhiX(2, F(1)))
        ix, iy = auto_images(w)
        assert ix == X
        assert iy == Y + WeylElement({2: 1})

    @pytest.fixture
    def products(self, monkeypatch):
        """A list that GradedElement.__mul__ appends to on every product of
        two elements; a product with a scalar is not counted."""
        calls = []
        multiply = GradedElement.__mul__

        def counted(a, b):
            if isinstance(b, GradedElement):
                calls.append(None)
            return multiply(a, b)

        monkeypatch.setattr(GradedElement, "__mul__", counted)
        return calls

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_applying_to_a_letter_adds_no_product(self, products, seed):
        w = random_tame(seed, word_len=5, max_n=3, coeff_height=6)
        images = auto_images(w)
        composed = len(products)
        products.clear()
        assert apply_auto(w, Y) == images[1]
        assert len(products) <= composed
        # substituting into a letter returns the image itself, not a rebuilt copy
        assert tame_module._evaluate(X, *images) is images[0]
        assert tame_module._evaluate(Y, *images) is images[1]

    def test_zero_lambda_composes_without_products(self, products):
        for letter in (X, Y):
            assert apply_auto(word(PhiX(3, 0), PhiY(2, 0)), letter) == letter
        assert products == []

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_applying_to_x_skips_a_first_phi_x(self, products, seed):
        # the first generator's image of Y is the one that powers, and X never reads it
        w = word(PhiX(3, F(-5, 2))) + random_tame(seed, word_len=5, max_n=3, coeff_height=6)
        images = auto_images(w)
        composed = len(products)
        products.clear()
        assert apply_auto(w, X) == images[0]
        assert len(products) < composed

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_applying_to_a_constant_composes_nothing(self, products, seed):
        w = random_tame(seed, word_len=5, max_n=3, coeff_height=6)
        for constant in (WeylElement(), ONE, WeylElement({0: F(-3, 2)})):
            assert apply_auto(w, constant) == constant
        assert products == []


# small rationals, so that the images of a word stay small enough for the
# one-generator-at-a-time oracle
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
generators = st.one_of(
    st.builds(PhiX, st.integers(1, 3), rationals),
    st.builds(PhiY, st.integers(1, 3), rationals),
    st.builds(Torus, rationals.filter(bool)),
    st.builds(Translate, rationals, rationals),
    st.just(Xi()),
)
words = st.one_of(
    st.builds(
        random_tame,
        st.integers(0, 10**6),
        word_len=st.integers(1, 6),
        max_n=st.integers(1, 3),
        coeff_height=st.integers(1, 6),
    ),
    st.just(word()),
    generators.map(word),
)
coefficients = st.lists(rationals, max_size=3).map(lambda cs: Poly(enumerate(cs)))
elements = st.dictionaries(st.integers(-3, 3), coefficients, max_size=3).map(WeylElement)


class TestReadDeclarations:
    @given(generators)
    def test_formulas_read_only_what_they_declare(self, gen):
        def pair(reads):
            # the unread image of the pair is None, which no formula can use
            return (X if reads & tame_module._P else None), (Y if reads & tame_module._Q else None)

        assert (gen._x(*pair(gen._x_reads)), gen._y(*pair(gen._y_reads))) == gen.images()


class TestAgainstSequentialOracle:
    """Composing images right to left agrees with applying one generator at a time."""

    @given(words, elements)
    @settings(max_examples=200, deadline=None)
    def test_apply_and_images(self, w, a):
        images = auto_images(w)
        # a budget on the substituted degree, not on the words drawn: a word
        # whose images have degree 54 takes seconds to apply to a cubic
        assume(max(map(total_degree, images)) * max(total_degree(a), 1) <= 200)
        assert images == (apply_sequential(w, X), apply_sequential(w, Y))
        assert apply_auto(w, a) == apply_sequential(w, a)

    @given(st.one_of(rationals, st.builds(F, st.integers(-10**100, 10**100), st.integers(1, 10**100)))
           .filter(lambda mu: mu < 0), elements)
    @settings(deadline=None)
    def test_torus_with_a_negative_scalar(self, mu, a):
        # the image of Y scales by 1/mu, whose sign starts on the denominator
        w = word(Torus(mu))
        assert auto_images(w) == (apply_sequential(w, X), apply_sequential(w, Y))
        assert apply_auto(w, a) == apply_sequential(w, a)

    @given(generators)
    def test_images_are_the_formula_at_x_and_y(self, gen):
        expected = apply_sequential(word(gen), X), apply_sequential(word(gen), Y)
        assert gen.images() == auto_images(word(gen)) == expected
