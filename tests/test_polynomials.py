import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from weylalg import NEG_INF, DomainError, Poly, RatFunc, delta_op, monic_split, rat_deg, sigma_pow
from weylalg.polynomials import clear_denominators, falling_window, poly_sum
from helpers import random_poly, random_ratfunc

H = Poly.gen()


def poly_of(*coeffs):
    """Poly from ascending coefficients, e.g. poly_of(1, 0, 2) = 2H^2 + 1."""
    return Poly(enumerate(F(c) for c in coeffs))


class TestPoly:
    def test_canonical_form_drops_zeros(self):
        assert Poly([(3, F(0)), (1, F(2))]).terms == ((1, F(2)),)
        assert (poly_of(1, 1) - poly_of(1, 1)).is_zero()

    def test_degree_of_zero_is_sentinel(self):
        assert Poly.zero().degree == NEG_INF
        assert NEG_INF + 5 == NEG_INF  # absorbing under degree addition

    def test_arithmetic(self):
        assert (H + 1) * (H - 1) == H**2 - 1
        assert divmod(H**3 - 1, H - 1) == (H**2 + H + 1, Poly.zero())
        assert (H**2 + 1) % (H - 3) == Poly.constant(10)

    def test_monic(self):
        assert (2 * H + 4).monic() == H + 2
        assert H.is_monic()
        assert not (2 * H).is_monic()
        with pytest.raises(DomainError):
            Poly.zero().monic()

    def test_format(self):
        assert (H**2 - F(3, 2) * H + 1).format() == "H^2 - 3/2*H + 1"
        assert (-H + 1).format() == "-H + 1"
        assert Poly.zero().format() == "0"

    def test_equal_values_hash_alike(self):
        for c in (0, 3, F(-1, 2)):
            assert Poly.constant(c) == c and hash(Poly.constant(c)) == hash(c)
        assert len({Poly.constant(3), 3, F(3)}) == 1

    def test_division_by_other_types_is_a_type_error(self):
        # divmod, // and % defer to the other operand like every Poly operator
        assert divmod(2 * H + 1, 2) == (H + F(1, 2), Poly.zero())
        with pytest.raises(TypeError):
            divmod(H, "x")
        with pytest.raises(TypeError):
            H // 1.5
        with pytest.raises(TypeError):
            H % None


def value_at(coeffs, x):
    """A polynomial's value from ascending coefficients, with no Poly arithmetic."""
    return sum((c * x**e for e, c in coeffs), F(0))


def eval_terms(f: Poly, x):
    return value_at(f.terms, x)


# rational coefficients over mixed denominators, degrees up to 40
rationals = st.fractions(min_value=-60, max_value=60, max_denominator=30)
coeff_lists = st.lists(rationals, max_size=41)
short_lists = st.lists(rationals, max_size=6)
points = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=2, max_size=2)
KERNEL = settings(max_examples=120, deadline=None)


class TestKernelProperties:
    """Each Poly result is checked at rational points against its inputs' coefficients."""

    @given(coeff_lists, coeff_lists, points)
    @KERNEL
    def test_ring_operations(self, cf, cg, xs):
        f, g = Poly(enumerate(cf)), Poly(enumerate(cg))
        for x in xs:
            fx, gx = value_at(enumerate(cf), x), value_at(enumerate(cg), x)
            assert eval_terms(f * g, x) == fx * gx
            assert eval_terms(f + g, x) == fx + gx
            assert eval_terms(f - g, x) == fx - gx

    @given(coeff_lists, st.integers(-25, 25), points)
    @KERNEL
    def test_sigma(self, cf, i, xs):
        f = Poly(enumerate(cf))
        for x in xs:
            assert eval_terms(f.sigma(i), x) == value_at(enumerate(cf), x - i)

    @given(coeff_lists, rationals, rationals, points)
    @KERNEL
    def test_compose_affine(self, cf, a, b, xs):
        f = Poly(enumerate(cf))
        g = f.compose_affine(a, b)
        for x in xs:
            assert eval_terms(g, x) == value_at(enumerate(cf), a * x + b)
        if a:
            assert g.degree == f.degree

    @given(coeff_lists, coeff_lists.filter(any), points)
    @KERNEL
    def test_divmod(self, cf, cg, xs):
        f, g = Poly(enumerate(cf)), Poly(enumerate(cg))
        q, r = divmod(f, g)
        assert f == q * g + r
        assert r.degree < g.degree
        for x in xs:
            assert value_at(enumerate(cf), x) == eval_terms(q, x) * value_at(enumerate(cg), x) + eval_terms(r, x)

    @given(coeff_lists)
    @KERNEL
    def test_clear_denominators(self, cf):
        f = Poly(enumerate(cf))
        scale, dense = clear_denominators(f)
        assert Poly(enumerate(dense)) * scale == f
        if f:
            assert all(isinstance(c, int) for c in dense)
            assert gcd(*dense) == 1 and dense[-1] > 0
        else:
            assert (scale, dense) == (0, [])

    @given(st.lists(st.tuples(short_lists, short_lists, st.one_of(st.none(), short_lists)),
                    min_size=1, max_size=4))
    @KERNEL
    def test_sum_of_products(self, triples):
        # c = None stands for the shared Poly.one() that most structure constants are
        terms = [(Poly(enumerate(cf)), Poly(enumerate(cg)), Poly.one() if cc is None else Poly(enumerate(cc)))
                 for cf, cg, cc in triples]
        expected = Poly.zero()
        for f, g, c in terms:
            expected = expected + f * g * c
        got = Poly.sum_of_products(terms)
        assert got == expected and hash(got) == hash(expected)
        assert got.terms == expected.terms

    @given(st.lists(st.one_of(rationals, short_lists), min_size=1, max_size=5))
    @KERNEL
    def test_poly_sum(self, parts):
        # a list stands for a Poly, a bare rational for itself
        terms = [Poly(enumerate(p)) if isinstance(p, list) else p for p in parts]
        expected = Poly.zero()
        for t in terms:
            expected = expected + t
        got = poly_sum(terms)
        assert got == expected and got.terms == expected.terms

    @given(coeff_lists)
    @KERNEL
    def test_terms_round_trip(self, cf):
        f = Poly(enumerate(cf))
        assert all(c for _, c in f.terms)
        assert [e for e, _ in f.terms] == sorted({e for e, _ in f.terms})
        g = Poly(f.terms)
        assert g == f and hash(g) == hash(f)
        assert Poly(reversed(f.terms + f.terms)) == 2 * f


class TestSigma:
    def test_shift_of_h(self):
        assert sigma_pow(H, 1) == H - 1

    def test_identity(self):
        f = poly_of(3, -2, 1)
        assert sigma_pow(f, 0) == f

    def test_expand_negative_shift(self):
        # oracle: (H + 2)^2 expanded by hand
        assert sigma_pow(H**2, -2) == H**2 + 4 * H + 4

    def test_ring_homomorphism_random(self):
        rng = random.Random(11)
        for _ in range(200):
            f = random_poly(rng, 4, 6)
            g = random_poly(rng, 4, 6)
            i = rng.randint(-5, 5)
            assert sigma_pow(f * g, i) == sigma_pow(f, i) * sigma_pow(g, i)
            assert sigma_pow(f + g, i) == sigma_pow(f, i) + sigma_pow(g, i)

    @given(st.integers(-6, 6), st.integers(-6, 6),
           st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=8),
                    min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_composition(self, i, j, coeffs):
        f = Poly(enumerate(coeffs))
        assert sigma_pow(sigma_pow(f, i), j) == sigma_pow(f, i + j)

    def test_degree_preserved(self):
        rng = random.Random(12)
        for _ in range(200):
            f = random_poly(rng, 5, 8, nonzero=True)
            i = rng.randint(-6, 6)
            assert sigma_pow(f, i).degree == f.degree


def test_falling_window_is_product_of_linear_factors():
    # (H - start)(H - start + 1) ... (H - start + count - 1)
    for start in range(-5, 6):
        for count in range(9):
            expected = Poly.one()
            for j in range(count):
                expected = expected * Poly.linear(j - start)
            assert falling_window(start, count) == expected


class TestDelta:
    def test_linear(self):
        assert delta_op(H, -1) == Poly.constant(-1)

    def test_constants_vanish(self):
        for i in (-3, 1, 7):
            assert delta_op(Poly.constant(F(5, 3)), i).is_zero()

    def test_square(self):
        # H^2 - (H - 2)^2 = 4H - 4
        assert delta_op(H**2, 2) == 4 * H - 4

    def test_rejects_zero_shift(self):
        with pytest.raises(DomainError):
            delta_op(H, 0)

    def test_degree_drop_random(self):
        rng = random.Random(13)
        for _ in range(300):
            f = random_poly(rng, 6, 8)
            while f.is_constant():
                f = random_poly(rng, 6, 8)
            i = rng.choice([k for k in range(-6, 7) if k])
            assert delta_op(f, i).degree == f.degree - 1


class TestRatFunc:
    def test_canonical_form(self):
        h = RatFunc(2 * H + 2, 4 * H)
        assert h.den.is_monic()
        assert h.num == F(1, 2) * (H + 1)
        assert RatFunc(H**2 - 1, H - 1) == RatFunc(H + 1)

    def test_rat_deg(self):
        assert rat_deg(RatFunc(H)) == 1
        assert rat_deg(RatFunc(Poly.one(), H)) == -1
        assert rat_deg(RatFunc(H**2 + 1, H - 3)) == 1
        assert rat_deg(RatFunc(Poly.zero())) == NEG_INF

    def test_rat_deg_additive(self):
        rng = random.Random(14)
        for _ in range(200):
            a = random_ratfunc(rng, 3, 5, nonzero=True)
            b = random_ratfunc(rng, 3, 5, nonzero=True)
            assert rat_deg(a * b) == rat_deg(a) + rat_deg(b)
            s = a + b
            if not s.is_zero():
                assert rat_deg(s) <= max(rat_deg(a), rat_deg(b))

    def test_canonical_after_arithmetic(self):
        rng = random.Random(15)
        from weylalg.polynomials import poly_gcd
        for _ in range(200):
            a = random_ratfunc(rng, 3, 5)
            b = random_ratfunc(rng, 3, 5, nonzero=True)
            for h in (a + b, a - b, a * b, a / b):
                assert h.den.is_monic()
                if not h.is_zero():
                    assert poly_gcd(h.num, h.den) == Poly.one()
                else:
                    assert h.den == Poly.one()

    def test_equal_values_hash_alike(self):
        for value in (H, H**2 - F(1, 3), Poly.constant(3), Poly.zero()):
            assert RatFunc(value) == value and hash(RatFunc(value)) == hash(value)
        assert RatFunc(2 * H, 2) == H and hash(RatFunc(2 * H, 2)) == hash(H)
        assert len({RatFunc(Poly.constant(3)), 3}) == 1

    def test_parts_of_other_types_are_a_type_error(self):
        with pytest.raises(TypeError):
            RatFunc(H, "x")
        with pytest.raises(TypeError):
            RatFunc("x")

    @given(short_lists, short_lists.filter(any), st.integers(-6, 6))
    @KERNEL
    def test_negation_and_shift_keep_the_canonical_form(self, cn, cd, i):
        # both build their result without the gcd; the public constructor reduces it again
        r = RatFunc(Poly(enumerate(cn)), Poly(enumerate(cd)))
        for got, (num, den) in ((-r, (-r.num, r.den)), (r.sigma(i), (r.num.sigma(i), r.den.sigma(i)))):
            want = RatFunc(num, den)
            assert (got.num, got.den) == (want.num, want.den)
            assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)

    def test_sigma_on_ratfunc(self):
        h = RatFunc(H, H + 1)
        assert sigma_pow(h, 2) == RatFunc(H - 2, H - 1)


class TestMonicSplit:
    def test_factor_leading(self):
        lead, monic = monic_split(RatFunc(3 * H + 3))
        assert (lead, monic) == (F(3), RatFunc(H + 1))

    def test_already_monic(self):
        assert monic_split(RatFunc(H)) == (F(1), RatFunc(H))

    def test_normalizes_both_parts(self):
        lead, monic = monic_split(RatFunc(Poly.constant(2), 4 * H))
        assert (lead, monic) == (F(1, 2), RatFunc(Poly.one(), H))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            monic_split(RatFunc(Poly.zero()))

    def test_split_reconstructs(self):
        rng = random.Random(16)
        for _ in range(100):
            h = random_ratfunc(rng, 3, 6, nonzero=True)
            lead, monic = monic_split(h)
            assert monic.is_monic()
            assert monic * lead == h
