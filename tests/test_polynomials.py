import random
import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from weylalg import NEG_INF, DomainError, Poly, RatFunc, delta_op, monic_split, rat_deg, sigma_pow
from weylalg.polynomials import (
    _P,
    _add,
    _coprime,
    _gf_divmod,
    _gf_normal,
    _mul,
    _strip,
    _sub,
    clear_denominators,
    falling_window,
    poly_gcd,
    poly_sum,
)
from helpers import assert_canonical_coefficient, random_poly, random_ratfunc

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
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            divmod(H, Poly.zero())

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


BIG = 10**100
big_rationals = st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
# int and Fraction scalars: 0, 1, -1, small rationals and 100-digit values
rational_scalars = st.one_of(
    st.sampled_from([0, 1, -1, F(0), F(1), F(-1)]),
    st.integers(-BIG, BIG),
    rationals,
    big_rationals,
)
mixed_lists = st.lists(st.one_of(rationals, big_rationals), max_size=6)


class TestScalarOperands:
    """A rational scales or shifts the stored integers; each result equals
    the product or sum with the constant polynomial or rational function."""

    @given(mixed_lists, rational_scalars)
    @KERNEL
    def test_poly(self, cf, c):
        f, k = Poly(enumerate(cf)), Poly.constant(c)
        for got, want in ((f * c, f * k), (c * f, k * f), (f + c, f + k), (c + f, k + f),
                          (f - c, f - k), (c - f, k - f)):
            assert got == want and got.terms == want.terms
            assert_canonical_coefficient(got)
        if c:
            # the reciprocal, with the sign on the denominator
            got = f._scaled(c.denominator, c.numerator)
            assert got == f * Poly.constant(1 / F(c))
            assert_canonical_coefficient(got)

    @given(short_lists, short_lists.filter(any), rational_scalars)
    @KERNEL
    def test_ratfunc(self, cn, cd, c):
        r, k = RatFunc(Poly(enumerate(cn)), Poly(enumerate(cd))), RatFunc(Poly.constant(c))
        num, den = c.numerator, c.denominator
        pairs = [(r._plus(num, den), r + k), (r._plus(-num, den), r - k)]
        if c:
            # a zero scalar never reaches _scaled: an element scaled by 0 is 0
            pairs += [(r._scaled(num, den), r * k), (r._scaled(den, num), r / k)]
        for got, want in pairs:
            assert (got.num, got.den) == (want.num, want.den)
            assert_canonical_coefficient(got)


def fraction_dict_terms(terms):
    """The terms Poly(terms) holds, summed in a Fraction dict; bad terms raise
    as Poly does: the first bad term decides, its exponent before its coefficient."""
    acc = {}
    for exp, coeff in terms:
        if type(exp) is not int or exp < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exp!r}")
        if not isinstance(coeff, (int, F)):
            raise TypeError(f"expected an integer or Fraction, got {type(coeff).__name__}")
        acc[exp] = acc.get(exp, 0) + F(coeff)
    return tuple((e, acc[e]) for e in sorted(acc) if acc[e])


def outcome(make, terms):
    try:
        return make(terms)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def terms_format(f: Poly) -> str:
    """Poly.format as rendered from the Fraction terms, descending."""
    if f.is_zero():
        return "0"
    parts = []
    for e, c in reversed(f.terms):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "H" if e == 1 else f"H^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


coefficients = st.one_of(st.integers(-10**30, 10**30), st.booleans(),
                         st.fractions(max_denominator=10**6), rationals)
term_lists = st.lists(st.tuples(st.integers(0, 6), coefficients), max_size=8)
bad_exponents = st.one_of(st.integers(max_value=-1), st.just(1.0), st.just("2"), st.none(), st.booleans())
bad_coefficients = st.one_of(st.floats(allow_nan=False), st.just("1/2"), st.none(), st.just(1j))


class TestConstructionAndPrinting:
    @given(term_lists, st.data())
    @KERNEL
    def test_terms_match_a_fraction_dict(self, terms, data):
        # cancelling pairs: each chosen term again with its coefficient negated
        terms += [(e, -c) for e, c in terms if data.draw(st.booleans())]
        terms = data.draw(st.permutations(terms))
        f = Poly(iter(terms))
        assert f.terms == fraction_dict_terms(terms)
        assert f == Poly(fraction_dict_terms(terms)) and hash(f) == hash(Poly(f.terms))

    @given(term_lists, st.one_of(st.integers(0, 3), bad_exponents),
           st.one_of(rationals, bad_coefficients), term_lists)
    @KERNEL
    def test_bad_terms_raise_in_order(self, before, exp, coeff, after):
        terms = before + [(exp, coeff)] + after + [(-1, "x")]
        assert outcome(Poly, terms) == outcome(fraction_dict_terms, terms)

    @pytest.mark.parametrize("exp", [True, False])
    def test_bool_exponent_is_rejected(self, exp):
        # as the graded constructor and Poly.from_json reject a bool degree
        with pytest.raises(ValueError, match=f"exponent must be a nonnegative integer, got {exp}"):
            Poly([(exp, 5)])

    @given(term_lists)
    @KERNEL
    def test_format_matches_the_terms_rendering(self, terms):
        f = Poly(terms)
        assert f.format() == terms_format(f)
        assert f.to_json() == {"poly": [[e, f"{c.numerator}/{c.denominator}"] for e, c in f.terms]}

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str limit")
    @pytest.mark.parametrize("where", ["numerator", "denominator", "numerator_over_3"])
    def test_too_many_digits_is_a_domain_error(self, where):
        limit = sys.get_int_max_str_digits()
        big = 10**limit  # limit + 1 digits
        coeff = {"numerator": -big, "denominator": F(1, big), "numerator_over_3": F(big + 1, 3)}[where]
        for f in (Poly([(0, coeff)]), Poly([(3, coeff), (1, 1)])):
            for render in (f.format, f.to_json):
                with pytest.raises(DomainError, match=f"more than {limit} digits"):
                    render()


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
        assert repr(h) == "RatFunc('(1/2*H + 1/2)/(H)')"
        assert 1 - RatFunc(H, H + 1) == RatFunc(Poly.one(), H + 1)

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


def sympy_monic_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b over Q, as sympy computes it."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(f):
        terms = {(e,): sympy.Rational(c.numerator, c.denominator) for e, c in f.terms}
        return sympy.Poly.from_dict(terms, x, domain="QQ")

    g = sympy.gcd(to_sympy(a), to_sympy(b))
    return Poly((e, F(str(c))) for (e,), c in g.terms())


nonconstant_lists = short_lists.filter(lambda c: any(c[1:]))


class TestGcd:
    """poly_gcd, with and without the coprimality test mod 2^61 - 1, against sympy."""

    @given(nonconstant_lists, nonconstant_lists, nonconstant_lists)
    @KERNEL
    def test_planted_common_factor(self, ca, cb, cc):
        a, b, c = (Poly(enumerate(cs)) for cs in (ca, cb, cc))
        g = poly_gcd(a * c, b * c)
        assert g == sympy_monic_gcd(a * c, b * c)
        assert g.degree >= c.degree and g.is_monic()

    @given(short_lists.filter(any), short_lists, rationals.filter(bool))
    @KERNEL
    def test_coprime_pairs(self, ca, cb, k):
        # gcd(a, a*b + k) = gcd(a, k) = 1
        a, b = Poly(enumerate(ca)), Poly(enumerate(cb))
        assert poly_gcd(a, a * b + k) == Poly.one() == sympy_monic_gcd(a, a * b + k)
        assert poly_gcd(a * b + k, a) == Poly.one()

    def test_zero_and_constant_arguments(self):
        assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()
        assert poly_gcd(2 * H + 4, Poly.zero()) == poly_gcd(Poly.zero(), 2 * H + 4) == H + 2
        assert poly_gcd(Poly.constant(F(-3, 2)), Poly.zero()) == Poly.one()
        assert poly_gcd(H**2 + 1, Poly.constant(7)) == Poly.one()

    def test_leading_coefficient_divisible_by_the_prime(self):
        # the numerators' leading coefficients are multiples of _P, so the
        # test mod _P shows nothing and the exact path answers
        f = H**2 + H * F(1, _P)  # H (H + 1/_P)
        df = f.derivative()
        assert not _coprime(f._c, df._c)
        assert poly_gcd(f, df) == Poly.one() == sympy_monic_gcd(f, df)
        g = f * (H + F(1, _P))
        assert not _coprime(g._c, g.derivative()._c)
        assert poly_gcd(g, g.derivative()) == H + F(1, _P) == sympy_monic_gcd(g, g.derivative())
        assert RatFunc(g, f * (H - 1)) == RatFunc(H + F(1, _P), H - 1)


def stepwise_gf_divmod(f, g, m):
    """Division by g in (Z/m)[x], lc(g) a unit mod m, reducing every
    coefficient after every step."""
    rem = _strip([a % m for a in f])
    n = len(g) - 1
    if len(rem) - 1 < n:
        return [], rem
    inv = pow(g[-1], -1, m)
    quo = [0] * (len(rem) - n)
    for shift in range(len(quo) - 1, -1, -1):
        c = rem[shift + n] * inv % m
        quo[shift] = c
        for j, b in enumerate(g):
            rem[shift + j] = (rem[shift + j] - c * b) % m
    return _strip(quo), _strip(rem[:n])


big_ints = st.integers(-(10**40), 10**40)


@st.composite
def gf_division_cases(draw):
    """(f, g, m) for m a small prime, a prime power with g monic (the
    Hensel case, g in symmetric range) or 2^61 - 1; f unreduced."""
    kind = draw(st.sampled_from(["prime", "prime power", "mersenne"]))
    if kind == "prime":
        m = draw(st.sampled_from([2, 3, 5, 7, 11, 101]))
    elif kind == "prime power":
        m = draw(st.sampled_from([3, 5, 7])) ** draw(st.integers(2, 9))
    else:
        m = _P
    f = draw(st.lists(big_ints, max_size=30))
    if kind == "prime power":
        g = draw(st.lists(st.integers(-(m // 2) + 1, m // 2), max_size=10)) + [1]
    else:
        g = draw(st.lists(big_ints, max_size=10)) + [draw(big_ints.filter(lambda a: a % m))]
    return f, g, m


class TestGfDivmod:
    """_gf_divmod reduces once per division; the reference after every step."""

    @given(gf_division_cases())
    @KERNEL
    def test_matches_stepwise_reduction(self, case):
        f, g, m = case
        q, r = _gf_divmod(f, g, m)
        assert (q, r) == stepwise_gf_divmod(f, g, m)
        assert len(r) < len(g)
        assert _gf_normal(_sub(f, _add(_mul(q, g), r)), m) == []


class TestMonicSplit:
    def test_factor_leading(self):
        lead, monic = monic_split(RatFunc(3 * H + 3))
        assert (lead, monic) == (F(3), RatFunc(H + 1))
        assert monic_split(3 * H + 3) == (F(3), H + 1)

    def test_already_monic(self):
        assert monic_split(RatFunc(H)) == (F(1), RatFunc(H))

    def test_normalizes_both_parts(self):
        lead, monic = monic_split(RatFunc(Poly.constant(2), 4 * H))
        assert (lead, monic) == (F(1, 2), RatFunc(Poly.one(), H))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            monic_split(RatFunc(Poly.zero()))
        with pytest.raises(DomainError):
            monic_split(Poly.zero())

    def test_split_reconstructs(self):
        rng = random.Random(16)
        for _ in range(100):
            h = random_ratfunc(rng, 3, 6, nonzero=True)
            lead, monic = monic_split(h)
            assert monic.is_monic()
            assert monic * lead == h
