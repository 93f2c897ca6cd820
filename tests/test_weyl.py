import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from weylalg import (
    NEG_INF,
    BElement,
    DomainError,
    HomogeneousElement,
    Poly,
    RatFunc,
    WeylElement,
    centralizer_generator,
    commutator,
    components,
    in_skew_subalgebra,
    mass,
    mul,
    normalize_text,
    sigma_pow,
    structure_constant,
    structure_constant_right,
    total_degree,
    xi_apply,
    xi_inverse_apply,
)
from weylalg.weyl import H, ONE, X, Y, ZERO
from helpers import assert_canonical_coefficient, random_poly, random_weyl, random_weyl_nonzero
from rewrite_oracle import rewrite_normalize_text

Hp = Poly.gen()


def v(n):
    return WeylElement({n: 1})


def _repeated_product(base, n, one):
    result = one
    for _ in range(n):
        result = result * base
    return result


class TestStructureConstant:
    def test_paper_values(self):
        assert structure_constant(1, -1) == Hp - 1   # X Y = H - 1
        assert structure_constant(-1, 1) == Hp       # Y X = H
        assert structure_constant(2, 3) == Poly.one()
        assert structure_constant(0, 5) == Poly.one()

    def test_rewrite_derived_value(self):
        # X^2 Y = (H - 2) X via Y X = H, X Y = H - 1
        assert structure_constant(2, -1) == Hp - 2

    def test_against_letter_rewriting(self):
        # independent oracle: normalize the free word by letter rewriting
        for n in range(-4, 5):
            for m in range(-4, 5):
                left = "1" if n == 0 else (f"X^{n}" if n > 0 else f"Y^{-n}")
                right = "1" if m == 0 else (f"X^{m}" if m > 0 else f"Y^{-m}")
                expected = rewrite_normalize_text(f"{left}*{right}")
                assert v(n) * v(m) == expected
                got = WeylElement({n + m: structure_constant(n, m)})
                assert got == expected

    def test_degree_of_balanced_constants(self):
        for p in range(1, 13):
            assert structure_constant(p, -p).degree == p

    def test_right_constant_identity(self):
        # (n, m) v_{n+m} = v_{n+m} <n, m>
        for n in range(-3, 4):
            for m in range(-3, 4):
                left = WeylElement({n + m: structure_constant(n, m)})
                right = v(n + m) * WeylElement({0: structure_constant_right(n, m)})
                assert left == right


class TestMul:
    def test_defining_relations(self):
        assert X * Y == WeylElement({0: Hp - 1})
        assert Y * X == H
        assert mul(Y, X) == H
        assert commutator(Y, X) == ONE

    def test_h_times_x(self):
        assert H * X - X * H == X  # [H, X] = X
        assert WeylElement({1: Hp}) * WeylElement({1: Hp}) == WeylElement({2: Hp * (Hp - 1)})

    def test_commutator_antisymmetry(self):
        rng = random.Random(31)
        for _ in range(50):
            a = random_weyl(rng)
            assert commutator(a, a) == ZERO

    def test_associativity_random(self):
        rng = random.Random(32)
        for _ in range(300):
            a, b, c = (random_weyl(rng, 3, 3, 6, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_graded_multiplicativity(self):
        rng = random.Random(33)
        for _ in range(100):
            a = random_weyl(rng)
            b = random_weyl(rng)
            product = a * b
            degrees = set()
            for i, fa in a.components():
                for j, fb in b.components():
                    term = WeylElement({i: fa}) * WeylElement({j: fb})
                    assert term.support() <= {i + j}
                    degrees.update(term.support())
            assert product.support() <= degrees

    def test_b_element_coefficients(self):
        a = BElement({1: RatFunc(Poly.one(), Hp)})
        b = BElement({-1: RatFunc(Hp)})
        left = a * b
        # (1/H X)(H Y) = 1/H * sigma(H) * (1,-1) v_0 = (H-1)^2/H
        assert left == BElement({0: RatFunc((Hp - 1) ** 2, Hp)})

    def test_weyl_closed_under_mul(self):
        rng = random.Random(34)
        for _ in range(30):
            a = random_weyl(rng)
            b = random_weyl(rng)
            assert isinstance(a * b, WeylElement)

    def test_degree_zero_factor_on_the_left(self):
        # f * a multiplies the components of a; it must equal the graded
        # product with f embedded at degree 0
        rng = random.Random(57)
        r = RatFunc(Poly.one(), Hp)
        for _ in range(30):
            a = random_weyl(rng)
            for f in (0, 3, F(-2, 5), random_poly(rng, 3, 5)):
                assert f * a == WeylElement({0: f}) * a
                assert isinstance(f * a, WeylElement)
                assert f * a.to_b() == BElement({0: f}) * a.to_b()
                assert isinstance(f * a.to_b(), BElement)
            assert r * a == BElement({0: r}) * a
            assert isinstance(r * a, BElement)

    def test_mixed_promotes_to_b(self):
        a = X + Y
        b = BElement({0: RatFunc(Poly.one(), Hp)})
        assert isinstance(a * b, BElement)
        assert a.to_b() * b == a * b


class TestGradingOps:
    def test_mass_examples(self):
        assert mass(WeylElement({3: Hp**2})) == 1
        assert mass(X + Y) == 2
        assert mass(Y * X - X * Y) == 1
        assert mass(ZERO) == 0
        assert WeylElement({3: Hp**2}).is_homogeneous()
        assert not (X + Y).is_homogeneous() and not ZERO.is_homogeneous()

    def test_components_sorted(self):
        a = WeylElement({2: 1, -1: Hp, 0: 3})
        assert [i for i, _ in components(a)] == [-1, 0, 2]

    def test_total_degree(self):
        assert total_degree(X) == 1
        assert total_degree(H) == 2
        assert total_degree(WeylElement({3: Hp**2})) == 7
        assert total_degree(ZERO) == NEG_INF

    def test_filtration_membership(self):
        # total_degree <= k iff the element is a combination of words of length <= k
        assert total_degree(normalize_text("X*Y*X + Y")) <= 3
        assert total_degree(normalize_text("(X+Y)^4")) == 4

    def test_in_skew_subalgebra(self):
        assert in_skew_subalgebra(WeylElement({2: Hp}), "plus")
        assert not in_skew_subalgebra(X + Y, "plus")
        assert in_skew_subalgebra(H, "minus")
        assert in_skew_subalgebra(H, "plus")
        with pytest.raises(ValueError):
            in_skew_subalgebra(H, "both")


class TestXi:
    def test_images(self):
        assert xi_apply(X) == Y
        assert xi_apply(Y) == -X
        assert xi_apply(H) == ONE - H

    def test_involution_power_four(self):
        rng = random.Random(35)
        for _ in range(100):
            a = random_weyl(rng)
            b = a
            for _ in range(4):
                b = xi_apply(b)
            assert b == a

    def test_inverse(self):
        rng = random.Random(36)
        for _ in range(100):
            a = random_weyl(rng)
            assert xi_inverse_apply(xi_apply(a)) == a
            assert xi_apply(xi_inverse_apply(a)) == a

    def test_automorphism(self):
        rng = random.Random(37)
        for _ in range(150):
            a = random_weyl(rng, 3, 3, 6, 3)
            b = random_weyl(rng, 3, 3, 6, 3)
            assert xi_apply(a * b) == xi_apply(a) * xi_apply(b)
            assert xi_apply(a + b) == xi_apply(a) + xi_apply(b)

    def test_reverses_grading(self):
        rng = random.Random(38)
        for _ in range(100):
            a = random_weyl(rng)
            assert {-i for i in a.support()} == xi_apply(a).support()

    def test_acts_only_on_weyl_elements(self):
        for flip in (xi_apply, xi_inverse_apply):
            with pytest.raises(TypeError, match="WeylElement, got BElement"):
                flip(X.to_b())
            with pytest.raises(TypeError, match="WeylElement, got int"):
                flip(3)


class TestCentralizerMembership:
    def test_lemma_spot_check(self):
        # elements commuting with u in the plus subalgebra stay in it
        rng = random.Random(39)
        for _ in range(25):
            alpha = random_poly(rng, 2, 4, monic=True)
            n = rng.randint(1, 3)
            u = HomogeneousElement(n, RatFunc(alpha))
            result = centralizer_generator(u)
            u_b = u.to_graded()
            for j in range(1, 4):
                c = result.v ** j
                c_b = c.to_graded()
                assert u_b * c_b == c_b * u_b
                if c_b.is_weyl():
                    assert in_skew_subalgebra(c_b.to_weyl(), "plus")


class TestHomogeneous:
    def test_x_basis_conversion_roundtrip(self):
        rng = random.Random(40)
        for _ in range(50):
            i = rng.choice([k for k in range(-4, 5) if k or True])
            f = random_poly(rng, 3, 5, nonzero=True)
            u = HomogeneousElement.from_graded_component(i, f)
            assert u.to_graded() == BElement({i: RatFunc(f)})
            assert HomogeneousElement.from_graded(WeylElement({i: f})) == u
            # the constructor coerces a Poly or int coefficient into Q(H)
            assert HomogeneousElement(i, f) == HomogeneousElement(i, RatFunc(f))
            assert HomogeneousElement(i, 3) == HomogeneousElement(i, RatFunc(3))
            assert HomogeneousElement(-2, f).to_graded() == HomogeneousElement(-2, RatFunc(f)).to_graded()
        with pytest.raises(DomainError, match="^element is not homogeneous$"):
            HomogeneousElement.from_graded(X + Y)
        with pytest.raises(DomainError, match="^the zero element is not homogeneous$"):
            HomogeneousElement.from_graded(ZERO)

    def test_negative_degree_unit(self):
        # Y = H X^-1, so the v-basis coefficient 1 at degree -1 becomes H
        u = HomogeneousElement.from_graded_component(-1, Poly.one())
        assert u.coeff == RatFunc(Hp)
        assert (str(u), str(HomogeneousElement(0, RatFunc(Hp)))) == ("(H) * X^-1", "H")
        # Y^2 = H(H+1) X^-2
        u2 = HomogeneousElement.from_graded_component(-2, Poly.one())
        assert u2.coeff == RatFunc(Hp * (Hp + 1))

    def test_homogeneous_mul_matches_graded(self):
        rng = random.Random(41)
        for _ in range(60):
            i = rng.randint(-3, 3)
            j = rng.randint(-3, 3)
            f = random_poly(rng, 2, 4, nonzero=True)
            g = random_poly(rng, 2, 4, nonzero=True)
            a = HomogeneousElement.from_graded_component(i, f)
            b = HomogeneousElement.from_graded_component(j, g)
            assert (a * b).to_graded() == a.to_graded() * b.to_graded()


class TestElementBasics:
    def test_zero_handling(self):
        assert WeylElement({0: Poly.zero(), 2: 0}).is_zero()
        assert (X - X).is_zero()
        assert not ZERO and X
        # a repeated degree is summed, and a pair that cancels leaves nothing
        assert WeylElement([(1, Hp), (1, 1), (0, 3)]) == WeylElement({0: 3, 1: Hp + 1})
        assert WeylElement([(1, 2), (1, -2)]).is_zero()
        assert BElement([(-1, RatFunc(Hp)), (2, 1), (-1, -RatFunc(Hp))]) == BElement({2: 1})

    def test_repr(self):
        assert repr(WeylElement({1: 2, -1: Hp})) == "WeylElement({-1: H, 1: 2})"
        assert repr(X.to_b()) == "BElement({1: 1})"

    def test_equality_and_hash(self):
        a = normalize_text("Y*X")
        assert a == H
        assert hash(a) == hash(H)
        # equal values hash alike across scalars, Poly, RatFunc and both classes
        pairs = [
            (ONE, 1),
            (ONE, Poly.one()),
            (ZERO, 0),
            (ZERO, F(0)),
            (H, Hp),
            (H, RatFunc(Hp)),
            (H.to_b(), Hp),
            (WeylElement({0: F(1, 2)}), F(1, 2)),
            (X, X.to_b()),
            (X + Y * Hp - 2, (X + Y * Hp - 2).to_b()),
            (BElement({0: RatFunc(Hp, Hp + 1)}), RatFunc(Hp, Hp + 1)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b), (a, b)
        assert len({ONE, 1}) == 1
        assert len({X, X.to_b(), Y}) == 2

    def test_degrees_must_be_integers(self):
        for degree in (True, False, 2.0):
            with pytest.raises(TypeError, match="graded degrees must be integers"):
                WeylElement({degree: 1})
            with pytest.raises(TypeError, match="graded degrees must be integers"):
                BElement([(degree, 1)])
            with pytest.raises(DomainError, match="homogeneous degree must be an integer"):
                HomogeneousElement(degree, RatFunc(Hp))

    def test_coefficients_must_belong_to_the_ring(self):
        # one raise, in the ring's coercion, names the offending type
        with pytest.raises(TypeError, match="cannot use str as a Poly coefficient"):
            WeylElement({0: "x"})
        with pytest.raises(TypeError, match="cannot use object as a RatFunc coefficient"):
            BElement({0: object()})
        with pytest.raises(TypeError, match="cannot use str as a RatFunc coefficient"):
            HomogeneousElement.from_graded_component(1, "x")
        with pytest.raises(TypeError, match="cannot use str as a RatFunc coefficient"):
            HomogeneousElement(1, "x")
        with pytest.raises(TypeError, match="cannot use RatFunc as a Poly coefficient"):
            WeylElement({0: RatFunc(Hp, Hp + 1)})

    def test_pow(self):
        assert X**3 == WeylElement({3: 1})
        assert (X + Y) ** 0 == ONE
        a = X + Y * Hp + 2
        f = Hp**2 - F(1, 3)
        r = RatFunc(2 * Hp - 1, Hp**2 + F(1, 2))
        u = HomogeneousElement(-3, RatFunc(Hp + F(2, 3), Hp - 5))
        r_one = RatFunc(Poly.one())
        for n in (1, 2, 5):
            assert a**n == _repeated_product(a, n, ONE)
            assert f**n == _repeated_product(f, n, Poly.one())
            assert r**n == _repeated_product(r, n, r_one)
            assert r**-n == _repeated_product(r.inverse(), n, r_one)
            assert u**n == _repeated_product(u, n, HomogeneousElement(0, r_one))
        assert r**0 == r_one

    def test_scalar_ops(self):
        a = X * F(1, 2) + 3
        assert a == WeylElement({1: F(1, 2), 0: 3})
        assert 2 * a - a == a

    def test_sigma_rule_for_coefficient_passage(self):
        # v_k f = sigma^k(f) v_k
        rng = random.Random(42)
        for _ in range(60):
            k = rng.randint(-4, 4)
            f = random_poly(rng, 3, 5)
            left = v(k) * WeylElement({0: f})
            right = WeylElement({k: sigma_pow(f, k)})
            assert left == right


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=3)
small_polys = st.lists(small_rats, max_size=4).map(lambda cs: Poly(enumerate(cs)))
small_ratfuncs = st.builds(RatFunc, small_polys, small_polys.filter(bool))
weyl_elements = st.dictionaries(st.integers(-3, 3), small_polys, max_size=3).map(WeylElement)
b_elements = st.dictionaries(st.integers(-3, 3), small_ratfuncs, max_size=3).map(BElement)
elements = st.one_of(weyl_elements, b_elements)
scalars = st.one_of(st.integers(-3, 3), small_rats, st.booleans(), small_polys, small_ratfuncs)


def assert_canonical(r, rational):
    """r stores only nonzero coefficients of its own ring and equals its rebuild."""
    assert type(r) is (BElement if rational else WeylElement)
    ring = RatFunc if rational else Poly
    for _, c in r.components():
        assert type(c) is ring and c
    rebuilt = type(r)(r.components())
    assert rebuilt == r and hash(rebuilt) == hash(r)
    assert rebuilt.components() == r.components()


class TestCanonicalResults:
    @given(elements, elements, elements, scalars)
    @settings(max_examples=150, deadline=None)
    def test_sums_differences_and_products(self, a, b, c, s):
        rational = isinstance(a, BElement) or isinstance(b, BElement)
        for r in (a + b, a - b, b - a, a * b, b * a, (a + b) * (a - b), a * b - b * a,
                  (a * b) * c - a * (b * c)):
            assert_canonical(r, rational or isinstance(r, BElement))
        for r in (a - a, 0 * a, a * 0, Poly.zero() * a, a * Poly.zero(), -a + a):
            assert r.is_zero()
            assert_canonical(r, isinstance(a, BElement))
        assert_canonical(-a, isinstance(a, BElement))
        zero = RatFunc(0) * a
        assert zero.is_zero()
        assert_canonical(zero, True)
        rational = isinstance(a, BElement) or isinstance(s, RatFunc)
        for r in (s * a, a * s, s + a, a + s, s - a, a - s):
            assert_canonical(r, rational or isinstance(r, BElement))

    @given(elements, elements)
    @settings(max_examples=150, deadline=None)
    def test_weyl_and_rational_products_agree(self, a, b):
        # the Poly and the RatFunc sums of products give the same element
        assert a.to_b() * b.to_b() == (a * b).to_b()


BIG = 10**100
# int and Fraction scalars: 0, 1, -1, small rationals and 100-digit values
rational_scalars = st.one_of(
    st.sampled_from([0, 1, -1, F(0), F(1), F(-1)]),
    st.integers(-BIG, BIG),
    small_rats,
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


class TestRationalScalars:
    """A rational scales each component, or shifts component 0, on the
    stored integers; each result equals the product or sum with the
    degree-0 element, which takes the graded product and sum."""

    @given(elements, rational_scalars)
    @settings(max_examples=150, deadline=None)
    def test_against_the_degree_zero_element(self, a, c):
        k = type(a)({0: c})
        for got, want in ((a * c, a * k), (c * a, k * a), (a + c, a + k), (c + a, k + a),
                          (a - c, a - k), (c - a, k - a)):
            assert type(got) is type(a) and got == want
            assert got.components() == want.components()
            for _, coeff in got.components():
                assert coeff and type(coeff) is a._ring
                assert_canonical_coefficient(coeff)


class TestScalarOperands:
    """The results of scalar operands on either side, as pinned here."""

    a = X + Hp * Y - 2  # v_1 + H v_-1 - 2

    def test_central_scalars(self):
        a = self.a
        for k, expected in (
            (3, WeylElement({1: 3, -1: 3 * Hp, 0: -6})),
            (F(1, 2), WeylElement({1: F(1, 2), -1: Hp * F(1, 2), 0: -1})),
            (True, a),
            (False, ZERO),
            (0, ZERO),
        ):
            for r in (k * a, a * k):
                assert r == expected and type(r) is WeylElement
            for r in (k * a.to_b(), a.to_b() * k):
                assert r == expected.to_b() and type(r) is BElement
        assert a + 3 == 3 + a == WeylElement({1: 1, -1: Hp, 0: 1})
        # a sum that cancels component 0 drops it
        assert (a + 2).components() == (X + Hp * Y).components()
        assert (a.to_b() + F(2)).components() == (X + Hp * Y).to_b().components()
        assert a - 3 == WeylElement({1: 1, -1: Hp, 0: -5})
        assert 3 - a == WeylElement({1: -1, -1: -Hp, 0: 5})
        assert True + a == a + 1 and type(True + a) is WeylElement
        with pytest.raises(TypeError):
            a + "1"

    def test_polynomial_coefficients(self):
        a = self.a
        # a degree-0 factor on the left multiplies each component
        assert Hp * a == WeylElement({1: Hp, -1: Hp * Hp, 0: -2 * Hp})
        # on the right it passes through the shift: v_k f = sigma^k(f) v_k
        assert a * Hp == WeylElement({1: Hp - 1, -1: Hp * (Hp + 1), 0: -2 * Hp})
        assert type(Hp * a) is type(a * Hp) is WeylElement
        assert Hp + a == a + Hp == WeylElement({1: 1, -1: Hp, 0: Hp - 2})
        assert (Hp - a) == -(a - Hp) == WeylElement({1: -1, -1: -Hp, 0: Hp + 2})
        for r in (Poly.zero() * a, a * Poly.zero()):
            assert r == ZERO and type(r) is WeylElement

    def test_rational_coefficients(self):
        a = self.a
        r = RatFunc(Poly.one(), Hp)  # 1/H
        assert r * a == BElement({1: r, -1: RatFunc(Poly.one()), 0: RatFunc(Poly.constant(-2), Hp)})
        assert a * r == BElement({
            1: RatFunc(Poly.one(), Hp - 1),
            -1: RatFunc(Hp, Hp + 1),
            0: RatFunc(Poly.constant(-2), Hp),
        })
        assert a + r == r + a == BElement({1: 1, -1: Hp, 0: RatFunc(1 - 2 * Hp, Hp)})
        for x in (r * a, a * r, a + r, r + a, a - r, r - a):
            assert type(x) is BElement
        for x in (RatFunc(0) * a, a * RatFunc(0)):
            assert x == ZERO and type(x) is BElement
