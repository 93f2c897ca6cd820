import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from weylalg import (
    DomainError,
    FactoredPoly,
    HomogeneousElement,
    Poly,
    RatFunc,
    TwistedRootInfeasible,
    WeylElement,
    centralizer_generator,
    centralizer_rational,
    in_rational_centralizer,
    normalize_text,
    positive_divisors,
    power_decompose,
    shift_orbit_partition,
    sigma_pow,
    solve_twisted_root,
    twisted_product,
)
import weylalg.centralizer as centralizer_module
from weylalg.centralizer import Orbit, _deconvolve
from weylalg.factor import _poly_key
from helpers import random_int_monic

Hp = Poly.gen()


def factored(*pairs):
    return FactoredPoly(F(1), tuple(pairs))


class TestOrbitPartition:
    def test_adjacent_shift_merges(self):
        orbits = shift_orbit_partition(factored((Hp, 1), (Hp - 1, 1)), 1)
        assert len(orbits) == 1
        assert dict(orbits[0].exponents) == {0: 1, 1: 1}
        # position j holds rep(H - j)
        assert orbits[0].base_at(1) == sigma_pow(orbits[0].rep, 1)

    def test_degree_mismatch_splits(self):
        orbits = shift_orbit_partition(factored((Hp, 1), (Hp**2 + 1, 1)), 1)
        assert len(orbits) == 2

    def test_non_multiple_shift_splits(self):
        orbits = shift_orbit_partition(factored((Hp, 1), (Hp - 1, 1)), 2)
        assert len(orbits) == 2

    def test_order_independent(self):
        bases = [(Hp, 2), (Hp - 3, 1), (Hp - 1, -1), (Hp**2 + 1, 1), (Hp**2 + 1 - 2 * Hp + 2, 3)]
        reference = shift_orbit_partition(factored(*bases), 1)
        for perm in itertools.permutations(bases):
            assert shift_orbit_partition(factored(*perm), 1) == reference

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(
            st.tuples(
                st.lists(st.fractions(-6, 6, max_denominator=4), min_size=1, max_size=3),
                st.lists(st.tuples(st.integers(-5, 5), st.integers(-3, 3).filter(bool)), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_matches_pairwise_grouping(self, s, seeds):
        # monic bases at integer shifts of a few seeds: some land in one
        # orbit of H -> H - s, others only in one of a finer step
        bases = {}
        for low, shifts in seeds:
            seed = Poly([*enumerate(low), (len(low), 1)])
            for shift, exp in shifts:
                bases[sigma_pow(seed, shift)] = exp
        factors = factored(*sorted(bases.items(), key=lambda item: _poly_key(item[0])))
        assert shift_orbit_partition(factors, s) == pairwise_orbit_partition(factors, s)


def pairwise_orbit_partition(factors, s):
    """shift_orbit_partition by comparing each base with each orbit found so
    far: rep(H - j*s) has subleading coefficient c_{d-1}(rep) - d*j*s, which
    gives the candidate j, and the shift is then checked exactly."""
    orbits = []
    for base, exp in factors.factors:
        d = base.degree
        for rep, positions in orbits:
            if rep.degree != d:
                continue
            j = (rep.coeff(d - 1) - base.coeff(d - 1)) / (d * s)
            if j.denominator == 1 and sigma_pow(rep, int(j) * s) == base:
                positions[int(j)] = positions.get(int(j), 0) + exp
                break
        else:
            orbits.append((base, {0: exp}))
    out = []
    for rep, positions in orbits:
        low = min(positions)
        shifted = tuple(sorted((j - low, e) for j, e in positions.items()))
        out.append(Orbit(sigma_pow(rep, low * s), s, shifted))
    out.sort(key=lambda o: _poly_key(o.rep))
    return out


def brute_force_deconvolve(exponents, k):
    """_deconvolve with each window summed afresh: O(span * k)."""
    lo = min(exponents)
    hi = max(exponents)
    d = {}
    for j in range(lo, hi + 1):
        val = exponents.get(j, 0)
        for m in range(1, k):
            val -= d.get(j - m, 0)
        if val:
            d[j] = val
    for j in range(lo, hi + k):
        conv = sum(d.get(j - m, 0) for m in range(k))
        if conv != exponents.get(j, 0):
            return None, (j, conv - exponents.get(j, 0))
    return d, None


def window_sums(d, k):
    """The exponents sum_{m<k} d(j - m) of a finitely supported d, zeros
    dropped; not all of them vanish when d does not."""
    e = {}
    for j, v in d.items():
        for m in range(k):
            e[j + m] = e.get(j + m, 0) + v
    return {j: v for j, v in e.items() if v}


exponent_maps = st.dictionaries(st.integers(-30, 30), st.integers(-4, 4), min_size=1, max_size=12)
nonzero_maps = st.dictionaries(
    st.integers(-30, 30), st.integers(-4, 4).filter(bool), min_size=1, max_size=12
)


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(
    lambda coeffs: Poly(enumerate(coeffs))
).filter(lambda f: not f.is_zero())
nonzero_ratfuncs = st.builds(RatFunc, small_polys, small_polys)


class TestDeconvolve:
    @given(exponent_maps, st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, exponents, k):
        d, failure = brute_force_deconvolve(exponents, k)
        assert _deconvolve(exponents, k) == (d, failure)
        # position by position the solve matches e up to max e, so only the
        # k - 1 positions after it can fail
        if failure is not None:
            assert max(exponents) < failure[0] < max(exponents) + k

    @given(nonzero_maps, st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_window_sums_deconvolve(self, d, k):
        exponents = window_sums(d, k)
        got = _deconvolve(exponents, k)
        assert got == brute_force_deconvolve(exponents, k)
        assert got == (d, None)


class TestTwistedRoot:
    def test_trivial(self):
        one = RatFunc(Poly.one())
        assert solve_twisted_root(one, 2, 1, "plus") == one

    def test_split_product(self):
        alpha = RatFunc(Hp * (Hp - 1))
        beta = solve_twisted_root(alpha, 2, 1, "plus")
        assert beta == RatFunc(Hp)
        assert twisted_product(beta, 2, 1, "plus") == alpha

    def test_degree_parity_infeasible(self):
        with pytest.raises(TwistedRootInfeasible) as err:
            solve_twisted_root(RatFunc(Hp), 2, 1, "plus")
        assert err.value.certificate.kind == "degree"

    def test_residue_infeasible(self):
        # H^2 (H-1)^0 ... exponent pattern 2,0 cannot be a 2-fold twisted product
        with pytest.raises(TwistedRootInfeasible) as err:
            solve_twisted_root(RatFunc(Hp**2 * (Hp - 2) ** 2), 2, 1, "plus")
        cert = err.value.certificate
        assert cert.kind == "residue"
        assert cert.residue != 0
        # the minus direction solves on mirrored positions and reports the
        # failing one back in the orbit's own positions
        with pytest.raises(TwistedRootInfeasible) as err:
            solve_twisted_root(RatFunc(Hp**2 * (Hp + 2) ** 2), 2, 1, "minus")
        cert = err.value.certificate
        assert (cert.kind, cert.orbit_rep, cert.position, cert.residue) == ("residue", Hp + 2, -1, 4)

    def test_minus_direction(self):
        beta = RatFunc(Hp * (Hp + 3))
        alpha = twisted_product(beta, 3, 2, "minus")
        assert solve_twisted_root(alpha, 3, 2, "minus") == beta

    def test_rejects_bad_direction(self):
        beta = RatFunc(Hp)
        with pytest.raises(ValueError, match="direction must be 'plus' or 'minus', got 'bogus'"):
            twisted_product(beta, 2, 1, "bogus")
        with pytest.raises(ValueError, match="direction must be 'plus' or 'minus', got 'bogus'"):
            solve_twisted_root(twisted_product(beta, 2, 1, "plus"), 2, 1, "bogus")

    @pytest.mark.parametrize("k", [0, -1])
    def test_empty_product_is_rejected(self, k):
        # the empty product would be 1, not beta
        with pytest.raises(DomainError, match="twisted root needs positive k and s"):
            twisted_product(RatFunc(Hp), k, 1, "plus")

    @pytest.mark.parametrize("alpha", [RatFunc(Hp**2 + 2), RatFunc(Hp * (Hp - 3), (Hp + 1) ** 2)])
    def test_one_fold_root_is_alpha(self, alpha):
        for s in (1, 3):
            for direction in ("plus", "minus"):
                assert solve_twisted_root(alpha, 1, s, direction) == alpha

    def test_wrong_root_fails_the_exact_check(self, monkeypatch):
        monkeypatch.setattr(centralizer_module, "twisted_product", lambda beta, k, s, direction: beta)
        with pytest.raises(RuntimeError, match="deconvolution produced a wrong twisted root"):
            solve_twisted_root(RatFunc(Hp * (Hp - 1)), 2, 1, "plus")

    @given(nonzero_ratfuncs, st.integers(1, 6), st.integers(1, 3), st.sampled_from(["plus", "minus"]))
    @settings(max_examples=100, deadline=None)
    def test_twisted_product_is_a_homogeneous_power(self, beta, k, s, direction):
        # (beta X^(+-s))^k = beta sigma^(+-s)(beta) ... X^(+-ks)
        sign = 1 if direction == "plus" else -1
        assert twisted_product(beta, k, s, direction) == (HomogeneousElement(sign * s, beta) ** k).coeff

    def test_ratfunc_alpha(self):
        beta = RatFunc(Hp, Hp**2 + 1)
        alpha = twisted_product(beta, 2, 3, "plus")
        assert solve_twisted_root(alpha, 2, 3, "plus") == beta

    def test_beta_unique_and_monic(self):
        rng = random.Random(61)
        for _ in range(40):
            deg = rng.randint(0, 2)
            beta = RatFunc(random_int_monic(rng, deg, 4))
            k = rng.randint(2, 4)
            s = rng.randint(1, 3)
            direction = rng.choice(["plus", "minus"])
            alpha = twisted_product(beta, k, s, direction)
            got = solve_twisted_root(alpha, k, s, direction)
            assert got == beta
            assert got.is_monic()


class TestCentralizerGenerator:
    def test_pure_power(self):
        result = centralizer_generator(HomogeneousElement(2, RatFunc(Poly.one())))
        assert result.s == 1
        assert result.v == HomogeneousElement(1, RatFunc(Poly.one()))

    def test_parity_blocked(self):
        result = centralizer_generator(HomogeneousElement(2, RatFunc(Hp)))
        assert result.s == 2
        assert result.beta == RatFunc(Hp)
        assert [c.divisor for c in result.infeasible_divisors] == [1]
        assert result.infeasible_divisors[0].kind == "degree"

    def test_split_coefficient(self):
        result = centralizer_generator(HomogeneousElement(2, RatFunc(Hp * (Hp - 1))))
        assert result.s == 1
        assert result.v == HomogeneousElement(1, RatFunc(Hp))
        # a Poly coefficient is coerced into Q(H) at construction
        assert centralizer_generator(HomogeneousElement(2, Hp * (Hp - 1))) == result

    def test_negative_degree(self):
        u = HomogeneousElement.from_graded_component(-1, Hp)  # H*Y
        assert u.coeff == RatFunc(Hp**2)
        result = centralizer_generator(u)
        assert result.s == 1
        assert result.v == u

    def test_commutation_exact(self):
        rng = random.Random(62)
        for _ in range(30):
            n = rng.choice([i for i in range(-5, 6) if i])
            s0 = rng.choice(positive_divisors(n))
            direction = "plus" if n > 0 else "minus"
            beta = RatFunc(random_int_monic(rng, rng.randint(0, 2), 3))
            alpha = twisted_product(beta, abs(n) // s0, s0, direction)
            u = HomogeneousElement(n, alpha)
            result = centralizer_generator(u)
            u_b, v_b = u.to_graded(), result.v.to_graded()
            assert u_b * v_b == v_b * u_b
            # reconstruction: u = v^(|n|/s) exactly (both monic)
            decomp = power_decompose(u, result.v)
            assert decomp is not None
            assert decomp.scalar == 1
            assert decomp.exponent == abs(n) // result.s

    def test_rejects_non_monic_and_degree_zero(self):
        with pytest.raises(DomainError):
            centralizer_generator(HomogeneousElement(2, RatFunc(2 * Hp)))
        with pytest.raises(DomainError):
            centralizer_generator(HomogeneousElement(0, RatFunc(Hp)))

    def test_infeasibility_brute_force_small(self):
        # u = alpha X^4 with alpha = beta * sigma^2(beta), beta = H^2 + 2:
        # s = 1 and s = 2... s=2 is feasible; pick alpha making s=1,2 fail
        beta = RatFunc(Hp**2 + 2)
        alpha = twisted_product(beta, 1, 4, "plus")  # k=1: alpha = beta, s0 = 4
        result = centralizer_generator(HomogeneousElement(4, alpha))
        assert result.s == 4
        for cert in result.infeasible_divisors:
            s = cert.divisor
            k = 4 // s
            forced = F(2, k)  # rat_deg(alpha) = 2
            if forced.denominator != 1:
                continue  # no candidates of fractional degree
            d = int(forced)
            for cand in _all_monic_int(d, 4):
                assert twisted_product(RatFunc(cand), k, s, "plus") != alpha


    def test_factors_alpha_once(self, monkeypatch):
        # (H^2 + 1)^2 X^4: divisors 1 and 2 pass the degree test and both
        # end in residue certificates, so one factorization serves both
        from weylalg import centralizer, factor

        calls = []

        def counting(f):
            calls.append(f)
            return factor.factor_ratfunc(f)

        monkeypatch.setattr(centralizer, "factor_ratfunc", counting)
        result = centralizer_generator(HomogeneousElement(4, RatFunc((Hp**2 + 1) ** 2)))
        assert [(c.divisor, c.kind) for c in result.infeasible_divisors] == [
            (1, "residue"),
            (2, "residue"),
        ]
        assert result.s == 4
        assert len(calls) == 1


def _all_monic_int(deg, height):
    if deg == 0:
        yield Poly.one()
        return
    span = range(-height, height + 1)
    for combo in itertools.product(span, repeat=deg):
        terms = {e: F(c) for e, c in enumerate(combo)}
        terms[deg] = F(1)
        yield Poly(terms.items())


class TestPowerDecompose:
    def test_pure_powers(self):
        from weylalg import PowerDecomposition

        x = HomogeneousElement(1, RatFunc(Poly.one()))
        w = HomogeneousElement(4, RatFunc(Poly.one()))
        assert power_decompose(w, x) == PowerDecomposition(scalar=F(1), exponent=4)

    def test_scaled_square(self):
        # Poly coefficients are coerced into Q(H) like RatFunc ones
        for wrap in (RatFunc, lambda f: f):
            v = HomogeneousElement(1, wrap(Hp))
            w = HomogeneousElement(2, wrap(2 * Hp * (Hp - 1)))
            decomp = power_decompose(w, v)
            assert (decomp.scalar, decomp.exponent) == (F(2), 2)

    def test_not_a_power(self):
        x = HomogeneousElement(1, RatFunc(Poly.one()))
        w = HomogeneousElement(3, RatFunc(Hp))
        assert power_decompose(w, x) is None
        assert power_decompose(x, HomogeneousElement(2, RatFunc(Poly.one()))) is None


class TestRationalCentralizer:
    def test_marker(self):
        assert centralizer_rational(RatFunc(Hp)) == "K(H)"

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            centralizer_rational(RatFunc(Poly.constant(5)))

    def test_membership(self):
        assert not in_rational_centralizer(normalize_text("X"))
        assert in_rational_centralizer(normalize_text("H^3 - 2"))
        assert normalize_text("H*X") * normalize_text("H") != normalize_text("H") * normalize_text("H*X")
