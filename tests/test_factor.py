import itertools
import random
from fractions import Fraction as F
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from weylalg import (
    DomainError,
    Poly,
    RatFunc,
    factor,
    factor_poly,
    factor_ratfunc,
    is_irreducible,
    twisted_product,
)
from weylalg.factor import (
    _exact_quotient,
    _factor_tree,
    _gf_ddf,
    _gf_edf,
    _gf_gcd,
    _gf_gcdex,
    _gf_monic,
    _gf_normal,
    _good_prime,
    _ladder,
    _lift_tree,
    _poly_key,
    _trunc,
)
from weylalg.polynomials import (
    _P,
    _add,
    _coprime,
    _derivative,
    _mul,
    _pseudo_divmod,
    _strip,
    _sub,
    clear_denominators,
    poly_gcd,
    rising_product,
)

H = Poly.gen()

# deg <= 3 polynomials whose irreducibility is certified below by the
# rational-root criterion (deg 2, 3) independently of the factor engine
KNOWN_IRREDUCIBLE = [
    H,
    H - 1,
    H + 1,
    H - 3,
    H + F(1, 2),
    H**2 + 1,
    H**2 - 2,
    H**2 + H + 1,
    H**2 - H + 3,
    H**3 - 2,
    H**3 + 2 * H + 2,
    H**3 - H + 1,
]


PRODUCT_OF_ODD_PRIMES_BELOW_2000 = prod(
    p for p in range(3, 2000, 2) if all(p % k for k in range(3, isqrt(p) + 1, 2))
)


def has_rational_root(f: Poly) -> bool:
    """Rational root test on an exact integer model of f."""
    _, dense = clear_denominators(f)
    lead, const = dense[-1], dense[0]
    if const == 0:
        return True
    def divisors(n):
        n = abs(n)
        return [d for d in range(1, n + 1) if n % d == 0]
    for p in divisors(const):
        for q in divisors(lead):
            if gcd(p, q) != 1:
                continue
            for sign in (1, -1):
                if f.evaluate(F(sign * p, q)) == 0:
                    return True
    return False


def independent_irreducible(f: Poly) -> bool:
    """Irreducibility for deg <= 3 via rational roots, no factor engine."""
    if f.degree == 1:
        return True
    if f.degree in (2, 3):
        return not has_rational_root(f)
    raise ValueError("only degrees 1..3 are decidable by the root test")


def assert_matches_sympy(f: Poly):
    """factor_poly(f) has sympy's irreducible factors and multiplies back to f."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    _, dense = clear_denominators(f)
    theirs = sympy.factor_list(sympy.Poly(dense[::-1], x))
    their_map = {}
    for base, exp in theirs[1]:
        coeffs = [F(str(c)) for c in sympy.Poly(base, x).all_coeffs()[::-1]]
        monic = Poly(enumerate(coeffs)).monic()
        their_map[monic] = their_map.get(monic, 0) + exp
    mine = factor_poly(f)
    assert mine.exponent_map() == their_map
    assert mine.expand() == f


def test_known_list_is_irreducible_by_roots():
    for f in KNOWN_IRREDUCIBLE:
        if f.degree >= 2:
            assert independent_irreducible(f)


class TestExamples:
    def test_difference_of_squares(self):
        result = factor_poly(H**2 - 1)
        assert result.unit == 1
        assert result.exponent_map() == {H - 1: 1, H + 1: 1}

    def test_irreducible_quadratic(self):
        result = factor_poly(H**2 + 1)
        assert result.unit == 1
        assert result.exponent_map() == {H**2 + 1: 1}

    def test_shifted_copies_share_factors(self):
        product = twisted_product(H * (H - 1), 3, 1, "plus")
        assert product == H * (H - 1)**2 * (H - 2)**2 * (H - 3)
        assert factor_poly(product).exponent_map() == {H: 1, H - 1: 2, H - 2: 2, H - 3: 1}

    def test_constant(self):
        result = factor_poly(Poly.constant(6))
        assert result.unit == 6
        assert result.factors == ()
        assert (str(result), result.to_json()) == ("6", {"unit": "6/1", "factors": []})

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            factor_poly(Poly.zero())
        with pytest.raises(DomainError):
            factor_ratfunc(RatFunc(Poly.zero()))


class TestOracle:
    def test_random_products_refactor_exactly(self):
        rng = random.Random(21)
        for _ in range(60):
            expected = {}
            product = Poly.constant(rng.choice([1, -1, 2, F(3, 2), -5]))
            for _ in range(rng.randint(1, 4)):
                base = rng.choice(KNOWN_IRREDUCIBLE)
                exp = rng.randint(1, 3)
                expected[base] = expected.get(base, 0) + exp
                product = product * base**exp
            result = factor_poly(product)
            assert result.exponent_map() == expected
            assert result.expand() == product

    def test_returned_bases_are_irreducible(self):
        rng = random.Random(22)
        for _ in range(40):
            product = Poly.one()
            for _ in range(rng.randint(1, 3)):
                product = product * rng.choice(KNOWN_IRREDUCIBLE)
            for base, _ in factor_poly(product).factors:
                assert base.is_monic()
                assert independent_irreducible(base)

    def test_cross_check_against_sympy(self):
        pytest.importorskip("sympy")
        rng = random.Random(23)
        inputs = [
            Poly({e: F(rng.randint(-9, 9)) for e in range(rng.randint(1, 7))}.items())
            for _ in range(25)
        ]
        # products of 2-5 integer factors up to total degree 24, the range of
        # centralizer inputs, where modular factors of equal degree are common
        for _ in range(40):
            count = rng.randint(2, 5)
            f = Poly.one()
            for _ in range(count):
                degree = rng.randint(1, 24 // count)
                coeffs = {e: F(rng.randint(-9, 9)) for e in range(degree)}
                coeffs[degree] = F(rng.choice([1, 1, -1, 2, 3]))
                f = f * Poly(coeffs.items())
            inputs.append(f)
        # shifted copies that share factors, so the kernel f / gcd(f, f')
        # and the multiplicities both matter
        for _ in range(30):
            beta = Poly.constant(rng.choice([1, -1, F(2, 3)]))
            for _ in range(rng.randint(1, 3)):
                beta = beta * rng.choice(KNOWN_IRREDUCIBLE + [H**2 - F(1, 3) * H + F(2, 5)])
            inputs.append(twisted_product(beta, rng.randint(2, 4), rng.randint(1, 2), rng.choice(["plus", "minus"])))
        # powers up to 4 of rational-coefficient bases, alone and together
        bases = [H + F(1, 2), H**2 - F(2, 3), H**2 + F(1, 3) * H + F(5, 7), F(3, 4) * H**3 - F(1, 6) * H + 2]
        inputs += [b**e for b in bases for e in range(1, 5)]
        inputs += [
            prod((b**e for b, e in zip(bases, exps)), start=Poly.constant(F(-7, 2)))
            for exps in itertools.product(range(3), repeat=4)
        ]
        for f in inputs:
            if not f.is_zero() and f.degree >= 1:
                assert_matches_sympy(f)


def test_poly_key_is_the_key_of_the_reduced_terms():
    rng = random.Random(31)
    for _ in range(200):
        coeffs = {e: F(rng.randint(-20, 20), rng.randint(1, 12)) for e in range(rng.randint(0, 6))}
        f = Poly(coeffs.items())
        assert _poly_key(f) == (f.degree, tuple((e, c.numerator, c.denominator) for e, c in f.terms))


def split_mod_p(f, p, rng):
    """The irreducible factors of a monic squarefree f in F_p[x], sorted,
    from _gf_ddf then _gf_edf."""
    return sorted(u for g, d in _gf_ddf(f, p) for u in _gf_edf(g, d, p, rng))


def sympy_split_mod_p(f, p):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf

    return sorted(u[::-1] for u in gf_factor_sqf(f[::-1], p, ZZ)[1])  # sympy: descending


def first_odd_prime_from(n):
    return next(q for q in itertools.count(max(n, 3)) if all(q % k for k in range(2, q)))


def test_finite_field_splitting_against_sympy():
    """_gf_ddf then _gf_edf give sympy's irreducible factors in F_p[x]."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_sqf_p

    rng = random.Random(24)
    checked = 0
    while checked < 200:
        p = rng.choice([3, 5, 7, 11, 13])
        f = [rng.randrange(p) for _ in range(rng.randint(1, 12))] + [1]  # monic, ascending
        if not gf_sqf_p(f[::-1], p, ZZ):
            continue
        assert split_mod_p(f, p, rng) == sympy_split_mod_p(f, p), (f, p)
        checked += 1


def test_finite_field_splitting_many_roots_mod_small_primes():
    # most of the residues are roots, next to a random cofactor
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_sqf_p

    rng = random.Random(28)
    checked = 0
    while checked < 150:
        p = rng.choice([3, 5, 7])
        f = [1]
        for a in rng.sample(range(p), rng.randint(2, p)):
            f = _gf_normal(_mul(f, [-a, 1]), p)
        f = _gf_normal(_mul(f, [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [1]), p)
        if not gf_sqf_p(f[::-1], p, ZZ):
            continue
        mine = split_mod_p(f, p, rng)
        assert mine == sympy_split_mod_p(f, p), (f, p)
        assert sum(len(u) == 2 for u in mine) >= 2
        checked += 1


def test_finite_field_splitting_rising_products():
    # H (H+1) ... (H+n-1) mod the first odd prime p >= n: the linear part
    # is all of it, found by evaluation at every residue, with no rng
    pytest.importorskip("sympy")
    for n in range(2, 91):
        p = first_odd_prime_from(n)
        f = _gf_monic(_gf_normal(clear_denominators(rising_product(n))[1], p), p)
        ((g, d),) = _gf_ddf(f, p)
        assert d == 1 and g == f
        linear = sorted(_gf_edf(g, 1, p, None))
        assert linear == sorted([a, 1] for a in range(n)) == sympy_split_mod_p(f, p)


def test_finite_field_splitting_primorial_leading_coefficient():
    # every odd prime below 2000 divides the leading coefficient, so the
    # linear factors are found by evaluation at more than 2000 residues
    pytest.importorskip("sympy")
    f = (PRODUCT_OF_ODD_PRIMES_BELOW_2000 * H + 1) * (H + 1) * (H - 2) * (H + 5) * (H**2 + 3)
    dense = clear_denominators(f)[1]
    p = _good_prime(dense)
    assert p > 2000
    fp = _gf_monic(_gf_normal(dense, p), p)
    mine = split_mod_p(fp, p, random.Random(29))
    assert mine == sympy_split_mod_p(fp, p)
    assert sum(len(u) == 2 for u in mine) >= 4
    assert_matches_sympy(f)


def test_finite_field_gcds_of_zero():
    # s*f + t*g = h holds with h = 0, the gcd of two zero polynomials
    assert _gf_gcd([], [0, 5], 5) == []
    assert _gf_gcdex([], [5], 5) == ([1], [], [])


class TestStructure:
    def test_multiplicities(self):
        f = (H - 1) ** 3 * (H**2 + 1) ** 2 * 7
        result = factor_poly(f)
        assert result.unit == 7
        assert result.exponent_map() == {H - 1: 3, H**2 + 1: 2}
        assert str(result) == "7 * (H - 1)^3 * (H^2 + 1)^2"
        assert result.to_json() == {
            "unit": "7/1",
            "factors": [[[[0, "-1/1"], [1, "1/1"]], 3], [[[0, "1/1"], [2, "1/1"]], 2]],
        }

    def test_rational_coefficients(self):
        f = (H + F(1, 2)) * (H - F(2, 3)) * 6
        result = factor_poly(f)
        assert result.expand() == f
        assert all(b.is_monic() for b, _ in result.factors)

    def test_high_degree_irreducible(self):
        # x^8 + 1 is the 16th cyclotomic polynomial
        f = H**8 + 1
        result = factor_poly(f)
        assert result.exponent_map() == {f: 1}

    def test_ratfunc_negative_exponents(self):
        h = RatFunc(H * (H - 1) ** 2, (H**2 + 1) * (H + 2))
        result = factor_ratfunc(h)
        assert result.exponent_map() == {H: 1, H - 1: 2, H**2 + 1: -1, H + 2: -1}
        assert result.expand() == h

    def test_ratfunc_coprime_quotients(self):
        # a RatFunc's numerator and denominator are coprime, so each base
        # comes from exactly one of them, and the denominator's are negative
        rng = random.Random(32)
        for _ in range(30):
            bases = rng.sample(KNOWN_IRREDUCIBLE, rng.randint(1, 6))
            cut = rng.randint(0, len(bases))
            top = {base: rng.randint(1, 3) for base in bases[:cut]}
            bottom = {base: rng.randint(1, 3) for base in bases[cut:]}
            num = prod((base**e for base, e in top.items()), start=Poly.constant(rng.randint(1, 9)))
            den = prod((base**e for base, e in bottom.items()), start=Poly.constant(-rng.randint(1, 9)))
            h = RatFunc(num, den)
            result = factor_ratfunc(h)
            assert result.expand() == h
            seen = [base for base, _ in result.factors]
            assert len(set(seen)) == len(seen)
            assert {base: -e for base, e in result.factors if e < 0} == bottom

    def test_is_irreducible_helper(self):
        assert is_irreducible(H**2 + 1)
        assert not is_irreducible(H**2 - 1)
        assert not is_irreducible((H + 1) ** 2)
        assert not is_irreducible(Poly.constant(5))
        assert not is_irreducible(Poly.zero())
        assert is_irreducible(2 * H + 1)

    def test_every_prime_below_2000_divides_the_lead(self):
        # H^2 + 1/N clears to N H^2 + 1, so the first good prime is 2003
        f = H**2 + F(1, PRODUCT_OF_ODD_PRIMES_BELOW_2000)
        assert factor_poly(f).exponent_map() == {f: 1}
        assert is_irreducible(f)


class TestSquarefreeParts:
    def test_repeated_factors_go_through_the_kernel(self):
        rng = random.Random(26)
        for _ in range(40):
            f = Poly.constant(rng.choice([1, -2, F(3, 4)]))
            for _ in range(rng.randint(1, 3)):
                degree = rng.randint(1, 3)
                coeffs = {e: F(rng.randint(-9, 9)) for e in range(degree)}
                coeffs[degree] = F(rng.choice([1, 2, 3]))
                f = f * Poly(coeffs.items()) ** rng.randint(1, 3)
            f = f * (H + rng.randint(-9, 9)) ** 2  # so f and f' share a factor
            assert not poly_gcd(f, f.derivative()).is_constant()
            assert_matches_sympy(f)
            assert max(e for _, e in factor_poly(f).factors) >= 2

    def test_leading_coefficient_divisible_by_the_prime(self):
        # the numerators' leading coefficients are multiples of 2^61 - 1, so
        # coprimality mod that prime shows nothing and the exact path runs
        for f in (H**2 + H * F(1, _P), H * (H + F(1, _P)) ** 2, (H**2 + 3) * (_P * H + 1)):
            assert not _coprime(f._c, f.derivative()._c)
            assert_matches_sympy(f)


def reference_prime(f):
    """The first odd prime not dividing lc(f) that leaves f squarefree,
    found by the gcd of f and f' mod p alone."""
    for p in itertools.count(3, 2):
        if f[-1] % p and all(p % k for k in range(3, isqrt(p) + 1, 2)):
            fp = _gf_normal(f, p)
            if len(_gf_gcd(fp, _derivative(fp), p)) == 1:
                return p


class TestPrimeSearch:
    def test_a_prime_that_leaves_a_square_is_caught(self, monkeypatch):
        # (H - 1)(H - 4) is (H - 1)^2 mod 3, so its modular factors share a root
        monkeypatch.setattr(factor, "_good_prime", lambda f: 3)
        with pytest.raises(RuntimeError, match="modular factors are not coprime"):
            factor_poly((H - 1) * (H - 4))

    def test_rising_products(self):
        # H (H+1) ... (H+n-1) has the double root 0 mod every prime below n,
        # and n distinct roots mod every larger prime
        for n in range(2, 90):
            f = clear_denominators(rising_product(n))[1]
            assert _good_prime(f) == reference_prime(f) == first_odd_prime_from(n)

    def test_random_squarefree_polynomials(self):
        rng = random.Random(27)
        checked = 0
        while checked < 150:
            if rng.random() < 0.5:  # distinct integer roots collide mod small primes
                roots = rng.sample(range(-40, 41), rng.randint(2, 20))
                f = prod((H - r for r in roots), start=Poly.constant(rng.randint(1, 30)))
            else:
                degree = rng.randint(2, 20)
                coeffs = {e: F(rng.randint(-20, 20)) for e in range(degree)}
                coeffs[degree] = F(rng.randint(1, 30))
                f = Poly(coeffs.items())
            if not poly_gcd(f, f.derivative()).is_constant():
                continue
            dense = clear_denominators(f)[1]
            assert _good_prime(dense) == reference_prime(dense)
            checked += 1


def zassenhaus_trials(monkeypatch, f: Poly):
    """Factor the integer model of f with _zassenhaus and record each trial
    division as (modulus, cofactor, candidate, hit).

    The modulus is p**e of the rung the candidate was taken at; the
    candidates of recombination are taken at the top rung, p**l.
    """
    modulus = []
    trials = []
    make_tree, lift, divide = factor._factor_tree, factor._lift_tree, factor._exact_quotient

    def spy_tree(p, modular, *bounds):
        modulus.append(p)
        return make_tree(p, modular, *bounds)

    def spy_lift(tree, target, M, last, lifted):
        modulus.append(M)
        lift(tree, target, M, last, lifted)

    def spy_divide(current, cand):
        quotient = divide(current, cand)
        trials.append((modulus[-1], current, cand, quotient is not None))
        return quotient

    monkeypatch.setattr(factor, "_factor_tree", spy_tree)
    monkeypatch.setattr(factor, "_lift_tree", spy_lift)
    monkeypatch.setattr(factor, "_exact_quotient", spy_divide)
    factor._zassenhaus(clear_denominators(f)[1])
    monkeypatch.undo()
    return trials


class TestEarlyDetection:
    def test_large_factor_waits_for_the_top_rung(self, monkeypatch):
        # H^4 - 10 H^2 + 1 splits mod every prime, so two or more of its
        # modular factors stay open up to p^l, and the large linear factor
        # is found only there, by recombination
        big = 10**40 + 7
        f = (H - 1) * (H + 2) * (H + big) * (H**4 - 10 * H**2 + 1)
        assert_matches_sympy(f)
        trials = zassenhaus_trials(monkeypatch, f)
        top = max(m for m, *_ in trials)
        hits = {tuple(cand): m for m, _, cand, hit in trials if hit}
        assert hits.keys() == {(-1, 1), (2, 1), (big, 1)}
        assert hits[(-1, 1)] < top and hits[(2, 1)] < top
        assert hits[(big, 1)] == top
        assert 2 * big > max(m for m, *_ in trials if m < top)  # the rung below reduces it

    def test_zero_constant_terms(self, monkeypatch):
        for f in (H, H * (H + 1), H**2 * (H + 1), H * (H + 1) * (H**2 + 3) * (H - 5)):
            assert_matches_sympy(f)
        # H itself divides a cofactor with zero constant term
        trials = zassenhaus_trials(monkeypatch, H * (H + 1) * (H**2 + 3) * (H - 5))
        assert any(hit and cand == [0, 1] and current[0] == 0 for _, current, cand, hit in trials)
        # 5^5 vanishes mod 5^2, so a candidate with zero constant term meets
        # a cofactor whose constant term is not zero
        f = (H + 5**5) * (H - 1) * (H + 2) * (H**2 + 7)
        assert_matches_sympy(f)
        trials = zassenhaus_trials(monkeypatch, f)
        assert any(
            not hit and cand[0] == 0 and current[0] != 0 for _, current, cand, hit in trials
        )

    def test_quartic_splitting_mod_every_prime_comes_back_whole(self, monkeypatch):
        quartic = H**4 - 10 * H**2 + 1
        f = quartic * (H - 1) * (H + 2)
        assert_matches_sympy(f)
        assert factor_poly(f).exponent_map() == {quartic: 1, H - 1: 1, H + 2: 1}
        trials = zassenhaus_trials(monkeypatch, f)
        top = max(m for m, *_ in trials)
        hits = [(m, cand) for m, _, cand, hit in trials if hit]
        assert sorted(cand for _, cand in hits) == [[-1, 1], [2, 1]]
        assert all(m < top for m, _ in hits)
        # the quartic's modular factors reach recombination and no subset
        # of them divides it
        assert any(m == top and not hit for m, _, _, hit in trials)

    def test_leading_coefficient_above_half_the_modulus(self, monkeypatch):
        for f in (
            (10**6 * H + 1) * (H + 1) * (H - 2) * (H**2 + 3),
            (1000 * H + 1) * (999 * H - 1) * (H + 1) * (H - 2),
        ):
            assert_matches_sympy(f)
            trials = zassenhaus_trials(monkeypatch, f)
            # lc(cofactor) * u mod p^e loses its leading coefficient at such
            # a rung, yet a factor can still be found there
            assert any(hit and 2 * current[-1] >= m for m, current, _, hit in trials)

    @pytest.mark.parametrize("n", [8, 40])
    def test_lifting_stops_once_fewer_than_two_factors_are_open(self, monkeypatch, n):
        # H (H+1) ... (H+n-1) splits into linear factors mod p, so a hit of
        # degree k closes k of them; most close at p, the rest one rung up
        f = clear_denominators(rising_product(n))[1]
        state = {"open": n}
        lifts = []
        lift, divide = factor._lift_tree, factor._exact_quotient

        def spy_lift(tree, target, M, last, lifted):
            lifts.append((M, last, state["open"]))
            lift(tree, target, M, last, lifted)

        def spy_divide(current, cand):
            quotient = divide(current, cand)
            if quotient is not None:
                state["open"] -= len(cand) - 1
            return quotient

        monkeypatch.setattr(factor, "_lift_tree", spy_lift)
        monkeypatch.setattr(factor, "_exact_quotient", spy_divide)
        found = factor._zassenhaus(f)
        monkeypatch.undo()
        assert sorted(found) == sorted([a, 1] for a in range(n))
        assert state["open"] == 1
        assert lifts and all(k >= 2 for _, _, k in lifts)
        assert not any(last for _, last, _ in lifts)  # the top rung is never lifted to


int_lists = st.lists(st.integers(-50, 50), max_size=6)
nonzero = st.integers(-30, 30).filter(bool)
# primitive integer polynomials of degree >= 1 with lc in 1..30
primitive_polys = st.builds(
    lambda low, lc: low + [lc], int_lists.filter(bool), st.integers(1, 30)
).filter(lambda g: gcd(*g) == 1)


class TestExactQuotient:
    """One pseudo-division with no remainder decides g | f for a primitive g."""

    @given(primitive_polys, int_lists, nonzero)
    @settings(max_examples=150, deadline=None)
    def test_multiples_divide(self, g, q, lc):
        # the division of a multiple never scales, so no remainder decides
        q = q + [lc]
        assert _pseudo_divmod(_mul(q, g), g) == (q, [], 1)
        assert _exact_quotient(_mul(q, g), g) == q

    @given(primitive_polys, int_lists, nonzero, st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_remainder_rules_out_division(self, g, q, lc, data):
        low = st.lists(st.integers(-50, 50), min_size=len(g) - 1, max_size=len(g) - 1)
        r = _strip(data.draw(low.filter(any)))
        assert _exact_quotient(_add(_mul(q + [lc], g), r), g) is None

    @given(primitive_polys, int_lists, st.integers(-900, 900))
    @settings(max_examples=150, deadline=None)
    def test_leading_coefficient_rules_out_division(self, g, low, lc):
        assume(lc % g[-1])
        assert _exact_quotient(low + [lc], g) is None


def top_down_factor_tree(p, modular, lo, hi):
    """The factor tree with each node's g and h multiplied out from its leaves."""
    if hi - lo == 1:
        return lo
    mid = (lo + hi) // 2
    g = h = [1]
    for u in modular[lo:mid]:
        g = _gf_normal(_mul(g, u), p)
    for u in modular[mid:hi]:
        h = _gf_normal(_mul(h, u), p)
    s, t, _ = _gf_gcdex(g, h, p)
    return [g, h, s, t,
            top_down_factor_tree(p, modular, lo, mid), top_down_factor_tree(p, modular, mid, hi)]


def test_factor_tree_matches_products_of_its_leaves():
    # the tree is built bottom up; each node equals the one multiplied out
    # from its range of leaves
    for n in (2, 3, 5, 8, 13, 40):
        p = first_odd_prime_from(n)
        f = _gf_monic(_gf_normal(clear_denominators(rising_product(n))[1], p), p)
        modular = split_mod_p(f, p, None)
        assert _factor_tree(p, modular) == top_down_factor_tree(p, modular, 0, n)
    rng = random.Random(30)
    checked = 0
    while checked < 30:
        p = rng.choice([5, 7, 11, 13])
        f = [rng.randrange(p) for _ in range(rng.randint(3, 14))] + [1]
        if len(_gf_gcd(f, _derivative(f), p)) != 1:
            continue
        modular = split_mod_p(f, p, rng)
        if len(modular) > 1:
            assert _factor_tree(p, modular) == top_down_factor_tree(p, modular, 0, len(modular))
            checked += 1


def test_factor_tree_invariants_on_each_rung():
    """After each rung the leaves are monic and f = lc * product(leaves)
    (mod p^e); below the top rung each node keeps s*g + t*h = 1."""
    rng = random.Random(25)
    checked = 0
    while checked < 30:
        f = [1]
        for _ in range(rng.randint(2, 5)):
            degree = rng.randint(1, 4)
            f = _mul(f, [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([1, 2, 3, 5])])
        p = rng.choice([3, 5, 7, 11, 13])
        fp = _gf_normal(f, p)
        if f[-1] % p == 0 or len(_gf_gcd(fp, _derivative(fp), p)) != 1:
            continue
        modular = [u for g, d in _gf_ddf(_gf_monic(fp, p), p) for u in _gf_edf(g, d, p, rng)]
        if len(modular) < 2:
            continue
        tree = _factor_tree(p, modular)
        lifted = list(modular)
        l = rng.randint(2, 12)
        rungs = _ladder(l)
        assert rungs[0] == 1 and rungs[-1] == l
        assert all(a < b <= 2 * a for a, b in zip(rungs, rungs[1:]))
        for e in rungs:
            pe = p**e
            if e > 1:
                target = _gf_normal(_mul(f, [pow(f[-1], -1, pe)]), pe)
                _lift_tree(tree, target, pe, e == l, lifted)
            assert [len(u) for u in lifted] == [len(u) for u in modular]
            assert all(0 <= a < pe for u in lifted for a in u)
            assert all(u[-1] == 1 for u in lifted)
            product = [f[-1]]
            for u in lifted:
                product = _mul(product, u)
            assert _trunc(_sub(f, product), pe) == []
            if e < l:
                nodes = [tree]
                while nodes:
                    g, h, s, t, left, right = nodes.pop()
                    assert _trunc(_sub(_add(_mul(s, g), _mul(t, h)), [1]), pe) == []
                    nodes += [child for child in (left, right) if isinstance(child, list)]
        checked += 1
