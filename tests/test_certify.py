import random
from fractions import Fraction as F
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from sweep_oracle import bareiss_solve, solve_exact as oracle_solve_exact, system_rows
from weylalg import (
    AutoWord,
    DomainError,
    OutOfScopeError,
    PhiX,
    Poly,
    Torus,
    WeylElement,
    Xi,
    apply_auto,
    certify_pair,
    commutator,
    delta_balance_check,
    impossibility_sweep,
    mass,
    normalize_text,
    random_tame,
    structure_constant,
)
import weylalg.certify as certify_module
import weylalg.tame as tame_module
from weylalg.certify import _cell_pair_system, _top_row
from weylalg.polynomials import delta_op
from weylalg.weyl import ONE, ZERO, X, Y

Hp = Poly.gen()


def assert_certifies(P, Q):
    w = certify_pair(P, Q)
    assert apply_auto(w, Y) == P
    assert apply_auto(w, X) == Q
    return w


class TestExamples:
    def test_identity_pair(self):
        assert certify_pair(Y, X).gens == ()

    def test_triangular_pair(self):
        P = normalize_text("Y")
        Q = normalize_text("X + 2*Y^3")
        assert commutator(P, Q) == ONE
        assert_certifies(P, Q)

    def test_corollary_shape(self):
        P = normalize_text("2*Y + X^3 + 1")
        Q = normalize_text("1/2*X")
        w = assert_certifies(P, Q)
        kinds = {type(g).__name__ for g in w.gens}
        assert {"PhiX", "Torus", "Translate"} <= kinds

    def test_wrong_word_fails_the_final_check(self, monkeypatch):
        monkeypatch.setattr(certify_module, "_reduce", lambda P, Q: AutoWord((Xi(),)))
        with pytest.raises(RuntimeError, match="final application check"):
            certify_pair(Y, X)
        with pytest.raises(DomainError, match="commutator is -1, not 1"):
            certify_pair(X, Y)

    def test_reduction_defect_of_a_commuting_pair_is_raised(self, monkeypatch):
        def defect(P, Q):
            raise certify_module._internal("patched reduction")

        monkeypatch.setattr(certify_module, "_reduce", defect)
        with pytest.raises(RuntimeError, match="patched reduction"):
            certify_pair(Y, X)

    def test_certificate_is_composed_once(self, monkeypatch):
        # each word is checked by certify_pair alone, and that check is the
        # proof of [P, Q] = 1: no commutator is computed
        calls, images = [], tame_module.auto_images
        commutators = []

        def counted(word):
            calls.append(word)
            return images(word)

        def counted_commutator(a, b):
            commutators.append((a, b))
            return commutator(a, b)

        monkeypatch.setattr(certify_module, "auto_images", counted)
        monkeypatch.setattr(tame_module, "auto_images", counted)
        monkeypatch.setattr(certify_module, "commutator", counted_commutator)
        flipped = AutoWord((PhiX(2, F(3)), Xi()))
        pairs = {
            "affine": (Y + 1, X),
            "mass-1": (normalize_text("2*Y + X^3 + 1"), normalize_text("1/2*X")),
            "xi-flipped": (apply_auto(flipped, Y), apply_auto(flipped, X)),
        }
        for kind, (P, Q) in pairs.items():
            calls.clear()
            word = certify_pair(P, Q)
            assert calls == [word], kind
            assert commutators == [], kind

    def test_wrong_commutator(self):
        # each refusal names the commutator, whichever step failed first
        # (the step's own error is its context)
        refusals = [
            (X, Y, "ad - bc = 1", "commutator is -1, not 1"),
            (normalize_text("Y + X^2"), normalize_text("X + Y^2"), "no mass-1 side", r"commutator is -4\*H \+ 3, not 1"),
            (normalize_text("H"), X, "complement is not a polynomial in X", r"commutator is X\^1, not 1"),
            (Y, 5, None, "commutator is 0, not 1"),
            (5, 5, None, "commutator is 0, not 1"),
            (Hp, Hp, None, "commutator is 0, not 1"),
            (Y, Y, "ad - bc = 1", "commutator is 0, not 1"),
        ]
        for P, Q, failure, message in refusals:
            with pytest.raises(DomainError, match=message) as info:
                certify_pair(P, Q)
            context = info.value.__context__
            assert (context is None) if failure is None else (failure in str(context)), (P, Q)

    def test_out_of_scope_masses(self):
        from weylalg import AutoWord, PhiY as PhiYGen

        tau = AutoWord((PhiX(2, F(1)), PhiYGen(2, F(1))))
        P, Q = apply_auto(tau, Y), apply_auto(tau, X)
        assert commutator(P, Q) == ONE
        mp, mq = mass(P), mass(Q)
        assert not ((mp <= 2 and mq <= 2) or mp == 1 or mq == 1)
        with pytest.raises(OutOfScopeError):
            certify_pair(P, Q)
        # a pair out of scope that does not commute is refused for that
        P, Q = normalize_text("Y + X^2 + 1"), normalize_text("X + Y^2")
        assert (mass(P), mass(Q)) == (3, 2)
        with pytest.raises(DomainError, match=r"commutator is -4\*H \+ 3, not 1"):
            certify_pair(P, Q)


class TestRoundTrip:
    def test_random_words(self):
        certified = 0
        seed = 0
        while certified < 150:
            seed += 1
            tau = random_tame(seed, word_len=5, max_n=3, coeff_height=5)
            P, Q = apply_auto(tau, Y), apply_auto(tau, X)
            mp, mq = mass(P), mass(Q)
            if not ((mp <= 2 and mq <= 2) or mp == 1 or mq == 1):
                continue
            assert_certifies(P, Q)
            certified += 1

    def test_corollary_coverage_large_mass(self):
        # m(Q) = 1 with arbitrary m(P): P = mu^-1 Y + C(X)
        rng = random.Random(81)
        for _ in range(40):
            mu = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 5]))
            c_terms = {k: F(rng.randint(-4, 4)) for k in range(0, rng.randint(2, 6))}
            P = WeylElement({-1: 1 / mu}) + WeylElement({k: c for k, c in c_terms.items() if c})
            Q = WeylElement({1: mu})
            assert commutator(P, Q) == ONE
            assert_certifies(P, Q)

    def test_mass_one_on_the_left(self):
        P = WeylElement({-1: F(3)})
        Q = WeylElement({1: F(1, 3)}) + WeylElement({-2: F(5)})
        assert commutator(P, Q) == ONE
        assert_certifies(P, Q)

    def test_negative_side_pairs(self):
        # xi-image of a triangular pair lives on the negative side
        from weylalg import AutoWord, Xi

        tau = AutoWord((PhiX(2, F(3)), Xi()))
        P, Q = apply_auto(tau, Y), apply_auto(tau, X)
        assert_certifies(P, Q)

    def test_affine_mass_two_pair(self):
        # masses (2, 2) on the supports {-1, 1} with constant coefficients:
        # an affine pair, the only kind on the supports {-k, k} with
        # [P, Q] = 1, so the affine rule certifies it
        from weylalg import AutoWord, PhiY

        tau = AutoWord((PhiX(1, F(2)), PhiY(1, F(1, 2))))
        P, Q = apply_auto(tau, Y), apply_auto(tau, X)
        assert mass(P) == 2 and mass(Q) == 2
        assert P.support() == Q.support() == {-1, 1}
        assert_certifies(P, Q)

    def test_constant_riders(self):
        # constants at degree zero are peeled into translations
        P = normalize_text("Y - 3/2")
        Q = normalize_text("Y^3 + X")
        assert commutator(P, Q) == ONE
        assert_certifies(P, Q)


REDUCE_DEFECTS = [
    ("X^2 + Y^2", "X^2 - Y^2", "no mass-1 side"),
    ("H*X + Y", "X + H*Y", "no mass-1 side"),
    # pairs that do not commute, each with a mass-1 side of the wrong shape
    ("X^2 + Y", "2*X^2", "not a scalar multiple of X"),
    ("Y", "H", "not a scalar multiple of X"),
    ("Y^2 + X^2", "2*X", "complement is not a polynomial in X"),
]


class TestMassTwoPairs:
    """The degree lemma behind _reduce's last line: a pair of masses (2, 2)
    on the supports {-k, k} with [P, Q] = 1 is affine."""

    def test_commutator_is_a_shift_difference_of_known_degree(self):
        # [f2 v_k, f1 v_-k] = (1 - sigma^-k)(f2 sigma^k(f1) (k, -k)), one
        # degree below deg f1 + deg f2 + k, so it is constant only for
        # k = 1 and constant f1, f2
        from helpers import random_poly

        rng = random.Random(16)
        for _ in range(200):
            f1 = random_poly(rng, 3, 6, nonzero=True)
            f2 = random_poly(rng, 3, 6, nonzero=True)
            k = rng.randint(1, 5)
            inner = f2 * f1.sigma(k) * structure_constant(k, -k)
            comm = commutator(WeylElement({k: f2}), WeylElement({-k: f1}))
            assert comm == WeylElement({0: delta_op(inner, -k)}), (f1, f2, k)
            assert delta_op(inner, -k).degree == f1.degree + f2.degree + k - 1

    @pytest.mark.parametrize("P, Q, message", REDUCE_DEFECTS, ids=[f"{P}-{Q}" for P, Q, _ in REDUCE_DEFECTS])
    def test_no_mass_one_side_is_an_internal_defect(self, P, Q, message):
        with pytest.raises(RuntimeError, match=f"certifier internal defect: .*{message}"):
            certify_module._reduce(normalize_text(P), normalize_text(Q))


class TestDeltaBalance:
    def test_zero(self):
        assert delta_balance_check(Poly.zero(), Poly.zero(), 1, 1).is_zero()
        assert delta_balance_check(3, F(5, 2), 1, 2).is_zero()

    def test_linear_sign_exact(self):
        # (1 - sigma^-1)(H) = H - (H + 1) = -1, recorded exactly
        assert delta_balance_check(Hp, Poly.zero(), 1, 1) == Poly.constant(-1)
        assert delta_balance_check(Hp, 0, 1, 1) == Poly.constant(-1)

    def test_degree_obstruction(self):
        # unequal forced degrees leave a nonconstant value
        a = Hp**3
        b = Hp
        value = delta_balance_check(a, b, 2, 3)
        assert value.degree == 2
        assert value != Poly.one()

    def test_matches_componentwise_deltas(self):
        rng = random.Random(82)
        from helpers import random_poly

        for _ in range(50):
            a = random_poly(rng, 4, 6)
            b = random_poly(rng, 4, 6)
            p = rng.randint(1, 4)
            q = rng.randint(1, 4)
            direct = delta_balance_check(a, b, p, q)
            assert direct == (a - a.sigma(-p)) + (b - b.sigma(-q))

    def test_rejects_bad_exponents(self):
        with pytest.raises(DomainError):
            delta_balance_check(Hp, Hp, 0, 1)


class TestSweep:
    def test_case_ii_inconsistent_for_p_at_least_two(self):
        report = impossibility_sweep("case-ii", {"p": 3, "q": 3, "max_coeff_deg": 3})
        for cell in report.cells:
            if cell.p == cell.q and cell.p >= 2:
                assert cell.status == "empty"

    def test_case_ii_control_family(self):
        report = impossibility_sweep("case-ii", {"p": 1, "q": 1, "max_coeff_deg": 0})
        (cell,) = report.cells
        assert cell.status == "solutions"
        assert cell.witness["relation"] == "alpha*beta = -1/1"
        alpha = F(cell.witness["alpha"])
        beta = F(cell.witness["beta"])
        assert alpha * beta == -1
        assert commutator(WeylElement({1: alpha}), WeylElement({-1: beta})) == ONE

    def test_case_ii_off_diagonal_graded_mismatch(self):
        report = impossibility_sweep("case-ii", {"p": 2, "q": 3, "max_coeff_deg": 1})
        off = [c for c in report.cells if c.p != c.q]
        assert off and all(c.status == "empty" for c in off)

    def test_case_iii_reduces_to_case_ii(self):
        report = impossibility_sweep("case-iii", {"p": 3, "q": 3, "max_coeff_deg": 2})
        assert report.cells
        assert all(c.status == "empty" for c in report.cells)

    def test_case_v_p_less_than_q_empty(self):
        report = impossibility_sweep("case-v", {"p": 3, "q": 4, "max_coeff_deg": 2})
        strict = [c for c in report.cells if c.p < c.q]
        assert strict and all(c.status == "empty" for c in strict)

    def test_case_v_equal_degrees_reduction_applies(self):
        report = impossibility_sweep("case-v", {"p": 3, "q": 3, "max_coeff_deg": 2})
        diagonal = [c for c in report.cells if c.p == c.q]
        assert diagonal and all(c.status == "solutions" for c in diagonal)
        for cell in diagonal:
            a = Poly.from_json(cell.witness["a"])
            b = Poly.from_json(cell.witness["b"])
            assert delta_balance_check(a, b, cell.p, cell.q) == Poly.one()

    def test_bounds_cap(self):
        with pytest.raises(DomainError, match="bound 'p' = 100 exceeds the cap 16"):
            impossibility_sweep("case-ii", {"p": 100, "q": 2, "max_coeff_deg": 2})
        with pytest.raises(DomainError, match="bounds p and q must be at least 1"):
            impossibility_sweep("case-ii", {"p": 0, "q": 2, "max_coeff_deg": 2})
        with pytest.raises(DomainError):
            impossibility_sweep("case-ix", {"p": 2, "q": 2, "max_coeff_deg": 2})

    @pytest.mark.parametrize("key", ["p", "q", "max_coeff_deg"])
    @pytest.mark.parametrize("value", [True, False, 2.0])
    def test_bounds_must_be_integers(self, key, value):
        bounds = {"p": 2, "q": 2, "max_coeff_deg": 2, key: value}
        with pytest.raises(DomainError, match=f"bound '{key}' must be a nonnegative integer"):
            impossibility_sweep("case-ii", bounds)

    def test_bounds_reject_unknown_keys(self):
        bounds = {"p": 2, "q": 2, "max_coeff_deg": 0, "junk": [1, 2]}
        with pytest.raises(DomainError, match="unknown bound 'junk'"):
            impossibility_sweep("case-ii", bounds)
        with pytest.raises(DomainError, match="bounds must include 'max_coeff_deg'"):
            impossibility_sweep("case-ii", {"p": 2, "q": 2})

    def test_sweep_is_deterministic(self):
        bounds = {"p": 2, "q": 2, "max_coeff_deg": 2}
        assert impossibility_sweep("case-ii", bounds) == impossibility_sweep("case-ii", bounds)

    def test_cap_sweep_leaves_no_state(self):
        # each sweep caches its own top rows, so a cap-size sweep that reads
        # the columns of every shift cannot change a later small one
        small = {"p": 4, "q": 4, "max_coeff_deg": 3}
        patterns = ("case-ii", "case-iii", "case-v")
        alone = [impossibility_sweep(pattern, small).to_json() for pattern in patterns]
        impossibility_sweep("case-ii", {"p": 16, "q": 16, "max_coeff_deg": 16})
        assert [impossibility_sweep(pattern, small).to_json() for pattern in patterns] == alone


entries = st.integers(-5, 5)


@st.composite
def integer_systems(draw):
    """Integer systems up to 8 x 10 with entries in -5..5.

    Rows are fresh, zero, or copies or negations of an earlier row, and a
    column may repeat an earlier one, so rank deficiency is common; the rhs
    is either A x0 (consistent) or drawn freely, which a repeated row with a
    different rhs makes inconsistent.
    """
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 10))
    kinds = ("fresh", "zero", "copy", "negate")
    rows = []
    for i in range(m):
        kind = draw(st.sampled_from(kinds if i else kinds[:2]))
        if kind == "fresh":
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
        elif kind == "zero":
            rows.append([0] * n)
        else:
            j = draw(st.integers(0, i - 1))
            rows.append([v if kind == "copy" else -v for v in rows[j]])
    for c in range(1, n):
        if draw(st.integers(0, 3)) == 0:  # about one column in four repeats
            src = draw(st.integers(0, c - 1))
            for row in rows:
                row[c] = row[src]
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        rhs = draw(st.lists(entries, min_size=m, max_size=m))
    return rows, rhs


class TestSolver:
    @settings(max_examples=400, deadline=None)
    @given(integer_systems())
    def test_agrees_with_fraction_oracle(self, system):
        rows, rhs = system
        expected = oracle_solve_exact(rows, rhs)
        solved = bareiss_solve(rows, rhs)
        if expected is None:
            assert solved is None
            return
        den, particular, kernel = solved
        assert type(den) is int and den > 0
        assert all(type(v) is int for vec in [particular, *kernel] for v in vec)
        want_particular, want_kernel = expected
        assert [F(v, den) for v in particular] == want_particular
        assert len(kernel) == len(want_kernel)
        for vec, want in zip(kernel, want_kernel):
            assert [F(v, den) for v in vec] == want

    def test_inconsistent_and_rank_deficient(self):
        assert bareiss_solve([[1, 2], [2, 4]], [1, 3]) is None
        den, particular, kernel = bareiss_solve([[0, 0, 0], [2, 4, 6], [1, 2, 3]], [0, 2, 1])
        assert [F(v, den) for v in particular] == [1, 0, 0]
        assert [[F(v, den) for v in vec] for vec in kernel] == [[-2, 1, 0], [-3, 0, 1]]

    @pytest.mark.parametrize("shift", [s for k in range(1, 17) for s in (k, -k)])
    def test_delta_columns_match_delta_op(self, shift):
        # the column of H^e is H^e - (H - s)^e, which ends in row e - 1 with
        # the entry e*s: the degree lemma behind _top_row.  48 = 16 + 16 + 16
        # is the largest column a sweep under the default cap reads
        for e in range(1, 49):
            column = [-comb(e, j) * (-shift) ** (e - j) for j in range(e)]
            assert delta_op(Hp**e, shift) == Poly(enumerate(column))
            assert column[-1] == e * shift
            assert _top_row(e, shift) == e - 1


def _keeps_tops(blocks, tops):
    """Whether Bareiss on the dense rows finds a solution with every indexed
    unknown nonzero.  Each is a functional on the solutions, and a solution
    avoids where they vanish unless one of them vanishes on all."""
    solved = bareiss_solve(*system_rows(blocks))
    return solved is not None and all(solved[1][top] or any(k[top] for k in solved[2]) for top in tops)


def _solves_rows(blocks, polys):
    """Whether the coefficients of polys, block after block, solve the dense rows."""
    rows, rhs = system_rows(blocks)
    x = [f.coeff(e) for (deg_bound, _), f in zip(blocks, polys) for e in range(deg_bound + 1)]
    return [sum(map(mul, row, x)) for row in rows] == rhs


def _is_case_v_shape(p, q, deg_a, deg_b):
    """Whether the case-v sweep enumerates the cell (p, q, deg_a, deg_b)."""
    return 2 <= p <= q and deg_a >= p - 1 and deg_b >= q - 1 and (
        deg_a < deg_b if p < q else deg_a == deg_b
    )


class TestBlockSolver:
    """The sweep's answers on its block systems against Bareiss on the dense
    rows, on a wider grid than the sweep tests: the top-row verdicts, and
    the closed-form witness of each solvable case-v cell."""

    def test_single_blocks_match_bareiss(self):
        # case-ii/iii blocks (big, -p): a top row at or above 1 empties exactly
        # the blocks whose top coefficient every solution sets to 0
        for big in range(1, 25):
            for p in range(1, 17):
                blocks = [(big, -p)]
                assert (_top_row(big, -p) >= 1) != _keeps_tops(blocks, [big]), blocks

    @pytest.mark.parametrize("p", range(1, 11))
    def test_sweep_blocks_match_bareiss(self, p):
        # case-ii/iii: one block of degree deg_a + deg_b + p
        for big in range(p, p + 25):
            blocks = [(big, -p)]
            assert (_top_row(big, -p) >= 1) != _keeps_tops(blocks, [big]), blocks
        # case-v: two blocks side by side.  An emptied pair keeps no solution
        # with b's top; a cell of the sweep's shape gets Bareiss's verdict, and
        # its witness solves the dense rows
        for q in range(p, 11):
            for deg_a in range(13):
                for deg_b in range(13):
                    blocks = [(deg_a, -p), (deg_b, -q)]
                    tops = [deg_a, deg_a + 1 + deg_b]
                    if deg_a < deg_b and _top_row(deg_b, -q) >= 1:
                        assert not _keeps_tops(blocks, tops[1:]), blocks
                    if not _is_case_v_shape(p, q, deg_a, deg_b):
                        continue
                    cell = _cell_pair_system(_top_row, p, q, deg_a, deg_b, "case-v")
                    solvable = _keeps_tops(blocks, tops)
                    assert cell.status == ("solutions" if solvable else "empty"), cell
                    if solvable:
                        a, b = (Poly.from_json(cell.witness[k]) for k in "ab")
                        assert _solves_rows(blocks, (a, b)), cell

    def test_solutions_satisfy_the_balance(self):
        # every case-v witness up to the cap, checked apart from the sweep's own check
        for p in range(2, 17):
            for d in range(p - 1, p + 16):
                cell = _cell_pair_system(_top_row, p, p, d, d, "case-v")
                a, b = (Poly.from_json(cell.witness[k]) for k in "ab")
                assert delta_balance_check(a, b, p, p) == Poly.one(), cell


class TestPowerRelations:
    def test_exponent_bookkeeping(self):
        # the power decomposition exponents multiply back to the degree
        from weylalg import HomogeneousElement, RatFunc, centralizer_generator, power_decompose, twisted_product

        beta = RatFunc(Hp)
        for n, s0 in ((4, 2), (6, 3), (6, 2)):
            alpha = twisted_product(beta, n // s0, s0, "plus")
            u = HomogeneousElement(n, alpha)
            result = centralizer_generator(u)
            decomp = power_decompose(u, result.v)
            assert decomp.exponent * result.s == n


def _sweep_system(cell):
    """The blocks of a cell's linear system and the indices of the top
    coefficients the cell asks to be nonzero."""
    if cell.pattern == "case-v":
        blocks = [(cell.deg_a, -cell.p), (cell.deg_b, -cell.q)]
        return blocks, [cell.deg_a, cell.deg_a + 1 + cell.deg_b]
    big = cell.deg_a + cell.deg_b + cell.p
    return [(big, -cell.p)], [big]


class TestSweepRowRule:
    """Each verdict, decided by one row of the system, against the closed
    form the lemma gives and against Bareiss on the dense rows."""

    CAP = {"p": 16, "q": 16, "max_coeff_deg": 16}

    @pytest.mark.parametrize("pattern", ["case-ii", "case-iii", "case-v"])
    def test_cap_grid_matches_the_closed_form(self, pattern):
        cells = impossibility_sweep(pattern, self.CAP).cells
        for cell in cells:
            if pattern == "case-v":
                solvable = cell.deg_a == cell.deg_b
            else:
                solvable = cell.p == cell.q and cell.deg_a + cell.deg_b + cell.p < 2
            assert cell.status == ("solutions" if solvable else "empty"), cell
            assert (cell.witness is not None) == solvable, cell
            if pattern == "case-v" and solvable:
                # a = -H/p - H^d, b = H^d, each of its exact degree
                a, b = (Poly.from_json(cell.witness[k]) for k in "ab")
                assert b == Hp**cell.deg_b and a == Hp * F(-1, cell.p) - b, cell
                assert (a.degree, b.degree) == (cell.deg_a, cell.deg_b), cell

    @pytest.mark.parametrize("pattern", ["case-ii", "case-iii", "case-v"])
    def test_subgrid_matches_bareiss(self, pattern):
        cells = impossibility_sweep(pattern, {"p": 6, "q": 6, "max_coeff_deg": 4}).cells
        checked = 0
        for cell in cells:
            if cell.deg_a is None:
                continue  # case-ii with p != q has no linear system
            blocks, tops = _sweep_system(cell)
            solvable = _keeps_tops(blocks, tops)
            assert cell.status == ("solutions" if solvable else "empty"), cell
            if pattern == "case-v" and solvable:
                a, b = (Poly.from_json(cell.witness[k]) for k in "ab")
                assert _solves_rows(blocks, (a, b)), cell
            checked += 1
        assert checked

    def test_unsolvable_case_v_cell_is_an_internal_defect(self, monkeypatch):
        # with every top row at 0, the p < q cells fall outside the closed form
        monkeypatch.setattr(certify_module, "_top_row", lambda e, shift: 0)
        with pytest.raises(RuntimeError, match="certifier internal defect: top row does not decide"):
            impossibility_sweep("case-v", {"p": 2, "q": 3, "max_coeff_deg": 0})

    def test_failed_witness_check_raises(self, monkeypatch):
        monkeypatch.setattr(certify_module, "delta_balance_check", lambda a, b, p, q: Poly.zero())
        with pytest.raises(RuntimeError, match="sweep witness failed independent verification"):
            impossibility_sweep("case-v", {"p": 2, "q": 2, "max_coeff_deg": 0})
        # the case-ii cell at p = 1, deg gamma = 1 checks its scalar witness
        monkeypatch.setattr(certify_module, "commutator", lambda a, b: ZERO)
        with pytest.raises(RuntimeError, match="sweep witness failed independent verification"):
            impossibility_sweep("case-ii", {"p": 1, "q": 1, "max_coeff_deg": 0})

    def test_undecided_row_is_an_internal_defect(self, monkeypatch):
        monkeypatch.setattr(certify_module, "_top_row", lambda e, shift: 0)
        with pytest.raises(RuntimeError, match="certifier internal defect"):
            impossibility_sweep("case-iii", {"p": 2, "q": 2, "max_coeff_deg": 0})
