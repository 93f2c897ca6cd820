"""Reference solvers for the sweep's linear systems.

``solve_exact`` is Bareiss fraction-free forward elimination followed by
back-substitution in ``fractions.Fraction``; it returns the solutions over Q
directly, without a common denominator.  ``bareiss_solve`` is fraction-free
Gauss-Jordan elimination on any integer system, returning the solutions
over one common denominator; ``system_rows`` builds the dense rows of a
sweep block system for it, from columns that ``delta_columns`` gets by one
Taylor shift per column.  The tests check ``bareiss_solve`` against
``solve_exact`` on random systems, and the sweep's verdicts and closed-form
witnesses against ``bareiss_solve`` on the block systems.
"""

from fractions import Fraction
from math import lcm

from weylalg.polynomials import _taylor_shift


def solve_exact(rows, rhs):
    """Solve rows * x = rhs over Q.

    Returns (particular, kernel_basis) or None when inconsistent.  The
    forward elimination is Bareiss fraction-free on integer rows.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = []
    for row, r in zip(rows, rhs):
        entries = [Fraction(v) for v in row] + [Fraction(r)]
        scale = lcm(*(v.denominator for v in entries))
        aug.append([int(v * scale) for v in entries])
    pivots = []
    rank = 0
    prev = 1
    for col in range(n):
        sel = None
        for i in range(rank, m):
            if aug[i][col]:
                sel = i
                break
        if sel is None:
            continue
        aug[rank], aug[sel] = aug[sel], aug[rank]
        for i in range(rank + 1, m):
            lead = aug[i][col]
            row_i = aug[i]
            row_r = aug[rank]
            for j in range(col, n + 1):
                row_i[j] = (row_r[col] * row_i[j] - lead * row_r[j]) // prev
        prev = aug[rank][col]
        pivots.append(col)
        rank += 1
    for i in range(rank, m):
        if aug[i][n]:
            return None
    free_cols = [c for c in range(n) if c not in pivots]

    def back_substitute(use_rhs, free_values):
        x = [Fraction(0)] * n
        for c, v in free_values.items():
            x[c] = v
        for i in range(rank - 1, -1, -1):
            col = pivots[i]
            acc = Fraction(aug[i][n]) if use_rhs else Fraction(0)
            for j in range(col + 1, n):
                if aug[i][j]:
                    acc -= aug[i][j] * x[j]
            x[col] = acc / aug[i][col]
        return x

    particular = back_substitute(True, {c: Fraction(0) for c in free_cols})
    kernel = []
    for fc in free_cols:
        values = {c: Fraction(1 if c == fc else 0) for c in free_cols}
        kernel.append(back_substitute(False, values))
    return particular, kernel


def bareiss_solve(rows, rhs):
    """Solve rows * x = rhs over Q, for integer rows and an integer rhs.

    Returns None when the system is inconsistent, else (den, particular,
    kernel): den > 0 and integer vectors such that the solutions are exactly
    (particular + sum_k t_k * kernel_k) / den over rational t_k.
    particular / den is the solution with every free variable 0, and
    kernel_k / den the kernel vector with the k-th free variable (in column
    order) 1 and the others 0.

    Fraction-free Gauss-Jordan (Bareiss): each column takes its first
    nonzero entry at or below the current rank as pivot and eliminates it
    above and below, dividing exactly by the previous pivot.  At the end
    every pivot entry equals the last pivot, which is the common
    denominator, and no rational number is ever formed.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    pivots = []
    rank = 0
    prev = 1
    for col in range(n):
        sel = next((i for i in range(rank, m) if aug[i][col]), None)
        if sel is None:
            continue
        aug[rank], aug[sel] = aug[sel], aug[rank]
        row_r = aug[rank]
        pivot = row_r[col]
        for i in range(m):
            if i != rank:
                lead = aug[i][col]
                aug[i] = [(pivot * a - lead * b) // prev for a, b in zip(aug[i], row_r)]
        prev = pivot
        pivots.append(col)
        rank += 1
    if any(aug[i][n] for i in range(rank, m)):
        return None
    sign = 1 if prev > 0 else -1
    particular = [0] * n
    for i, col in enumerate(pivots):
        particular[col] = sign * aug[i][n]
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[fc] = sign * prev
        for i, col in enumerate(pivots):
            vec[col] = -sign * aug[i][fc]
        kernel.append(vec)
    return sign * prev, particular, kernel


def delta_columns(deg_bound, shift):
    """Integer coefficient lists of (1 - sigma^shift)(H^e) for e = 0..deg_bound."""
    columns = []
    for e in range(deg_bound + 1):
        shifted = [0] * e + [1]
        _taylor_shift(shifted, -shift)  # H^e -> (H - shift)^e, as Poly.sigma does
        columns.append([-c for c in shifted[:e]])  # the H^e terms cancel
    return columns


def system_rows(blocks):
    """Integer rows and rhs of sum_blocks (1 - sigma^shift)(block poly) = 1."""
    columns = []
    for deg_bound, shift in blocks:
        columns.extend(delta_columns(deg_bound, shift))
    size = max([1] + [len(c) for c in columns])
    rows = [[c[exp] if exp < len(c) else 0 for c in columns] for exp in range(size)]
    rhs = [1] + [0] * (size - 1)
    return rows, rhs
