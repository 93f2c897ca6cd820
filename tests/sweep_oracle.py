"""Reference solver for the sweep's linear systems.

Bareiss fraction-free forward elimination followed by back-substitution in
``fractions.Fraction``.  It returns the solutions over Q directly, without
the common denominator of :func:`weylalg.certify._solve_exact`, so the tests
use it as an independent oracle for that solver.
"""

from fractions import Fraction
from math import lcm


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
