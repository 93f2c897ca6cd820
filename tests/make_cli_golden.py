"""Write tests/cli_golden.jsonl: argv, exit code and exact stdout of CLI calls.

    PYTHONPATH=src python tests/make_cli_golden.py

test_cli.py replays every line and demands the same exit code and the same
stdout bytes, so regenerate the file only when an output change is intended.
"""

from __future__ import annotations

import json
from pathlib import Path

from test_cli import LEADING_MINUS, run_quiet
from weylalg import Poly, positive_divisors, twisted_product

GOLDEN = Path(__file__).with_name("cli_golden.jsonl")
H = Poly.gen()

EXPRESSIONS = [
    "0",
    "Y*X",
    "(X+Y)^2",
    "X^3*Y^2 - 2*H*X + 1/2",
    "(H - 1)^2*Y^3 + X^4*Y",
    "((X + 1)*(Y - 2))^3",
    "3/4*H^2*X^5 - (X*Y*X)^2",
    "(Y + X^2)^3",
]

COMMUTE = [
    ("Y", "X"),
    ("X", "Y"),
    ("H", "X^2"),
    ("X^2*Y + Y", "X^3 - H"),
    ("(X + Y)^2", "X*Y*X"),
]

# alpha = beta(H) * beta(H - s) * ... for every n in +-2..+-12, of degree up
# to 24; beta is a product of linear factors, a quadratic that is irreducible
# over Q but splits modulo about half the primes, or a mix, so the factorizer
# sees many modular factors of equal degree
BETAS = [H**2 + 1, (H - 1) * (H + 2), H**2 - 2, H**2 + H + 1, H * (H**2 + 3)]


def _centralizer_text(alpha: Poly, n: int) -> str:
    power = f"X^{n}" if n > 0 else f"Y^{-n}"
    return f"({alpha.format()})*{power}"


def _centralizer_calls():
    calls = []
    for index, n in enumerate(m for k in range(2, 13) for m in (k, -k)):
        direction = "plus" if n > 0 else "minus"
        divisors = positive_divisors(n)
        for s0 in (1, divisors[len(divisors) // 2]):
            beta = BETAS[(index + s0) % len(BETAS)]
            if beta.degree * abs(n) // s0 > 24:  # the centralizer benchmark's cap
                beta = BETAS[(index + s0) % 4]
            alpha = twisted_product(beta, abs(n) // s0, s0, direction)
            calls.append(["centralizer", _centralizer_text(alpha, n), "--json"])
    # alphas that are no twisted power: every divisor gets a certificate
    for n, alpha in [
        (4, (H**2 + 1) * (H**2 - 2) * (H - 3)),
        (-6, (H**2 + 1) * ((H - 1) ** 2 + 1) * (H + 5)),
        (6, (H**4 + 1) * (H - 1) * (H + 1)),
    ]:
        calls.append(["centralizer", _centralizer_text(alpha, n), "--json"])
        calls.append(["centralizer", _centralizer_text(alpha, n)])
    calls.append(["centralizer", "(H)*X^2"])
    calls.append(["centralizer", "3*X^2", "--json"])
    calls.append(["centralizer", "H^2 - 3"])
    calls.append(["centralizer", "X + Y"])
    return calls


# alphas whose factorization serves several divisors: two residue
# certificates; a polynomial alpha with a rational root beta; rational
# coefficients with n = -6 and three residue certificates
FACTOR_ONCE = [
    "(H^2+1)^2*X^4",
    "(H*(H-3))*X^2",
    "((H - 1/2)*(H + 3/2))^3*Y^6",
]

# values that stay in Q or Q[H] before a letter appears, zeroth powers, and
# degree-0 factors on either side of a letter
SMALL_RING = [
    "3",
    "0^0",
    "H^0*X",
    "(X*Y)^0",
    "(1/2)^3*H^2*Y^2",
    "X*(H+1)",
    "(H+1)*X",
    "((H)^2)^3 - H^6",
    "H*X*H*Y",
    "X^200*Y^200",
]

CERTIFY = [
    ("Y", "X"),
    ("2*Y + X^3 + 1", "1/2*X"),
    ("Y + X^2", "X"),
    ("Y", "X + Y^3"),
    ("X", "Y"),  # commutator -1: exit 3
    ("(1)*Y^4 + (2*H + 1)*Y^1 + (1)*X^2", "(1)*Y^2 + (1)*X^1"),  # masses 3: exit 4
    ("Y*", "X"),  # parse error: exit 2
]


def golden_calls():
    calls = []
    for expr in EXPRESSIONS:
        for command in ("normalize", "mass", "components", "degree"):
            calls.append([command, expr])
            calls.append([command, expr, "--json"])
    for left, right in COMMUTE:
        calls.append(["commute", left, right])
        calls.append(["commute", left, right, "--json"])
    calls.append(["normalize", "X^"])
    calls.extend(dashed for _, dashed in LEADING_MINUS)
    calls.append(["normalize", "X^10001"])
    calls.extend(_centralizer_calls())
    for left, right in CERTIFY:
        calls.append(["certify", left, right])
        calls.append(["certify", left, right, "--json"])
    for pattern in ("case-ii", "case-iii", "case-v"):
        calls.append(["sweep", pattern, "--p", "4", "--q", "4", "--max-coeff-deg", "3", "--json"])
    # larger sweeps, where the witnesses have big coefficients
    calls.append(["sweep", "case-ii", "--p", "6", "--q", "6", "--max-coeff-deg", "5", "--json"])
    calls.append(["sweep", "case-iii", "--p", "7", "--q", "7", "--max-coeff-deg", "6", "--json"])
    calls.append(["sweep", "case-v", "--p", "7", "--q", "7", "--max-coeff-deg", "6", "--json"])
    calls.append(["sweep", "case-v", "--p", "2", "--q", "3", "--max-coeff-deg", "1"])
    for seed in (1, 2, 7, 8, 13):
        calls.append(["random-auto", "--seed", str(seed)])
        calls.append(["random-auto", "--seed", str(seed), "--json"])
    for expr in FACTOR_ONCE:
        calls.append(["centralizer", expr])
        calls.append(["centralizer", expr, "--json"])
    for expr in SMALL_RING:
        calls.append(["normalize", expr])
        calls.append(["normalize", expr, "--json"])
    return calls


if __name__ == "__main__":
    with GOLDEN.open("w", encoding="utf-8") as handle:
        for argv in golden_calls():
            code, stdout, _ = run_quiet(argv)
            handle.write(json.dumps({"argv": argv, "code": code, "stdout": stdout}) + "\n")
