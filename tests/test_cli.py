import contextlib
import hashlib
import io
import json
import re
import sys
import time
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weylalg import cli
from weylalg.cli import main
from weylalg.parser import MAX_EXPONENT

# Python's int<->str digit limit; 0 (none) before 3.10.7 and 3.11
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(argv):
    """Exit code, stdout and stderr of one in-process call, without fixtures."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # a usage error ends in argparse's exit
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestBasicCommands:
    def test_commute(self, capsys):
        code, out, _ = run_cli(capsys, "commute", "Y", "X")
        assert (code, out) == (0, "1\n")

    def test_normalize(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "Y*X")
        assert (code, out) == (0, "H\n")

    def test_normalize_json(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "Y*X", "--json")
        assert code == 0
        assert json.loads(out) == {"components": [[0, {"poly": [[1, "1/1"]]}]]}

    def test_mass_and_degree(self, capsys):
        assert run_cli(capsys, "mass", "X + Y")[:2] == (0, "2\n")
        assert run_cli(capsys, "degree", "H^2*X^3")[:2] == (0, "7\n")
        assert run_cli(capsys, "degree", "0")[:2] == (0, "-inf\n")

    def test_components(self, capsys):
        code, out, _ = run_cli(capsys, "components", "X + 2*Y")
        assert code == 0
        assert out == "-1: 2\n1: 1\n"


class TestCertifyCommand:
    def test_identity_json(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "Y", "X", "--json")
        assert (code, out) == (0, '{"word":[]}\n')

    def test_wrong_commutator_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "certify", "X", "Y")
        assert code == 3
        assert "commutator is -1, not 1" in err

    def test_out_of_scope_exit_4(self, capsys):
        # both masses 3 with commutator 1: tau = PhiX(2,1); PhiY(2,1) applied to (Y, X)
        P = "(1)*Y^4 + (2*H + 1)*Y^1 + (1)*X^2"
        code, _, err = run_cli(capsys, "certify", P, P)
        assert code == 3  # [P, P] = 0, commutator error comes first
        code, _, err = run_cli(
            capsys,
            "certify",
            "(1)*Y^4 + (2*H + 1)*Y^1 + (1)*X^2",
            "(1)*Y^2 + (1)*X^1",
        )
        assert code == 4
        assert "mass" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "certify", "Y*", "X")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("text, position", [("X^\u00b2", 2), ("X + \u00b2", 4)])
    def test_digit_int_cannot_read_exit_2(self, capsys, text, position):
        code, out, err = run_cli(capsys, "normalize", text)
        assert (code, out) == (2, "")
        assert err == f"parse error: unexpected character '\u00b2' (at position {position})\n"

    def test_decimal_digits_of_any_script(self, capsys):
        assert run_cli(capsys, "normalize", "X^\u0661\u0662") == (0, "X^12\n", "")

    def test_deep_nesting_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "normalize", "(" * 5000 + "X" + ")" * 5000)
        assert (code, out) == (2, "")
        assert "nest deeper than the limit" in err

    def test_roundtrip_through_apply(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "certify", "2*Y + X^3 + 1", "1/2*X", "--json")
        assert code == 0
        word_file = tmp_path / "word.json"
        word_file.write_text(out)
        code, out, _ = run_cli(capsys, "apply", str(word_file), "Y")
        assert code == 0
        assert out == "(2)*Y^1 + (1) + (1)*X^3\n"


class TestApplyCommand:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"gens": [{"gen": "Xi"}]}', '"word" list'),
            ('{"word": {"gen": "Xi"}}', '"word" list'),
            ('{"word": [{"gen": "Shear"}]}', "no known generator kind"),
            ('{"word": [{"n": 1, "lambda": "1/1"}]}', "no known generator kind"),
            ('{"word": [{"gen": "PhiX", "lambda": "1/1"}]}', "no 'n' field"),
            ('{"word": [{"gen": "PhiX", "n": "2", "lambda": "1/1"}]}', "must be an integer"),
            # a bool is an int subclass, and JSON true is not an integer
            ('{"word": [{"gen": "PhiX", "n": true, "lambda": "1/1"}]}', "must be an integer"),
            ('{"word": [{"gen": "Translate", "c": "1/1"}]}', "no 'd' field"),
            ('{"word": [{"gen": "Torus", "mu": "1/0"}]}', "must be a rational"),
            ('{"word": [{"gen": "Torus", "mu": "two"}]}', "must be a rational"),
            ('{"word": [{"gen": "PhiY", "n": 1, "lambda": 0.5}]}', "must be a rational"),
            # a JSON integer in a rational field is not read as an integer field is
            ('{"word": [{"gen": "Torus", "mu": 5}]}', "must be a rational"),
            # only rat_to_str's form is read: no exponent, point, space or underscore
            ('{"word": [{"gen": "Torus", "mu": "1e5"}]}', "must be a rational"),
            ('{"word": [{"gen": "Torus", "mu": "1.5"}]}', "must be a rational"),
            ('{"word": [{"gen": "Torus", "mu": " 1/2"}]}', "must be a rational"),
            ('{"word": [{"gen": "Torus", "mu": "1_000"}]}', "must be a rational"),
            # Fraction would compute 10**10000000 before any digit limit applies
            ('{"word": [{"gen": "Torus", "mu": "1e10000000"}]}', "must be a rational"),
            ('{"word": [', "not a JSON word"),
        ],
    )
    def test_malformed_word_exit_3(self, capsys, tmp_path, payload, message):
        word_file = tmp_path / "word.json"
        word_file.write_text(payload)
        code, out, err = run_cli(capsys, "apply", str(word_file), "Y")
        assert (code, out) == (3, "")
        assert message in err

    def test_exponent_over_the_cap_exit_3(self, capsys, tmp_path):
        # applying PhiY(20000, 1) to X would build a degree-20000 image
        n = MAX_EXPONENT + 1
        word_file = tmp_path / "word.json"
        word_file.write_text(json.dumps({"word": [
            {"gen": "PhiY", "n": 2 * MAX_EXPONENT, "lambda": "1/1"},
            {"gen": "PhiX", "n": 1, "lambda": "1/1"},
        ]}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "apply", str(word_file), "X")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (3, "", f"error: PhiY requires n <= {MAX_EXPONENT}, got {2 * MAX_EXPONENT}\n")
        assert run_cli(capsys, "random-auto", "--seed", "1", "--max-n", str(n), "--json") == (
            3, "", f"error: max_n = {n} exceeds the cap {MAX_EXPONENT}\n"
        )

    def test_missing_word_file_exit_3(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(capsys, "apply", str(missing), "Y")
        assert (code, out) == (3, "")
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


class TestCentralizerCommand:
    def test_homogeneous_json(self, capsys):
        code, out, _ = run_cli(capsys, "centralizer", "(H)*X^2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == 2
        assert payload["v_text"] == "(H)*X^2"
        assert payload["infeasible_divisors"][0]["kind"] == "degree"

    def test_rational_marker(self, capsys):
        code, out, _ = run_cli(capsys, "centralizer", "H^2 - 3")
        assert (code, out) == (0, "K(H)\n")

    def test_constant_rejected(self, capsys):
        assert run_cli(capsys, "centralizer", "5") == (
            3, "", "error: constants are central; their centralizer is the whole algebra\n"
        )

    def test_non_homogeneous_rejected(self, capsys):
        assert run_cli(capsys, "centralizer", "X + Y") == (3, "", "error: element is not homogeneous\n")
        assert run_cli(capsys, "centralizer", "0") == (
            3, "", "error: the zero element is not homogeneous\n"
        )

    def test_lead_divisible_by_every_small_prime(self, capsys):
        # factoring the numerator H^2 + 1/N must look past the primes below 2000
        n = prod(p for p in range(3, 2000, 2) if all(p % k for k in range(3, isqrt(p) + 1, 2)))
        code, out, err = run_cli(capsys, "centralizer", f"(H^2 + 1/{n})*X^2")
        assert (code, err) == (0, "")
        assert out.startswith("s = 2\n")

    def test_non_monic_is_split(self, capsys):
        code, out, _ = run_cli(capsys, "centralizer", "3*X^2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["input_lead"] == "3/1"
        assert payload["s"] == 1


class TestOutputForms:
    def test_json_does_not_build_the_text(self, capsys, monkeypatch):
        def refuse(element):
            raise AssertionError("format_pretty called for --json")

        monkeypatch.setattr(cli, "format_pretty", refuse)
        assert run_cli(capsys, "normalize", "X", "--json")[:2] == (
            0, '{"components":[[1,{"poly":[[0,"1/1"]]}]]}\n')
        assert run_cli(capsys, "commute", "Y", "X", "--json")[0] == 0


# an expression that starts with '-', bare and after '--' (the '--' forms are
# also pinned in cli_golden.jsonl)
LEADING_MINUS = [
    (["normalize", "-H"], ["normalize", "--", "-H"]),
    (["normalize", "-1/2", "--json"], ["normalize", "--json", "--", "-1/2"]),
    (["commute", "-X", "Y"], ["commute", "--", "-X", "Y"]),
]


class TestLeadingMinus:
    @pytest.mark.parametrize("bare, dashed", LEADING_MINUS)
    def test_bare_form_matches_dashed_form(self, bare, dashed):
        code, out, _ = run_quiet(bare)
        assert code == 0
        assert (code, out) == run_quiet(dashed)[:2]

    def test_options_keep_their_meaning(self):
        for flag in ("-h", "--help"):
            code, out, _ = run_quiet(["normalize", "-X", flag])
            assert code == 0 and out.startswith("usage: weyl normalize")
        assert run_quiet(["mass", "--json", "-X^2", "-Y"]) == (2, "", "weyl: error: unrecognized arguments: -Y\n")
        assert run_quiet(["degree", "-X^2*Y", "--json"])[:2] == (0, '{"total_degree":3}\n')


class TestDeterminism:
    def test_random_auto_seeded(self, capsys):
        first = run_cli(capsys, "random-auto", "--seed", "7", "--json")
        second = run_cli(capsys, "random-auto", "--seed", "7", "--json")
        assert first == second
        third = run_cli(capsys, "random-auto", "--seed", "8", "--json")
        assert third != first

    def test_random_auto_word_len_cap_exit_3(self, capsys):
        assert run_cli(capsys, "random-auto", "--seed", "1", "--word-len", "100000000", "--json") == (
            3, "", "error: word_len = 100000000 exceeds the cap 1000\n"
        )

    def test_sweep_bytes_stable(self, capsys):
        args = ("sweep", "case-ii", "--p", "2", "--q", "2", "--max-coeff-deg", "2", "--json")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second
        assert first[0] == 0

    @pytest.mark.parametrize("pattern", ["case-ii", "case-iii", "case-v"])
    def test_cap_sweep_matches_its_hash(self, capsys, pattern):
        # tests/cap_sweep.sha256 pins the JSON of each sweep at the cap
        lines = Path(__file__).with_name("cap_sweep.sha256").read_text(encoding="utf-8").splitlines()
        pinned = {name: digest for digest, name in map(str.split, lines)}
        args = ("sweep", pattern, "--p", "16", "--q", "16", "--max-coeff-deg", "16", "--json")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == pinned[f"cap_sweep_{pattern}.json"]

    def test_sweep_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "case-v", "--p", "2", "--q", "3", "--max-coeff-deg", "1")
        assert code == 0
        assert "empty" in out


@pytest.mark.skipif(not 0 < DIGIT_LIMIT < MAX_EXPONENT, reason="needs a finite int-to-str limit")
class TestHugeIntegers:
    def test_literal_over_digit_limit_exit_2(self, capsys):
        literal = "1" + "0" * DIGIT_LIMIT
        for text in (literal, f"X^{literal}", f"1/{literal}*Y"):
            code, out, err = run_cli(capsys, "normalize", text)
            assert (code, out) == (2, "")
            assert f"more than {DIGIT_LIMIT} digits" in err

    def test_unprintable_result_exit_3(self, capsys):
        text = f"10^{DIGIT_LIMIT}*X + Y"  # a coefficient of DIGIT_LIMIT + 1 digits
        for argv in (["normalize", text], ["normalize", text, "--json"],
                     ["components", text], ["components", text, "--json"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (3, "")
            assert err == f"error: a coefficient has more than {DIGIT_LIMIT} digits to print\n"
        assert run_cli(capsys, "degree", f"10^{DIGIT_LIMIT}")[:2] == (0, "0\n")


# texts over the grammar's alphabet; single-digit exponents and at most one
# power of a parenthesized group keep every example cheap to evaluate
grammar_text = st.text(alphabet="XYH0123456789+-*^/() ", max_size=16).filter(
    lambda t: not re.search(r"\^\s*\d\d", t) and t.replace(" ", "").count(")^") <= 1
)


@settings(max_examples=150, deadline=None)
@given(grammar_text)
def test_any_text_exits_with_a_message(text):
    for argv in (["normalize", text], ["commute", text, "X"]):
        code, out, err = run_quiet(argv)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert err == ""
        else:
            assert out == ""
            assert err.count("\n") == 1 and err.endswith("\n")
            assert err.startswith(("parse error: ", "error: ", "out of scope: ", "weyl "))


def _golden_records():
    with Path(__file__).with_name("cli_golden.jsonl").open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_golden_calls_are_byte_stable():
    """Replay tests/cli_golden.jsonl (written by tests/make_cli_golden.py)."""
    for record in _golden_records():
        code, out, err = run_quiet(record["argv"])
        assert (code, out) == (record["code"], record["stdout"]), record["argv"]
        # the parse-error records pin the message and its position too
        assert err == record.get("stderr", err), record["argv"]


def test_golden_file_holds_the_generator_calls():
    """cli_golden.jsonl was regenerated after the last edit of its generator."""
    from make_cli_golden import golden_calls

    assert [record["argv"] for record in _golden_records()] == golden_calls()
