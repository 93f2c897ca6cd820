"""Command-line front-end.

Exit codes: 0 success, 2 parse or usage error, 3 domain error (e.g. a
certify pair whose commutator is not 1, or a result too large to print), 4
out-of-scope input (mass hypotheses violated).  An expression may start
with '-' (weyl normalize -H); '--' before the expressions still works.
All output is deterministic given the arguments and --seed; --json switches
to the canonical single-line JSON forms.
"""

from __future__ import annotations

import argparse
import json
import sys

# reading and printing elements needs these; the modules behind the other
# commands (centralizer with factor, certify, tame) are imported by the
# command that runs, so a normalize call never compiles them
from .errors import DomainError, OutOfScopeError, ParseError
from .parser import format_pretty, normalize_text, print_canonical
from .polynomials import NEG_INF, rat_to_str
from .weyl import HomogeneousElement, commutator, mass, total_degree


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, obj, text=str):
    """The one output line of obj: canonical JSON or text(obj), only the form asked for."""
    return [dumps_canonical(obj.to_json()) if args.json else text(obj)]


def _cmd_normalize(args):
    return _emit(args, normalize_text(args.expr), format_pretty)


def _cmd_commute(args):
    result = commutator(normalize_text(args.left), normalize_text(args.right))
    return _emit(args, result, format_pretty)


def _cmd_mass(args):
    value = mass(normalize_text(args.expr))
    return [dumps_canonical({"mass": value}) if args.json else str(value)]


def _cmd_components(args):
    element = normalize_text(args.expr)
    if args.json:
        return [dumps_canonical(element.to_json())]
    return [f"{i}: {f.format()}" for i, f in element.components()]


def _cmd_degree(args):
    degree = total_degree(normalize_text(args.expr))
    if args.json:
        return [dumps_canonical({"total_degree": None if degree == NEG_INF else degree})]
    return ["-inf" if degree == NEG_INF else str(degree)]


def _cmd_centralizer(args):
    from .centralizer import centralizer_generator, centralizer_rational

    u = HomogeneousElement.from_graded(normalize_text(args.expr))
    if u.degree == 0:
        marker = centralizer_rational(u.coeff)
        return [dumps_canonical({"centralizer": marker}) if args.json else marker]
    lead, monic = u.monic_split()
    result = centralizer_generator(monic)
    v_graded = result.v.to_graded()
    v_text = (
        print_canonical(v_graded.to_weyl()) if v_graded.is_weyl()
        else " + ".join(f"({c}) * v_{i}" for i, c in v_graded.components())
    )
    payload = result.to_json()
    payload["input_lead"] = rat_to_str(lead)
    payload["v_text"] = v_text
    if args.json:
        return [dumps_canonical(payload)]
    lines = [f"s = {result.s}", f"beta = {result.beta.format()}", f"v = {v_text}"]
    return lines + [f"infeasible: {cert}" for cert in result.infeasible_divisors]


def _cmd_certify(args):
    from .certify import certify_pair

    P = normalize_text(args.left)
    Q = normalize_text(args.right)
    return _emit(args, certify_pair(P, Q))


def _cmd_sweep(args):
    from .certify import impossibility_sweep

    bounds = {"p": args.p, "q": args.q, "max_coeff_deg": args.max_coeff_deg}
    report = impossibility_sweep(args.pattern, bounds)
    if args.json:
        return [dumps_canonical(report.to_json())]
    lines = []
    for cell in report.cells:
        degs = "" if cell.deg_a is None else f" deg_a={cell.deg_a} deg_b={cell.deg_b}"
        lines.append(f"{cell.pattern} p={cell.p} q={cell.q}{degs}: {cell.status}")
    lines.append(f"{len(report.empty_cells())} empty, {len(report.solution_cells())} with solutions")
    return lines


def _cmd_random_auto(args):
    from .tame import random_tame

    word = random_tame(
        args.seed, word_len=args.word_len, max_n=args.max_n, coeff_height=args.coeff_height
    )
    return _emit(args, word)


def _cmd_apply(args):
    from .tame import AutoWord, apply_auto

    with open(args.word_file, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except (ValueError, RecursionError) as exc:  # invalid or too deeply nested JSON
            raise DomainError(f"{args.word_file} is not a JSON word: {exc}") from None
    word = AutoWord.from_json(obj)
    return _emit(args, apply_auto(word, normalize_text(args.expr)), format_pretty)


# name: (handler, its arguments in help order, whether its positionals are
# expressions, which may start with '-'); a bare string is a positional
_JSON = ("--json", {"action": "store_true", "help": "canonical JSON output"})
_COMMANDS = {
    "normalize": (_cmd_normalize, ("expr", _JSON), True),
    "commute": (_cmd_commute, ("left", "right", _JSON), True),
    "mass": (_cmd_mass, ("expr", _JSON), True),
    "components": (_cmd_components, ("expr", _JSON), True),
    "degree": (_cmd_degree, ("expr", _JSON), True),
    "centralizer": (_cmd_centralizer, ("expr", _JSON), True),
    "certify": (_cmd_certify, ("left", "right", _JSON), True),
    "sweep": (_cmd_sweep, (
        ("pattern", {"choices": ["case-ii", "case-iii", "case-v"]}),
        ("--p", {"type": int, "default": 3}),
        ("--q", {"type": int, "default": 3}),
        ("--max-coeff-deg", {"type": int, "default": 2}),
        _JSON,
    ), False),
    "random-auto": (_cmd_random_auto, (
        ("--seed", {"type": int, "required": True}),
        ("--word-len", {"type": int, "default": 4}),
        ("--max-n", {"type": int, "default": 3}),
        ("--coeff-height", {"type": int, "default": 5}),
        _JSON,
    ), False),
    "apply": (_cmd_apply, ("word_file", "expr", _JSON), True),
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one line on stderr and exit 2, like a parse error."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(prog="weyl", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (func, arguments, _) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        for argument in arguments:
            flag, options = (argument, {}) if isinstance(argument, str) else argument
            cmd.add_argument(flag, **options)
        cmd.set_defaults(func=func)
    return top


def _expressions_after_dashes(argv):
    """argv with an expression command's options first and its positionals after '--'.

    argparse reads any argument that starts with '-' as an option, so an
    expression such as -H or -1/2 would be rejected.  For these commands
    the only options are -h and long ones (--json, --help), so every other
    argument is a positional; everything after a '--' already given is one.
    """
    if not argv or argv[0] not in _COMMANDS or not _COMMANDS[argv[0]][2]:
        return argv
    options, positionals = [], []
    rest = argv[1:]
    for i, arg in enumerate(rest):
        if arg == "--":
            positionals.extend(rest[i + 1:])
            break
        is_option = arg == "-h" or arg.startswith("--")
        (options if is_option else positionals).append(arg)
    return [argv[0], *options, "--", *positionals]


def main(argv=None) -> int:
    parser = build_arg_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_expressions_after_dashes(argv))
    try:
        # a command returns all its output lines, so a failure prints none
        lines = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OutOfScopeError as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return 4
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
