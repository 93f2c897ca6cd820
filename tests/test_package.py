"""The package imports its submodules on first use, and its public calls
check their arguments.

Each fresh-interpreter check runs in a subprocess, since this process has
imported most of the package already.
"""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylalg
from weylalg import (
    AutoWord,
    BElement,
    DomainError,
    FactoredPoly,
    HomogeneousElement,
    Poly,
    RatFunc,
    X,
    apply_auto,
    auto_images,
    centralizer_generator,
    centralizer_rational,
    factor_poly,
    factor_ratfunc,
    invert_auto,
    monic_split,
    parser,
    power_decompose,
    random_tame,
    rat_deg,
    shift_orbit_partition,
    sigma_pow,
    solve_twisted_root,
    twisted_product,
)
from weylalg.weyl import MAX_EXPONENT

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("centralizer", "certify", "errors", "factor", "parser", "polynomials", "tame", "weyl")


def fresh(*args, code=None):
    """stdout and stderr of a new interpreter with src/ on its path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, *args] if code is None else [sys.executable, "-c", code]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def loaded_after(code):
    """The weylalg modules a fresh interpreter holds after running code."""
    out, _ = fresh(code=f"{code}\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('weylalg')))")
    return out.split()


class TestFreshInterpreter:
    def test_import_loads_no_submodule(self):
        assert loaded_after("import weylalg") == ["weylalg"]

    def test_a_name_loads_only_what_its_module_imports(self):
        assert loaded_after("import weylalg\nweylalg.Poly") == ["weylalg", "weylalg.errors", "weylalg.polynomials"]

    def test_every_public_name_is_its_submodules_object(self):
        code = f"""
import importlib, weylalg
for module in {SUBMODULES!r}:
    sub = importlib.import_module('weylalg.' + module)
    for name in weylalg._EXPORTS[module]:
        assert getattr(weylalg, name) is getattr(sub, name), name
    assert getattr(weylalg, module) is sub, module
assert sorted(weylalg._MODULE_OF) == sorted(weylalg.__all__)
"""
        fresh(code=code)

    def test_dir_covers_all_before_any_import(self):
        fresh(code="import weylalg\nassert set(weylalg.__all__) <= set(dir(weylalg))")

    def test_star_import_binds_every_public_name(self):
        code = """
import weylalg
from weylalg import *
assert all(globals()[name] is getattr(weylalg, name) for name in weylalg.__all__)
"""
        fresh(code=code)

    def test_submodule_attribute_resolves_before_its_import(self):
        out, _ = fresh(code="import weylalg\nprint(weylalg.tame.__name__)")
        assert out == "weylalg.tame\n"

    def test_unknown_name_is_an_attribute_error(self):
        code = """
import weylalg
try:
    weylalg.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise SystemExit("no AttributeError")
"""
        fresh(code=code)

    def test_normalize_command_compiles_no_algorithm_module(self):
        out, err = fresh("-X", "importtime", "-m", "weylalg.cli", "normalize", "X*Y")
        assert out == "H - 1\n"
        imported = {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if line.startswith("import time:")}
        assert "weylalg.parser" in imported
        assert not imported & {"weylalg.factor", "weylalg.centralizer", "weylalg.certify", "weylalg.tame"}

    def test_certifying_a_pair_loads_no_parser(self):
        # the parser only words a refusal
        code = "import weylalg\nfrom weylalg.weyl import X, Y\nweylalg.certify_pair(Y + X**2, X)"
        assert loaded_after(code) == [
            "weylalg", "weylalg.certify", "weylalg.errors", "weylalg.polynomials", "weylalg.tame", "weylalg.weyl",
        ]

    def test_name_first_resolved_under_the_tracer_is_restored(self):
        # the benchmark's tracer rebinds the library's functions while it runs
        code = f"""
import sys
sys.path.insert(0, {str(ROOT / "bench")!r})
import weylalg
from tracing import Tracer
tracer = Tracer()
tracer.install()
traced = weylalg.impossibility_sweep
tracer.uninstall()
assert traced is not weylalg.certify.impossibility_sweep
assert weylalg.impossibility_sweep is weylalg.certify.impossibility_sweep
assert vars(weylalg)["impossibility_sweep"] is weylalg.certify.impossibility_sweep
"""
        fresh(code=code)


class TestHook:
    """The module hook itself, in this process."""

    def test_submodule_by_name(self):
        assert weylalg.__getattr__("tame") is sys.modules["weylalg.tame"]

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            weylalg.__getattr__("no_such_name")

    def test_public_names_are_pinned(self):
        # __all__ is derived from the name table, so this fixes the public API
        names = " ".join(weylalg.__all__).encode()
        assert len(weylalg.__all__) == 68
        assert hashlib.sha256(names).hexdigest() == "a39cf1bd90377a92afb0e04cec809f1261b14c7b24551b15a00f42ad13028ab2"

    def test_dir(self):
        assert set(weylalg.__all__) | set(SUBMODULES) <= set(dir(weylalg))

    def test_a_wrapper_is_not_kept(self, monkeypatch):
        original = parser.parse
        wrapper = functools.wraps(original)(lambda text: original(text))
        monkeypatch.delitem(vars(weylalg), "parse", raising=False)
        monkeypatch.setattr(parser, "parse", wrapper)
        assert weylalg.parse is wrapper
        assert "parse" not in vars(weylalg)
        monkeypatch.undo()
        assert weylalg.parse is original
        assert vars(weylalg)["parse"] is original


Hp = Poly.gen()
U = HomogeneousElement(1, RatFunc(Hp))
ALIEN = object()

# Each public argument check and NotImplemented return, with what the call
# raises, or returns once Python has tried the reflected operation.
REJECTED = [
    ("Poly ** -1", lambda: Poly.one() ** -1, ValueError),
    ("Poly == str", lambda: Poly.one() == "x", False),
    ("Poly.constant_value of H", lambda: Hp.constant_value(), DomainError),
    ("RatFunc ** float", lambda: RatFunc(Hp) ** 1.5, ValueError),
    ("RatFunc == object", lambda: RatFunc(Hp) == ALIEN, False),
    ("RatFunc / 0", lambda: RatFunc(Hp) / 0, ZeroDivisionError),
    ("RatFunc / object", lambda: RatFunc(Hp) / ALIEN, TypeError),
    ("object / RatFunc", lambda: ALIEN / RatFunc(Hp), TypeError),
    ("RatFunc.as_poly of 1/H", lambda: RatFunc(1, Hp).as_poly(), DomainError),
    ("monic_split of str", lambda: monic_split("x"), TypeError),
    ("rat_deg of str", lambda: rat_deg("x"), TypeError),
    ("sigma_pow of int", lambda: sigma_pow(1, 1), TypeError),
    ("X - str", lambda: X - "x", TypeError),
    ("X * object", lambda: X * ALIEN, TypeError),
    ("object * X", lambda: ALIEN * X, TypeError),
    ("X ** -1", lambda: X ** -1, ValueError),
    ("X == object", lambda: X == ALIEN, False),
    ("BElement.to_weyl of 1/H", lambda: BElement({0: RatFunc(1, Hp)}).to_weyl(), DomainError),
    ("HomogeneousElement of 0", lambda: HomogeneousElement(1, RatFunc(0)), DomainError),
    ("HomogeneousElement * object", lambda: U * ALIEN, TypeError),
    ("HomogeneousElement ** 0", lambda: U ** 0, ValueError),
    ("AutoWord + object", lambda: AutoWord() + ALIEN, TypeError),
    ("apply_auto of str", lambda: apply_auto("x", X), TypeError),
    ("auto_images of str", lambda: auto_images("x"), TypeError),
    ("invert_auto of str", lambda: invert_auto("x"), TypeError),
    ("random_tame with word_len over the cap", lambda: random_tame(1, word_len=1001), DomainError),
    ("random_tame with max_n over the cap", lambda: random_tame(1, max_n=MAX_EXPONENT + 1), DomainError),
    ("factor_poly of str", lambda: factor_poly("x"), TypeError),
    ("factor_ratfunc of Poly", lambda: factor_ratfunc(Hp), TypeError),
    ("shift_orbit_partition with s = 0", lambda: shift_orbit_partition(FactoredPoly(1, ((Hp, 1),)), 0), DomainError),
    ("power_decompose by degree 0", lambda: power_decompose(U, HomogeneousElement(0, RatFunc(Hp))), DomainError),
    ("centralizer_generator of str", lambda: centralizer_generator("x"), TypeError),
    ("centralizer_rational of Poly", lambda: centralizer_rational(Hp), TypeError),
    ("solve_twisted_root of non-monic", lambda: solve_twisted_root(RatFunc(2 * Hp), 1, 1, "plus"), DomainError),
    ("solve_twisted_root with k = 0", lambda: solve_twisted_root(RatFunc(Hp), 0, 1, "plus"), DomainError),
    ("twisted_product with s = 0", lambda: twisted_product(Hp, 2, 0, "plus"), DomainError),
    ("twisted_product with s = -1", lambda: twisted_product(Hp, 2, -1, "plus"), DomainError),
]


@pytest.mark.parametrize("call, outcome", [row[1:] for row in REJECTED], ids=[row[0] for row in REJECTED])
def test_public_argument_check(call, outcome):
    if outcome is False:
        assert call() is False
    else:
        with pytest.raises(outcome):
            call()
