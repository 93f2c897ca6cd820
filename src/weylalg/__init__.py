"""Exact arithmetic in the first Weyl algebra over Q.

The algebra is presented as a generalized Weyl algebra over Q[H] with
Y X = H, X Y = H - 1 and the shift sigma(H) = H - 1.  The package computes
graded normal forms, commutators, centralizers of homogeneous elements in
the skew Laurent localization, and constructive tame-automorphism
certificates for commuting pairs of small mass.

The public names are imported on first use (PEP 562), so a process compiles
only the submodules it touches: reading and printing elements needs
polynomials, weyl, parser and errors, and never factor or certify.
"""

from importlib import import_module

# the submodule that defines each public name
_EXPORTS = {
    "centralizer": (
        "CentralizerResult", "InfeasibilityCertificate", "Orbit", "PowerDecomposition",
        "centralizer_generator", "centralizer_rational", "in_rational_centralizer",
        "power_decompose", "positive_divisors", "shift_orbit_partition",
        "solve_twisted_root", "twisted_product",
    ),
    "certify": (
        "SweepCell", "SweepReport", "certify_pair", "delta_balance_check",
        "impossibility_sweep",
    ),
    "errors": ("DomainError", "OutOfScopeError", "ParseError", "TwistedRootInfeasible"),
    "factor": ("FactoredPoly", "factor_poly", "factor_ratfunc", "is_irreducible"),
    "parser": ("format_pretty", "normalize", "normalize_text", "parse", "print_canonical"),
    "polynomials": (
        "NEG_INF", "Poly", "Rat", "RatFunc", "delta_op", "monic_split", "rat_deg",
        "sigma_pow",
    ),
    "tame": (
        "AutoWord", "PhiX", "PhiY", "Torus", "Translate", "Xi", "affine_decompose",
        "apply_auto", "auto_images", "invert_auto", "random_tame",
    ),
    "weyl": (
        "BElement", "GradedElement", "HomogeneousElement", "WeylElement", "commutator",
        "components", "in_skew_subalgebra", "mass", "mul", "structure_constant",
        "structure_constant_right", "total_degree", "xi_apply", "xi_inverse_apply",
        "H", "ONE", "X", "Y", "ZERO",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """A public name or a submodule, imported on first access."""
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _EXPORTS:  # importing a submodule binds it here
            return import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    # a wrapper (functools.wraps sets __wrapped__) may be put back by
    # whoever installed it, so only an unwrapped value is bound here for good
    if not hasattr(value, "__wrapped__"):
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
