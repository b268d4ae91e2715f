"""Exact combinatorics of finite Coxeter groups.

Submodules:
  exact      exact scalars and polynomials
  rootsys    root systems, exponents, full reflections
  poset      root poset antichains and their generating polynomials
  cluster    cluster complexes, compatibility degrees, face polynomials
  groups     brute-force group elements, conjugacy classes, root characters
  osalgebra  graded arrangement characters and the reflection-count identity
  symfunc    operadic series as class values, power-sum plethysm
  cli        the coxcat command-line interface

Importing the package loads no submodule.  Each exported name is imported
from its submodule when it is first read (PEP 562), so a command-line call
pays only for the modules its command runs.  No submodule imports the
standard library's data classes either, which would pull `inspect` into
every call.
"""

import importlib

__version__ = "0.1.0"

# exported names, space-separated, by the submodule that defines them
_EXPORTS = {
    "errors": "CapacityExceeded CheckFailed CoxcatError InternalError UsageError",
    "exact": "BiPoly GoldenNumber UniPoly bipoly_substitute partitions_of",
    "rootsys": "RootSystem build_root_system",
    "poset": "AntichainTally RootPoset check_antichain_lemmas enumerate_antichains "
    "generalized_catalan h_polynomial narayana_polynomial p_polynomial_direct p_polynomial_mobius",
    "cluster": "ClusterComplex compatibility_degree f_polynomial verify_hf_conjecture",
    "groups": "ConjugacyClass check_B_lemma chi_R generate_group signed_cycle_type",
    "osalgebra": "GradedCharacter check_B_gprime_lemma check_dihedral check_dimension_identity "
    "g_prime_character os_graded_character verify_main_conjecture",
    "symfunc": "SeriesBundle SymFunc calibrate_sigma_t_lie calibrated_bundle chi_R_typeA plethysm "
    "verify_bonzero verify_second_derivative_identity verify_type_A_conjecture",
    "reports": "VerificationReport run_all_checks run_check",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    # the value is returned, not stored here, so the package namespace never changes
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
