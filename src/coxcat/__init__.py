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
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    CapacityExceeded,
    CheckFailed,
    CoxcatError,
    InternalError,
    UsageError,
)
from .exact import (  # noqa: F401
    BiPoly,
    GoldenNumber,
    UniPoly,
    bipoly_substitute,
    partitions_of,
    unipoly_divide_exact,
)
from .rootsys import RootSystem, build_root_system, reflection_of_root  # noqa: F401
from .poset import (  # noqa: F401
    AntichainTally,
    RootPoset,
    check_antichain_lemmas,
    enumerate_antichains,
    generalized_catalan,
    h_polynomial,
    narayana_polynomial,
    p_polynomial_direct,
    p_polynomial_mobius,
)
from .cluster import (  # noqa: F401
    ClusterComplex,
    compatibility_degree,
    f_polynomial,
    tau_map,
    verify_hf_conjecture,
)
from .groups import (  # noqa: F401
    ConjugacyClass,
    GroupData,
    check_B_lemma,
    chi_R,
    generate_group,
    signed_cycle_type,
)
from .osalgebra import (  # noqa: F401
    GradedCharacter,
    check_B_gprime_lemma,
    check_dihedral,
    check_dimension_identity,
    g_prime_character,
    os_graded_character,
    verify_main_conjecture,
)
from .symfunc import (  # noqa: F401
    SeriesBundle,
    SymFunc,
    calibrate_sigma_t_lie,
    calibrated_bundle,
    chi_R_typeA,
    plethysm,
    verify_bonzero,
    verify_second_derivative_identity,
    verify_type_A_conjecture,
)
from .reports import VerificationReport, run_all_checks, run_check  # noqa: F401
