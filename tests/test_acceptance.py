"""Acceptance gate: ten end-to-end criteria, one verdict per criterion.

Each test prints `criterion N: PASS/FAIL — detail`; with `pytest -v` the
test names give one line per criterion as well.

Criterion 9 checks the dihedral mechanism on every reflection class of
I2(m), m = 5..8, 26, 27, 127 and 128, with values that depend on the
parity of m.  For a reflection sigma, the traces tr_k on the
Orlik–Solomon degree k follow from the geometry alone:

- tr_0 = 1;
- tr_1 is the number of mirrors sigma fixes: 2 for even m (its own and
  the perpendicular one), 1 for odd m (no root is perpendicular to it);
- sigma has no fixed point on the complexified complement, so its
  Lefschetz number 1 - tr_1 + tr_2 is 0.

So for even m, chi(sigma) = (1-t)^2, the (1-t)-quotient has traces (1, 1),
chi_G'(sigma) = 0 and chi_R(sigma) = 2; for odd m, chi(sigma) = 1 - t, the
quotient has traces (1, 0), chi_G'(sigma) = 1 and chi_R(sigma) = 0.  In
both cases chi_R(sigma) * chi_G'(sigma) = 0.  Each class is also
cross-checked against `check_dihedral`, and a failure prints the computed
values.
"""

import time
from fractions import Fraction
from functools import lru_cache

import pytest

from coxcat.cluster import f_polynomial, verify_hf_conjecture
from coxcat.exact import BiPoly, UniPoly
from coxcat.groups import check_B_lemma, chi_R
from coxcat.osalgebra import (
    build_os_algebra,
    check_B_gprime_lemma,
    check_dihedral,
    check_dimension_identity,
    g_prime_character,
    os_graded_character,
    quotient_traces,
    reflection_class_indices,
    verify_main_conjecture,
)
from coxcat.poset import (
    enumerate_antichains,
    generalized_catalan,
    h_polynomial,
    narayana_polynomial,
    p_polynomial_direct,
    p_polynomial_mobius,
)
from coxcat.rootsys import build_root_system
from coxcat.symfunc import (
    calibrate_sigma_t_lie,
    calibrated_bundle,
    verify_bonzero,
    verify_first_derivative_identities,
    verify_second_derivative_identity,
)
from references import unipoly_divide_exact

TABLE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 7)]
    + ["E6", "E7", "E8", "F4", "G2", "H3", "H4"]
    + [f"I2({m})" for m in range(5, 13)]
)

CRYSTALLOGRAPHIC_RANK_8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

CRYSTALLOGRAPHIC_RANK_6 = [
    label
    for label in CRYSTALLOGRAPHIC_RANK_8
    if build_root_system(label).rank <= 6
]

HF_TYPES = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4")

OS_ORACLE_TYPES = (
    "A1", "A2", "A3", "B2", "B3", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "H3",
)

CONJECTURE_TYPES = ("A2", "A3", "B2", "B3", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "H3", "D4")


@lru_cache(maxsize=None)
def rs_for(label):
    return build_root_system(label)


@lru_cache(maxsize=None)
def tally_for(label):
    return enumerate_antichains(rs_for(label))


def closed_form_count(rs):
    return {
        "A": lambda n: 1,
        "B": lambda n: n,
        "D": lambda n: n - 2,
        "E": lambda n: {6: 7, 7: 16, 8: 44}[n],
        "F": lambda n: 10,
        "G": lambda n: 4,
        "H": lambda n: {3: 8, 4: 42}[n],
        "I": lambda n: rs.m - 2,
    }[rs.family](rs.rank)


def verdict(number, detail):
    print(f"criterion {number}: PASS — {detail}")


def fail(number, problems):
    message = f"criterion {number}: FAIL — " + "; ".join(problems)
    print(message)
    pytest.fail(message, pytrace=False)


def test_criterion_01_full_reflection_table():
    start = time.monotonic()
    for label in TABLE_TYPES:
        rs = rs_for(label)
        counted = rs.full_reflection_count()
        assert Fraction(counted) == rs.formula_value(), label
        assert counted == closed_form_count(rs), label
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, bound is 5s"
    verdict(1, f"{len(TABLE_TYPES)} types match count, formula, and table in {elapsed:.2f}s")


def test_criterion_02_generalized_catalan_totals():
    start = time.monotonic()
    for label in CRYSTALLOGRAPHIC_RANK_8:
        rs = rs_for(label)
        assert tally_for(label).total == generalized_catalan(rs), label
    assert tally_for("E8").total == 25080
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, bound is 30s"
    verdict(2, f"{len(CRYSTALLOGRAPHIC_RANK_8)} types, E8 total 25080, {elapsed:.2f}s")


def test_criterion_03_narayana_and_p_symmetry():
    for label in CRYSTALLOGRAPHIC_RANK_8:
        rs = rs_for(label)
        tally = tally_for(label)
        narayana = narayana_polynomial(tally)
        p_poly = p_polynomial_direct(tally)
        assert narayana.reverse_x(rs.rank) == narayana, label
        assert p_poly.reverse_x(rs.rank) == p_poly, label
    verdict(3, f"N and P palindromic for {len(CRYSTALLOGRAPHIC_RANK_8)} types")


def test_criterion_04_p_polynomial_agreement():
    for label in CRYSTALLOGRAPHIC_RANK_6:
        rs = rs_for(label)
        tally = tally_for(label)
        direct = p_polynomial_direct(tally)
        assert direct == p_polynomial_mobius(rs), label
        f_count = rs.full_reflection_count()
        assert direct.coefficient(rs.rank - 1) == f_count, label
        assert h_polynomial(tally).coefficient(rs.rank - 1, 0) == f_count, label
    verdict(4, f"direct = Möbius and x^(n-1) coefficients = f for {len(CRYSTALLOGRAPHIC_RANK_6)} types")


def test_criterion_05_hf_transformation():
    for label in HF_TYPES:
        result = verify_hf_conjecture(rs_for(label))
        assert result["transformed"] == result["h"], label
    expected_h = BiPoly({(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 2): 1})
    expected_f = BiPoly(
        {(0, 0): 1, (1, 0): 3, (0, 1): 2, (2, 0): 2, (1, 1): 2, (0, 2): 1}
    )
    assert h_polynomial(tally_for("A2")) == expected_h
    assert f_polynomial(rs_for("A2")) == expected_f
    verdict(5, f"H(x,y) = (1-x)^n F(x/(1-x), xy/(1-x)) for {len(HF_TYPES)} types")


def elementary_symmetric(values):
    coeffs = [1]
    for v in values:
        coeffs = [a + v * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def test_criterion_06_os_dimensions_and_divisibility():
    one_minus_t = UniPoly((1, -1))
    for label in OS_ORACLE_TYPES:
        rs = rs_for(label)
        algebra = build_os_algebra(rs)
        assert algebra.dims == elementary_symmetric(rs.exponents), label
        gc = os_graded_character(rs)
        for cls, poly in zip(gc.classes, gc.chars):
            unipoly_divide_exact(poly, one_minus_t)
    verdict(6, f"dims = e_k(exponents) and (1-t) | chi for {len(OS_ORACLE_TYPES)} types")


def test_criterion_07_main_conjecture():
    for label in CONJECTURE_TYPES:
        result = verify_main_conjecture(rs_for(label))
        assert result["f_count"] == rs_for(label).full_reflection_count(), label
    for label in TABLE_TYPES:
        result = check_dimension_identity(rs_for(label))
        assert result["lhs"] == result["rhs"], label
    verdict(
        7,
        f"chi_R * chi_G' = (-1)^(n-1) f |W| delta_e class-by-class for "
        f"{len(CONJECTURE_TYPES)} types (including D4 and H3), identity-class "
        f"instance for all {len(TABLE_TYPES)} table types",
    )


def test_criterion_08_signed_cycle_lemmas():
    for label in ("B2", "B3", "B4"):
        rs = rs_for(label)
        check_B_lemma(rs)
        check_B_gprime_lemma(rs)
    verdict(8, "chi_R support and chi_G' vanishing checked exhaustively for B2, B3, B4")


def dihedral_reflection_expectation(m):
    """Criterion 9 values for a reflection sigma of I2(m); see the module docstring.

    sigma fixes a mirrors, a = 2 for even m and 1 for odd m, so tr_1 = a,
    tr_2 = a - 1 and chi(sigma) = (1 - t)(1 - (a - 1) t).  chi_R(sigma)
    counts the roots perpendicular to sigma's own, a pair only for even m.
    The m reflections form two classes for even m and one for odd m.
    """
    even = m % 2 == 0
    a = 2 if even else 1
    return {
        "classes": 2 if even else 1,
        "char": UniPoly((1, -a, a - 1)),
        "traces": (1, a - 1, 0),
        "g_prime": 2 - a,
        "chi_r": 2 * (a - 1),
    }


def reflection_values(values):
    traces = ", ".join(str(x) for x in values["traces"])
    return (
        f"chi(sigma) = {values['char']!r}, quotient traces ({traces}), "
        f"chi_G'(sigma) = {values['g_prime']}, chi_R(sigma) = {values['chi_r']}"
    )


def test_criterion_09_dihedral_quotient_traces():
    problems = []
    passes = {}
    for m in (5, 6, 7, 8, 26, 27, 127, 128):
        label = f"I2({m})"
        expected = dihedral_reflection_expectation(m)
        rs = rs_for(label)
        gc = os_graded_character(rs)
        chi_gp = g_prime_character(gc)
        chi_r = chi_R(gc.classes)
        indices = reflection_class_indices(rs, gc.classes)
        reported = check_dihedral(rs)["reflections"]
        if len(indices) != expected["classes"] or len(reported) != len(indices):
            problems.append(
                f"{label}: {len(indices)} reflection classes, {len(reported)} "
                f"in check_dihedral, where {expected['classes']} are required"
            )
            continue
        for idx, entry in zip(indices, reported):
            traces = tuple(quotient_traces(gc, idx))
            found = {
                "char": gc.chars[idx],
                "traces": traces,
                "g_prime": chi_gp[idx],
                "chi_r": chi_r[idx],
            }
            where = f"{label} reflection class {gc.classes[idx].describe()}"
            if any(found[key] != expected[key] for key in found):
                problems.append(
                    f"{where}: {reflection_values(found)} where "
                    f"{reflection_values(expected)} is required"
                )
            elif (entry["char"], entry["trace0"], entry["trace1"], entry["g_prime"]) != (
                found["char"], traces[0], traces[1], found["g_prime"]
            ):
                problems.append(
                    f"{where}: check_dihedral reports chi(sigma) = {entry['char']!r}, "
                    f"quotient traces ({entry['trace0']}, {entry['trace1']}), "
                    f"chi_G'(sigma) = {entry['g_prime']} where {reflection_values(found)} "
                    f"is computed"
                )
            else:
                passes.setdefault(reflection_values(expected), []).append(label)
    if problems:
        fail(9, problems)
    summary = [
        f"{values} on {len(labels)} classes of {', '.join(sorted(set(labels)))}"
        for values, labels in passes.items()
    ]
    verdict(9, "; ".join(summary) + "; so chi_R * chi_G' = 0 on every reflection class")


def test_criterion_10_series_pipeline():
    start = time.monotonic()
    decision = calibrate_sigma_t_lie()
    bundle = calibrated_bundle(9)
    verify_first_derivative_identities(bundle, 6)
    verify_second_derivative_identity(bundle, 6)
    verify_bonzero(bundle, 7)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, bound is 60s"
    verdict(
        10,
        f"calibration (twist={decision['twist']}), derivative identities to "
        f"degree 6, bonzero to degree 7 in {elapsed:.2f}s",
    )
