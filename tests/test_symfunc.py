"""Power-sum symmetric functions, plethysm, and the graded Lie/Gerst series."""

import dataclasses
import random
from fractions import Fraction

import pytest

import coxcat.symfunc as symfunc
from coxcat.errors import CheckFailed, InternalError
from coxcat.exact import UniPoly, partitions_of
from coxcat.groups import chi_R, generate_group
from coxcat.osalgebra import os_graded_character
from coxcat.rootsys import build_root_system
from coxcat.symfunc import (
    SymFunc,
    calibrate_sigma_t_lie,
    calibrated_bundle,
    chi_R_typeA,
    class_value,
    complete_homogeneous_sum,
    dp1,
    geometric_inverse_one_plus_p1_t,
    identity_class_value,
    make_bundle,
    plethysm,
    sigma_t_lie,
    verify_bonzero,
    verify_first_derivative_identities,
    verify_second_derivative_identity,
    verify_type_A_conjecture,
)

NVARS = 6
HALF = UniPoly.constant(Fraction(1, 2))


def p(k, n=7):
    return SymFunc.p(k, n)


# ---------------------------------------------------------------------------
# an independent oracle: expand t-free series in six concrete variables


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def power_sum_in_vars(k):
    out = {}
    for i in range(NVARS):
        exps = [0] * NVARS
        exps[i] = k
        out[tuple(exps)] = Fraction(1)
    return out


def expand_in_vars(f):
    """Image of a t-free SymFunc under p_k -> x_1^k + ... + x_6^k."""
    total = {}
    for lam, coeff in f.terms.items():
        assert coeff == UniPoly.constant(coeff(Fraction(0)))
        term = {(0,) * NVARS: coeff(Fraction(0))}
        for part in lam:
            term = poly_mul(term, power_sum_in_vars(part))
        for key, val in term.items():
            total[key] = total.get(key, Fraction(0)) + val
    return {k: v for k, v in total.items() if v}


def monomial_alphabet(poly):
    """Monomial list (with multiplicity) of a polynomial with coefficients in N."""
    letters = []
    for exps, coeff in sorted(poly.items()):
        assert coeff.denominator == 1 and coeff >= 0
        letters.extend([exps] * int(coeff))
    return letters


def power_sum_of_alphabet(k, letters):
    out = {}
    for exps in letters:
        key = tuple(k * e for e in exps)
        out[key] = out.get(key, Fraction(0)) + 1
    return {k2: v for k2, v in out.items() if v}


def plethysm_oracle(f, g):
    """f evaluated on the monomials of g, both series t-free, g monomial-positive."""
    letters = monomial_alphabet(expand_in_vars(g))
    total = {}
    for lam, coeff in f.terms.items():
        term = {(0,) * NVARS: coeff(Fraction(0))}
        for part in lam:
            term = poly_mul(term, power_sum_of_alphabet(part, letters))
        for key, val in term.items():
            total[key] = total.get(key, Fraction(0)) + val
    return {k: v for k, v in total.items() if v}


def test_plethysm_on_generators():
    assert plethysm(p(2), p(3)) == SymFunc.p(6, 7)
    t = UniPoly((0, 1))
    tp1 = SymFunc({(1,): t}, 7)
    assert plethysm(p(2), tp1) == SymFunc({(2,): UniPoly((0, 0, 1))}, 7)
    # algebra homomorphism in the outer argument
    f = p(1) * p(1) + p(2).scale(Fraction(3))
    g = p(1) + p(3)
    assert plethysm(f, g) == plethysm(p(1), g) * plethysm(p(1), g) + plethysm(
        p(2), g
    ).scale(Fraction(3))


@pytest.mark.parametrize(
    "f_terms,g_terms",
    [
        ({(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}, {(1,): 1, (2,): 1}),
        ({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}, {(1,): 2, (2,): 1}),
        ({(2, 1): 1}, {(1,): 1}),
        ({(1,): 1, (2,): 1, (1, 1): 1}, {(1,): 1, (1, 1): 1}),
    ],
)
def test_plethysm_matches_six_variable_expansion(f_terms, g_terms):
    f = SymFunc({k: UniPoly.constant(Fraction(v)) for k, v in f_terms.items()}, 4)
    g = SymFunc({k: UniPoly.constant(Fraction(v)) for k, v in g_terms.items()}, 4)
    assert expand_in_vars(plethysm(f, g)) == plethysm_oracle(f, g)


def random_symfunc(rng, truncation, max_tdeg=2, constant_ok=True):
    terms = {}
    degrees = range(0 if constant_ok else 1, truncation + 1)
    for n in degrees:
        for lam in partitions_of(n):
            if rng.random() < 0.4:
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(max_tdeg + 1)]
                terms[lam] = UniPoly(tuple(coeffs))
    return SymFunc(terms, truncation)


def test_plethysm_associativity():
    rng = random.Random(99)
    for _ in range(4):
        n = 5
        f = random_symfunc(rng, n)
        g = random_symfunc(rng, n, constant_ok=False)
        h = random_symfunc(rng, n, constant_ok=False)
        assert plethysm(plethysm(f, g), h) == plethysm(f, plethysm(g, h))


def test_plethysm_rejects_constant_term_in_inner():
    with pytest.raises(InternalError, match="inner series must have no degree-0 term"):
        plethysm(p(2), SymFunc.one(7))
    with pytest.raises(InternalError, match="inner series must have no degree-0 term"):
        plethysm(p(1), p(1) + SymFunc.one(7))


def test_dp1_on_monomials():
    assert dp1(SymFunc({(2, 1, 1): UniPoly.constant(Fraction(1))}, 7)) == SymFunc(
        {(2, 1): UniPoly.constant(Fraction(2))}, 7
    )
    assert dp1(SymFunc({(3, 2): UniPoly.constant(Fraction(5))}, 7)) == SymFunc.zero(7)
    assert dp1(SymFunc.one(7)) == SymFunc.zero(7)


def test_dp1_is_a_derivation_through_plethysm():
    # d/dp_1 (f o g) = ((df/dp_1) o g) * dg/dp_1, exact for finite inputs
    rng = random.Random(7)
    for _ in range(4):
        f = random_symfunc(rng, 2)
        g = random_symfunc(rng, 3, constant_ok=False)
        n = 6
        f6 = SymFunc(f.terms, n)
        g6 = SymFunc(g.terms, n)
        lhs = dp1(plethysm(f6, g6))
        rhs = plethysm(dp1(f6), g6) * dp1(g6)
        assert lhs == rhs


def test_com_series():
    com = complete_homogeneous_sum(4)
    assert com.coefficient(()) == UniPoly.zero()
    assert com.coefficient((1,)) == UniPoly.constant(Fraction(1))
    assert com.coefficient((1, 1)) == HALF
    assert com.coefficient((2,)) == HALF
    assert com.coefficient((3,)) == UniPoly.constant(Fraction(1, 3))
    assert com.coefficient((2, 1)) == UniPoly.constant(Fraction(1, 2))
    assert com.coefficient((1, 1, 1)) == UniPoly.constant(Fraction(1, 6))


def test_both_lie_variants_satisfy_the_first_derivative_identity():
    target = geometric_inverse_one_plus_p1_t(5)
    for twist in (False, True):
        lie = sigma_t_lie(6, twist)
        deriv = dp1(lie)
        for n in range(6):
            assert deriv.graded_part(n) == SymFunc(target.graded_part(n).terms, 6)


def test_calibration_selects_the_twist():
    decision = calibrate_sigma_t_lie()
    assert decision["twist"] is True
    assert decision["detail"][(False, 2)] is False
    assert decision["detail"][(True, 2)] is True


def test_calibration_raises_when_no_variant_matches(monkeypatch):
    def bogus(n, truncation):
        return SymFunc({(n,): UniPoly.constant(Fraction(41))}, truncation)

    monkeypatch.setattr(symfunc, "_symmetric_group_oracle", bogus)
    with pytest.raises(CheckFailed, match="neither Lie-series sign variant matches"):
        calibrate_sigma_t_lie()


def test_calibration_at_oracle_degrees_matches_full_truncation():
    decision = calibrate_sigma_t_lie()
    assert decision["degrees"] == [2, 3, 4]
    short = {twist: symfunc.make_bundle(4, twist) for twist in (False, True)}
    full = {twist: symfunc.make_bundle(9, twist) for twist in (False, True)}
    matches = {}
    for twist in (False, True):
        for n in decision["degrees"]:
            piece = full[twist].gerst.graded_part(n)
            assert SymFunc(piece.terms, 4) == short[twist].gerst.graded_part(n)
            matches[(twist, n)] = piece == symfunc._symmetric_group_oracle(n, 9)
    for key, matched in decision["detail"].items():
        assert matches[key] is matched
    surviving = [t for t in (False, True) if all(matches[(t, n)] for n in decision["degrees"])]
    assert surviving == [decision["twist"]]


@pytest.mark.parametrize("twist", [False, True])
def test_recurrence_matches_plethysm_at_every_truncation(twist):
    # a graded part of degree n is the same at every truncation >= n
    reference = plethysm(complete_homogeneous_sum(11), sigma_t_lie(11, twist))
    for n in range(1, 12):
        assert make_bundle(n, twist).gerst == SymFunc(reference.terms, n), n


def test_recurrence_rejects_an_inexact_division(monkeypatch):
    exponent = symfunc._exponent_class_values

    def corrupted(lie, truncation):
        values = exponent(lie, truncation)
        assert values[2][(1, 1)] == (0, -1)
        values[2][(1, 1)] = (0, Fraction(-1, 2))
        return values

    monkeypatch.setattr(symfunc, "_exponent_class_values", corrupted)
    with pytest.raises(
        InternalError, match=r"degree-2 class value at \(1, 1\) is not divisible by 2"
    ):
        make_bundle(5, True)


def _doubled_exponent(monkeypatch):
    # exp of an integer class function is integral, so this passes the division
    exponent = symfunc._exponent_class_values

    def corrupted(lie, truncation):
        values = exponent(lie, truncation)
        values[2][(1, 1)] = (0, -2)
        return values

    monkeypatch.setattr(symfunc, "_exponent_class_values", corrupted)


def _shifted_gerst(monkeypatch):
    build = symfunc.make_bundle

    def corrupted(truncation, twist):
        bundle = build(truncation, twist)
        extra = SymFunc({(3,): UniPoly((0, 1))}, truncation)
        return dataclasses.replace(bundle, gerst=bundle.gerst + extra)

    monkeypatch.setattr(symfunc, "make_bundle", corrupted)


@pytest.mark.parametrize("corrupt", [_doubled_exponent, _shifted_gerst])
def test_calibration_cross_checks_the_recurrence_against_plethysm(monkeypatch, corrupt):
    corrupt(monkeypatch)
    with pytest.raises(InternalError, match=r"differs from plethysm\(Com, Lie\) at truncation 4"):
        calibrate_sigma_t_lie()


@pytest.mark.parametrize("n", [5, 6])
def test_gerst_class_values_match_the_arrangement_beyond_the_oracle_degrees(n):
    # the calibration compares degrees <= 4 only; A_{n-1} is an independent check
    rs = build_root_system(f"A{n - 1}")
    character = os_graded_character(rs, generate_group(rs))
    bundle = calibrated_bundle(8)
    assert sorted(cls.label for cls in character.classes) == sorted(partitions_of(n))
    for cls, chi in zip(character.classes, character.chars):
        assert class_value(bundle, cls.label) == chi, cls.label


def test_series_checks_build_one_full_bundle(monkeypatch):
    from coxcat.reports import run_check

    calibrated_bundle.cache_clear()
    make_bundle = symfunc.make_bundle
    truncations = []

    def recording_make_bundle(truncation, twist):
        truncations.append(truncation)
        return make_bundle(truncation, twist)

    monkeypatch.setattr(symfunc, "make_bundle", recording_make_bundle)
    gerst = run_check("gerst", "A2", max_degree=5)
    assert gerst.passed
    assert gerst.details["calibration_degrees"] == [2, 3, 4]
    assert gerst.details["twist"] is True
    assert run_check("bonzero", "A2", max_degree=5).passed
    # the two calibration candidates at the oracle degree, then one shared bundle
    assert truncations == [4, 4, 7]


def test_frozen_degree_two_gerst():
    gerst = calibrated_bundle(7).gerst
    half_one_minus_t = UniPoly((Fraction(1, 2), Fraction(-1, 2)))
    assert gerst.coefficient((1, 1)) == half_one_minus_t
    assert gerst.coefficient((2,)) == half_one_minus_t
    assert class_value(calibrated_bundle(7), (2,)) == UniPoly((1, -1))


def test_identity_class_values():
    bundle = calibrated_bundle(7)
    for n in range(1, 6):
        expected = UniPoly.one()
        for i in range(1, n):
            expected = expected * UniPoly((1, -i))
        assert identity_class_value(bundle, n) == expected


def test_first_derivative_identities():
    verify_first_derivative_identities(calibrated_bundle(8), 7)


def test_second_derivative_identity():
    for n in (5, 6):
        verify_second_derivative_identity(calibrated_bundle(n + 2), n)


def test_bonzero():
    bundle = calibrated_bundle(7)
    verify_bonzero(calibrated_bundle(8), 6)
    # the reduced value at t=1 is the alternating geometric series in p_1
    second = dp1(dp1(bundle.gerst))
    from coxcat.exact import unipoly_divide_exact

    reduced = SymFunc(
        {
            lam: UniPoly.constant(
                unipoly_divide_exact(coeff, UniPoly((1, -1)))(Fraction(1))
            )
            for lam, coeff in second.terms.items()
        },
        7,
    )
    assert reduced.coefficient((2, 1)) == UniPoly.zero()
    assert reduced.coefficient((1, 1, 1)) == UniPoly.constant(Fraction(-1))
    assert bundle.gerst.evaluate_t(1) == SymFunc.p(1, 7)


def test_chi_r_typeA_values():
    assert chi_R_typeA((1, 1, 1)) == 6
    assert chi_R_typeA((2, 1)) == 0
    assert chi_R_typeA((3,)) == 0
    assert chi_R_typeA((1, 1, 1, 1)) == 12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chi_r_typeA_matches_root_action_characters(n):
    rs = build_root_system(f"A{n - 1}")
    group = generate_group(rs)
    values = chi_R(rs, group.classes)
    assert len(group.classes) == len(list(partitions_of(n)))
    for cls, val in zip(group.classes, values):
        assert val == chi_R_typeA(cls.label)


def test_type_A_conjecture():
    bundle = calibrated_bundle(7)
    result = verify_type_A_conjecture(bundle, 7)
    assert result["classes"] == sum(len(list(partitions_of(n))) for n in range(2, 8))


def test_type_A_conjecture_detects_corruption():
    bundle = calibrated_bundle(4)
    broken = symfunc.SeriesBundle(
        truncation=bundle.truncation,
        twist=bundle.twist,
        com=bundle.com,
        lie=bundle.lie,
        gerst=bundle.gerst + SymFunc({(1, 1, 1): UniPoly((1, -1))}, 4),
    )
    with pytest.raises(CheckFailed, match=r"S_3 class \(1, 1, 1\): chi_R\*chi_G' = "):
        verify_type_A_conjecture(broken, 4)


def test_omega_sign_and_power_substitution():
    f = SymFunc({(2, 1): UniPoly.constant(Fraction(3)), (1, 1): UniPoly((0, 1))}, 7)
    omega = f.omega_sign()
    assert omega.coefficient((2, 1)) == UniPoly.constant(Fraction(-3))
    assert omega.coefficient((1, 1)) == UniPoly((0, 1))
    doubled = f.power_substitution(2)
    assert doubled.coefficient((4, 2)) == UniPoly.constant(Fraction(3))
    assert doubled.coefficient((2, 2)) == UniPoly((0, 0, 1))


def test_truncation_mismatch_rejected():
    with pytest.raises(ValueError):
        p(1, 5) + p(1, 6)
