"""Power-sum symmetric functions, plethysm, and the graded Lie/Gerst series."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxcat.symfunc as symfunc
from coxcat.errors import CheckFailed, InternalError
from coxcat.exact import UniPoly, add_scaled, int_poly_mul, partitions_of, strip_zeros
from coxcat.groups import chi_R, generate_group
from coxcat.osalgebra import os_graded_character
from coxcat.rootsys import build_root_system
from coxcat.symfunc import (
    SymFunc,
    calibrate_sigma_t_lie,
    calibrated_bundle,
    chi_R_typeA,
    characteristic_map,
    class_value,
    make_bundle,
    plethysm,
    verify_bonzero,
    verify_first_derivative_identities,
    verify_second_derivative_identity,
    verify_type_A_conjecture,
)
from references import unipoly_divide_exact

NVARS = 6
HALF = UniPoly.constant(Fraction(1, 2))


def horner(poly, value):
    """poly(value), for a UniPoly at a scalar."""
    acc = value * 0
    for c in reversed(poly.coeffs):
        acc = acc * value + c
    return acc


def p(k, n=7):
    """The power sum p_k at truncation n."""
    return SymFunc({(k,): UniPoly.one()}, n)


def coefficient(f, lam):
    """The coefficient of p_lam in f."""
    return f.terms.get(tuple(sorted(lam, reverse=True)), UniPoly.zero())


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
        assert coeff == UniPoly.constant(horner(coeff, Fraction(0)))
        term = {(0,) * NVARS: horner(coeff, Fraction(0))}
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
        term = {(0,) * NVARS: horner(coeff, Fraction(0))}
        for part in lam:
            term = poly_mul(term, power_sum_of_alphabet(part, letters))
        for key, val in term.items():
            total[key] = total.get(key, Fraction(0)) + val
    return {k: v for k, v in total.items() if v}


# ---------------------------------------------------------------------------
# the reference: the series checks on Fraction-valued SymFuncs that the
# class-value checks replaced, kept to test them against


def dp1(f):
    """Formal partial derivative with respect to p_1."""
    out = {}
    for lam, c in f.terms.items():
        m = lam.count(1)
        if m == 0:
            continue
        key = lam[:-1]  # parts are sorted descending, so the last one is a 1
        scaled = c * UniPoly.constant(Fraction(m))
        out[key] = out.get(key, UniPoly.zero()) + scaled
    return SymFunc(out, f.truncation)


def geometric_inverse_one_plus_p1_t(truncation):
    """Expansion of 1/(1 + p_1 t) = sum_k (-1)^k t^k p_1^k."""
    return SymFunc(
        {(1,) * k: UniPoly((0,) * k + ((-1) ** k,)) for k in range(truncation + 1)},
        truncation,
    )


def graded_part(f, n):
    return SymFunc({lam: c for lam, c in f.terms.items() if sum(lam) == n}, f.truncation)


def evaluate_t(f, value):
    return SymFunc(
        {lam: UniPoly.constant(horner(c, Fraction(value))) for lam, c in f.terms.items()},
        f.truncation,
    )


def first_difference(f, g, max_degree):
    keys = {k for k in f.terms if sum(k) <= max_degree}
    keys |= {k for k in g.terms if sum(k) <= max_degree}
    for key in sorted(keys, key=lambda k: (sum(k), k)):
        a, b = coefficient(f, key), coefficient(g, key)
        if a != b:
            return key, a, b
    return None


def as_symfuncs(bundle):
    """Com, Lie and Gerst of a bundle under the characteristic map."""
    n = bundle.truncation
    return tuple(
        characteristic_map(values, n) for values in (bundle.com, bundle.lie, bundle.gerst)
    )


def reference_first_derivative_identities(bundle, max_degree):
    com, lie, _ = as_symfuncs(bundle)
    n = bundle.truncation
    if first_difference(dp1(com), SymFunc.one(n) + com, max_degree) is not None:
        raise CheckFailed("dCom/dp1")
    if first_difference(dp1(lie), geometric_inverse_one_plus_p1_t(n), max_degree) is not None:
        raise CheckFailed("dLie/dp1")


def reference_second_derivative_identity(bundle, max_degree):
    _, _, gerst = as_symfuncs(bundle)
    n = bundle.truncation
    lhs = dp1(dp1(gerst))
    inv = geometric_inverse_one_plus_p1_t(n)
    rhs = ((SymFunc.one(n) + gerst) * (inv * inv)).scale(UniPoly((1, -1)))
    if first_difference(lhs, rhs, max_degree) is not None:
        raise CheckFailed("second-derivative identity")


def reference_bonzero(bundle, max_degree):
    _, _, gerst = as_symfuncs(bundle)
    n = bundle.truncation
    reduced = {
        lam: unipoly_divide_exact(coeff, UniPoly((1, -1)))
        for lam, coeff in dp1(dp1(gerst)).terms.items()
    }
    at_one = evaluate_t(SymFunc(reduced, n), 1)
    target = evaluate_t(geometric_inverse_one_plus_p1_t(n), 1)
    if first_difference(at_one, target, max_degree) is not None:
        raise CheckFailed("value at t=1")
    if evaluate_t(gerst, 1) != p(1, n):
        raise CheckFailed("Gerst at t=1 is not p_1")


def passes(check, bundle, max_degree):
    try:
        check(bundle, max_degree)
    except CheckFailed:
        return False
    return True


def with_added(values, lam, delta):
    """A copy of the class values with delta added to the value on lam."""
    row = list(values.get(lam, ()))
    add_scaled(row, delta, 1)
    return {**values, lam: strip_zeros(row)}


def test_plethysm_on_generators():
    assert plethysm(p(2), p(3)) == p(6, 7)
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
    com = characteristic_map(make_bundle(4, True).com, 4)
    assert coefficient(com, ()) == UniPoly.zero()
    assert coefficient(com, (1,)) == UniPoly.constant(Fraction(1))
    assert coefficient(com, (1, 1)) == HALF
    assert coefficient(com, (2,)) == HALF
    assert coefficient(com, (3,)) == UniPoly.constant(Fraction(1, 3))
    assert coefficient(com, (2, 1)) == UniPoly.constant(Fraction(1, 2))
    assert coefficient(com, (1, 1, 1)) == UniPoly.constant(Fraction(1, 6))


def test_both_lie_variants_satisfy_the_first_derivative_identity():
    target = geometric_inverse_one_plus_p1_t(5)
    for twist in (False, True):
        lie = characteristic_map(make_bundle(6, twist).lie, 6)
        deriv = dp1(lie)
        for n in range(6):
            assert graded_part(deriv, n) == SymFunc(graded_part(target, n).terms, 6)


def test_calibration_selects_the_twist():
    decision = calibrate_sigma_t_lie()
    assert decision["twist"] is True
    assert decision["detail"][(False, 2)] is False
    assert decision["detail"][(True, 2)] is True


def test_calibration_raises_when_no_variant_matches(monkeypatch):
    def bogus(n):
        return {(n,): (41,)}

    monkeypatch.setattr(symfunc, "_symmetric_group_oracle", bogus)
    with pytest.raises(CheckFailed, match="neither Lie-series sign variant matches"):
        calibrate_sigma_t_lie()


def test_calibration_at_oracle_degrees_matches_full_truncation():
    decision = calibrate_sigma_t_lie()
    assert decision["degrees"] == [2, 3, 4]
    short = {twist: characteristic_map(make_bundle(4, twist).gerst, 4) for twist in (False, True)}
    full = {twist: characteristic_map(make_bundle(9, twist).gerst, 9) for twist in (False, True)}
    matches = {}
    for twist in (False, True):
        for n in decision["degrees"]:
            piece = graded_part(full[twist], n)
            assert SymFunc(piece.terms, 4) == graded_part(short[twist], n)
            oracle = characteristic_map(symfunc._symmetric_group_oracle(n), 9)
            matches[(twist, n)] = piece == oracle
    for key, matched in decision["detail"].items():
        assert matches[key] is matched
    surviving = [t for t in (False, True) if all(matches[(t, n)] for n in decision["degrees"])]
    assert surviving == [decision["twist"]]


@pytest.mark.parametrize("twist", [False, True])
def test_recurrence_matches_plethysm_at_every_truncation(twist):
    # a graded part of degree n is the same at every truncation >= n
    com, lie, _ = as_symfuncs(make_bundle(11, twist))
    reference = plethysm(com, lie)
    for n in range(1, 12):
        assert characteristic_map(make_bundle(n, twist).gerst, n) == SymFunc(reference.terms, n), n


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
        return bundle._replace(gerst=with_added(bundle.gerst, (3,), (0, 3)))

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
    character = os_graded_character(rs)
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
    gerst = characteristic_map(calibrated_bundle(7).gerst, 7)
    half_one_minus_t = UniPoly((Fraction(1, 2), Fraction(-1, 2)))
    assert coefficient(gerst, (1, 1)) == half_one_minus_t
    assert coefficient(gerst, (2,)) == half_one_minus_t
    assert class_value(calibrated_bundle(7), (2,)) == UniPoly((1, -1))


def test_identity_class_values():
    bundle = calibrated_bundle(7)
    for n in range(1, 6):
        expected = UniPoly.one()
        for i in range(1, n):
            expected = expected * UniPoly((1, -i))
        assert class_value(bundle, (1,) * n) == expected


def test_first_derivative_identities():
    verify_first_derivative_identities(calibrated_bundle(8), 7)


def test_second_derivative_identity():
    for n in (5, 6):
        verify_second_derivative_identity(calibrated_bundle(n + 2), n)


def test_bonzero():
    bundle = calibrated_bundle(7)
    verify_bonzero(calibrated_bundle(8), 6)
    # the reduced value at t=1 is the alternating geometric series in p_1
    gerst = characteristic_map(bundle.gerst, 7)
    second = dp1(dp1(gerst))
    reduced = SymFunc(
        {
            lam: UniPoly.constant(
                horner(unipoly_divide_exact(coeff, UniPoly((1, -1))), Fraction(1))
            )
            for lam, coeff in second.terms.items()
        },
        7,
    )
    assert coefficient(reduced, (2, 1)) == UniPoly.zero()
    assert coefficient(reduced, (1, 1, 1)) == UniPoly.constant(Fraction(-1))
    assert evaluate_t(gerst, 1) == p(1, 7)


@pytest.mark.parametrize("twist", [False, True])
def test_class_value_checks_agree_with_the_symfunc_reference(twist):
    pairs = [
        (verify_first_derivative_identities, reference_first_derivative_identities, 1),
        (verify_second_derivative_identity, reference_second_derivative_identity, 2),
        (verify_bonzero, reference_bonzero, 2),
    ]
    for n in range(1, 12):
        bundle = make_bundle(n, twist)
        for check, reference, lost in pairs:
            if n < lost:
                continue
            outcome = passes(check, bundle, n - lost)
            assert outcome == passes(reference, bundle, n - lost), (check.__name__, n)
            # the derivative identities hold for both twists; only the
            # calibrated one collapses to p_1 at t = 1
            assert outcome is (twist or check is not verify_bonzero), (check.__name__, n)


@pytest.mark.parametrize("twist", [False, True])
def test_shifted_class_values_are_dp1(twist):
    n = 9
    bundle = make_bundle(n, twist)
    for values in (bundle.com, bundle.lie, bundle.gerst):
        for k in (1, 2):
            shifted = symfunc._d_dp1(values, k)
            image = {lam: shifted(lam) for lam in symfunc._classes(n - k)}
            expected = characteristic_map(values, n)
            for _ in range(k):
                expected = dp1(expected)
            assert characteristic_map(image, n) == expected


FIRST, SECOND = verify_first_derivative_identities, verify_second_derivative_identity


@pytest.mark.parametrize(
    "check,series,lam,delta,message",
    [
        (FIRST, "com", (2, 1), (1,), r"dCom/dp1 differs on class \(2,\)"),
        (FIRST, "lie", (1, 1), (0, 1), r"dLie/dp1 differs on class \(1,\)"),
        (SECOND, "gerst", (2, 1, 1), (0, 1), r"second-derivative identity differs on class \(2"),
        (verify_bonzero, "gerst", (2, 1, 1), (1,), r"d\^2 Gerst on class \(2,\) .* not divisible"),
        (verify_bonzero, "gerst", (2, 1, 1), (1, -1), r"value at t=1 differs on class \(2,\)"),
        (verify_bonzero, "gerst", (3,), (1,), r"Gerst at t=1 is not p_1"),
    ],
)
def test_one_corrupted_class_value_trips_each_check(check, series, lam, delta, message):
    bundle = calibrated_bundle(6)
    check(bundle, 4)
    corrupted = with_added(getattr(bundle, series), lam, delta)
    broken = bundle._replace(**{series: corrupted})
    with pytest.raises(CheckFailed, match=message):
        check(broken, 4)


def class_value_product(f, g, truncation):
    """Product of two class functions, over the splittings weighted by `_merge`."""
    acc = {}
    for lam, p_values in f.items():
        for mu, q_values in g.items():
            if sum(lam) + sum(mu) <= truncation:
                key, ways = symfunc._merge(lam, mu)
                product = int_poly_mul(p_values, q_values)
                add_scaled(acc.setdefault(key, []), product, ways)
    return {lam: tuple(row) for lam, row in acc.items()}


CLASSES_TO_SIX = list(symfunc._classes(6))
class_functions = st.dictionaries(
    st.sampled_from(CLASSES_TO_SIX),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(tuple),
    max_size=8,
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(class_functions, class_functions)
def test_class_value_product_is_the_power_sum_product(f, g):
    lhs = characteristic_map(class_value_product(f, g, 6), 6)
    assert lhs == characteristic_map(f, 6) * characteristic_map(g, 6)


def test_chi_r_typeA_values():
    assert chi_R_typeA((1, 1, 1)) == 6
    assert chi_R_typeA((2, 1)) == 0
    assert chi_R_typeA((3,)) == 0
    assert chi_R_typeA((1, 1, 1, 1)) == 12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chi_r_typeA_matches_root_action_characters(n):
    rs = build_root_system(f"A{n - 1}")
    classes = generate_group(rs)
    values = chi_R(rs, classes)
    assert len(classes) == len(list(partitions_of(n)))
    for cls, val in zip(classes, values):
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
        gerst=with_added(bundle.gerst, (1, 1, 1), (6, -6)),
    )
    with pytest.raises(CheckFailed, match=r"S_3 class \(1, 1, 1\): chi_R\*chi_G' = "):
        verify_type_A_conjecture(broken, 4)


def test_power_substitution():
    f = SymFunc({(2, 1): UniPoly.constant(Fraction(3)), (1, 1): UniPoly((0, 1))}, 7)
    doubled = f.power_substitution(2)
    assert coefficient(doubled, (4, 2)) == UniPoly.constant(Fraction(3))
    assert coefficient(doubled, (2, 2)) == UniPoly((0, 0, 1))


def test_truncation_mismatch_rejected():
    with pytest.raises(InternalError, match="^mixed truncation degrees$"):
        p(1, 5) + p(1, 6)
