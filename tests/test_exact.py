"""Exact scalar and polynomial arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcat.errors import CheckFailed, InternalError
from coxcat.exact import (
    BiPoly,
    GoldenNumber,
    UniPoly,
    bipoly_substitute,
    centralizer_order,
    conjugate_partition,
    divide_one_minus_t,
    format_rational,
    partitions_of,
    unipoly_divide_exact,
)

PHI = GoldenNumber(0, 1)


def horner(poly, value):
    """poly(value), for a UniPoly at a scalar."""
    acc = value * 0
    for c in reversed(poly.coeffs):
        acc = acc * value + c
    return acc


def bipoly_at(f, x, y):
    """f(x, y), for a BiPoly at two scalars, summed term by term."""
    return sum(c * x ** k * y ** l for (k, l), c in f.terms.items())


class TestGoldenNumber:
    def test_defining_relation(self):
        assert PHI * PHI == PHI + 1

    def test_ring_axioms_on_random_values(self):
        rng = random.Random(20240817)
        for _ in range(200):
            x, y, z = (
                GoldenNumber(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                for _ in range(3)
            )
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x
            assert x * y == y * x

    def test_sign_matches_high_precision_float(self):
        rng = random.Random(99)
        phi_float = (1 + math.sqrt(5)) / 2
        for _ in range(500):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            x = GoldenNumber(a, b)
            approx = float(a) + float(b) * phi_float
            if abs(approx) > 1e-9:
                assert x.sign() == (1 if approx > 0 else -1)
            if x == 0:
                assert x.sign() == 0

    def test_sign_on_nearly_cancelling_values(self):
        # phi = 1.618...; 987/610 is a convergent, so the difference is tiny
        x = GoldenNumber(Fraction(-987, 610), 1)
        assert x.sign() == 1
        y = GoldenNumber(Fraction(987, 610), -1)
        assert y.sign() == -1

    def test_ordering_against_integers(self):
        assert GoldenNumber(0, 1) > 1 and 2 > GoldenNumber(0, 1)
        assert GoldenNumber(-2, 1) <= 0 <= GoldenNumber(-1, 1)
        assert GoldenNumber(3) >= 3 and not GoldenNumber(3) > 3

    def test_no_mixing_with_rationals(self):
        # Z[phi] is not closed under division, so a rational operand is refused
        # instead of being compared or combined silently
        for op in (lambda x, q: x >= q, lambda x, q: x > q, lambda x, q: x + q,
                   lambda x, q: q * x):
            with pytest.raises(TypeError):
                op(GoldenNumber(1), Fraction(1, 2))

    def test_sign_beyond_float_precision(self):
        # F(k) phi - F(k+1) = -(1 - phi)**k, so the sign alternates while the
        # value shrinks like phi**-k, far below any float's resolution
        fib = [0, 1]
        while len(fib) < 102:
            fib.append(fib[-1] + fib[-2])
        for k in range(101):
            assert GoldenNumber(-fib[k + 1], fib[k]).sign() == (-1) ** (k + 1)
            assert GoldenNumber(fib[k + 1], -fib[k]).sign() == (-1) ** k


class TestUniPoly:
    def test_arithmetic_and_evaluation(self):
        p = UniPoly((1, -3, 2))  # (1-t)(1-2t)
        q = UniPoly((1, -1)) * UniPoly((1, -2))
        assert p == q
        assert horner(p, Fraction(1)) == 0
        assert horner(p, Fraction(3)) == (1 - 3) * (1 - 6)

    def test_exact_division(self):
        p = UniPoly((1, -3, 2))
        q = unipoly_divide_exact(p, UniPoly((1, -1)))
        assert q == UniPoly((1, -2))

    def test_division_with_remainder_raises(self):
        with pytest.raises(CheckFailed, match="is not divisible by"):
            unipoly_divide_exact(UniPoly((1, 1)), UniPoly((1, -1)))

    def test_division_by_zero_raises(self):
        with pytest.raises(ValueError):
            unipoly_divide_exact(UniPoly((1,)), UniPoly.zero())

    def test_division_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(50):
            a = UniPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 5))))
            b = UniPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4))))
            if b.is_zero():
                continue
            assert unipoly_divide_exact(a * b, b) == a

    def test_power_substitution(self):
        p = UniPoly((1, 2, 3))
        assert p.subs_t_power(2) == UniPoly((1, 0, 2, 0, 3))

    def test_json_round_trip_shape(self):
        p = UniPoly((Fraction(1, 2), -1))
        assert p.to_json() == {"coeffs": ["1/2", "-1/1"]}


class TestBiPoly:
    def test_coefficient_and_product(self):
        f = BiPoly({(1, 0): Fraction(2), (0, 1): Fraction(3)})
        g = f * f
        assert g.coefficient(2, 0) == 4
        assert g.coefficient(1, 1) == 12
        assert g.coefficient(0, 2) == 9

    def test_reverse_x_palindrome(self):
        f = BiPoly({(0, 0): 1, (1, 0): 3, (2, 0): 1})
        assert f == f.reverse_x(2)

    def test_reverse_x_overflow(self):
        f = BiPoly({(3, 0): 1})
        with pytest.raises(InternalError, match="x-degree exceeds 2"):
            f.reverse_x(2)

    def test_substitution_matches_rational_point_evaluation(self):
        # H(x, y) = (1-x)^n F(x/(1-x), xy/(1-x)) checked at random rational points
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 4)
            terms = {}
            for _ in range(5):
                k = rng.randint(0, n)
                l = rng.randint(0, n - k)  # substitution needs k + l <= n
                terms[(k, l)] = Fraction(rng.randint(-5, 5))
            f = BiPoly(terms)
            g = bipoly_substitute(f, n)
            for _ in range(5):
                x = Fraction(rng.randint(-7, 7), rng.randint(2, 9))
                y = Fraction(rng.randint(-7, 7), rng.randint(2, 9))
                if x == 1:
                    continue
                direct = bipoly_at(g, x, y)
                u = x / (1 - x)
                v = x * y / (1 - x)
                expected = (1 - x) ** n * bipoly_at(f, u, v)
                assert direct == expected

    def test_substitution_rejects_terms_beyond_degree(self):
        f = BiPoly({(2, 1): 1})
        with pytest.raises(InternalError, match=r"term x\^2 y\^1 exceeds the budget n=2"):
            bipoly_substitute(f, 2)


class TestPartitions:
    def test_partitions_of_small(self):
        assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]
        assert list(partitions_of(0)) == [()]
        assert len(list(partitions_of(7))) == 15

    def test_centralizer_orders_sum_to_group_order(self):
        for n in range(1, 8):
            total = sum(
                Fraction(1, centralizer_order(lam)) for lam in partitions_of(n)
            )
            assert total == Fraction(1), "class sizes must fill the group"
        assert centralizer_order((2, 1, 1)) == 4

    def test_conjugate_involution(self):
        assert conjugate_partition((2, 1, 1)) == (3, 1)
        assert conjugate_partition((3, 0, 1, 2)) == (3, 2, 1)
        for lam in partitions_of(6):
            assert conjugate_partition(conjugate_partition(lam)) == lam


def test_format_rational_always_slash():
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(Fraction(-2, 6)) == "-1/3"


# -- integer coefficients and the (1-t) quotient ------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
int_coeffs = st.lists(st.integers(-60, 60), max_size=8)
rational_coeffs = st.lists(
    st.one_of(st.integers(-60, 60), st.fractions(max_denominator=9)), max_size=8
)
# k, l <= 3, so bipoly_substitute(f, 6) and reverse_x(6) accept every term
int_bipolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-60, 60), max_size=8
).map(BiPoly)
ONE_MINUS_T = UniPoly((1, -1))


def _all_int(coeffs) -> bool:
    return all(type(c) is int for c in coeffs)


def _as_fractions(poly):
    if isinstance(poly, UniPoly):
        return UniPoly(Fraction(c) for c in poly.coeffs)
    return BiPoly({key: Fraction(c) for key, c in poly.terms.items()})


@PROPERTY
@given(rational_coeffs)
def test_divide_one_minus_t_undoes_multiplication_by_one_minus_t(q):
    p = ONE_MINUS_T * UniPoly(q)
    quotient = divide_one_minus_t(p.coeffs)
    assert UniPoly(quotient) == UniPoly(q) == unipoly_divide_exact(p, ONE_MINUS_T)
    if _all_int(q):
        assert _all_int(quotient)


@PROPERTY
@given(rational_coeffs)
def test_divide_one_minus_t_refuses_exactly_when_p_of_one_is_not_zero(coeffs):
    quotient = divide_one_minus_t(coeffs)
    assert (quotient is None) == (sum(coeffs) != 0)
    if quotient is None:
        with pytest.raises(CheckFailed, match="is not divisible by"):
            unipoly_divide_exact(UniPoly(coeffs), ONE_MINUS_T)
    else:
        assert UniPoly(quotient) == unipoly_divide_exact(UniPoly(coeffs), ONE_MINUS_T)


@PROPERTY
@given(int_coeffs, int_coeffs)
def test_integer_unipoly_arithmetic_matches_fractions_and_stays_int(a, b):
    a, b = UniPoly(a), UniPoly(b)
    fa, fb = _as_fractions(a), _as_fractions(b)
    for got, want in [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)]:
        assert got == want
        assert _all_int(got.coeffs)


@PROPERTY
@given(int_bipolys, int_bipolys)
def test_integer_bipoly_arithmetic_matches_fractions_and_stays_int(f, g):
    ff, fg = _as_fractions(f), _as_fractions(g)
    pairs = [
        (f + g, ff + fg),
        (f - g, ff - fg),
        (f * g, ff * fg),
        (f.reverse_x(6), ff.reverse_x(6)),
        (bipoly_substitute(f, 6), bipoly_substitute(ff, 6)),
    ]
    for got, want in pairs:
        assert got == want
        assert _all_int(got.terms.values())


@PROPERTY
@given(int_coeffs, int_coeffs.filter(any))
def test_exact_division_of_integer_polynomials_returns_no_float(a, b):
    a, b = UniPoly(a), UniPoly(b)
    quotient = unipoly_divide_exact(a * b, b)
    assert quotient == a
    assert not any(isinstance(c, float) for c in quotient.coeffs)
