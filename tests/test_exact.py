"""Exact scalar and polynomial arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from coxcat.errors import DegreeOverflow, NotDivisible
from coxcat.exact import (
    BiPoly,
    GoldenNumber,
    UniPoly,
    bipoly_substitute,
    centralizer_order,
    conjugate_partition,
    format_rational,
    partitions_of,
    unipoly_divide_exact,
)

PHI = GoldenNumber(0, 1)


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

    def test_inverse(self):
        rng = random.Random(7)
        for _ in range(100):
            x = GoldenNumber(rng.randint(-9, 9), rng.randint(-9, 9))
            if x.is_zero():
                continue
            assert x * x.inverse() == GoldenNumber(1)
        assert PHI.inverse() == PHI - 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GoldenNumber(0, 0).inverse()

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
            if x.is_zero():
                assert x.sign() == 0

    def test_sign_on_nearly_cancelling_values(self):
        # phi = 1.618...; 987/610 is a convergent, so the difference is tiny
        x = GoldenNumber(Fraction(-987, 610), 1)
        assert x.sign() == 1
        y = GoldenNumber(Fraction(987, 610), -1)
        assert y.sign() == -1


class TestUniPoly:
    def test_arithmetic_and_evaluation(self):
        p = UniPoly((1, -3, 2))  # (1-t)(1-2t)
        q = UniPoly((1, -1)) * UniPoly((1, -2))
        assert p == q
        assert p(Fraction(1)) == 0
        assert p(Fraction(3)) == (1 - 3) * (1 - 6)

    def test_exact_division(self):
        p = UniPoly((1, -3, 2))
        q = unipoly_divide_exact(p, UniPoly((1, -1)))
        assert q == UniPoly((1, -2))

    def test_division_with_remainder_raises(self):
        with pytest.raises(NotDivisible):
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
        with pytest.raises(DegreeOverflow):
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
                direct = g.evaluate(x, y)
                u = x / (1 - x)
                v = x * y / (1 - x)
                expected = (1 - x) ** n * f.evaluate(u, v)
                assert direct == expected

    def test_substitution_rejects_terms_beyond_degree(self):
        f = BiPoly({(2, 1): 1})
        with pytest.raises(DegreeOverflow):
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
