"""Symmetric functions in the power-sum basis with t-polynomial coefficients.

A SymFunc is a finite sum sum_lambda c_lambda(t) p_lambda truncated beyond
p-degree N.  The variable t is plethystic: p_d acts on an inner series by
p_k -> p_{dk} together with t -> t^d.  On top of the ring operations the
module builds the graded series Com = sum h_n, the t-graded Lie series
(with an optional sign twist fixed empirically against the reflection
arrangement characters of the symmetric groups), their plethysm Gerst,
and the d/dp_1 identities that force almost all of Gerst to vanish after
dividing by (1-t) and setting t = 1.

Gerst is not expanded through `plethysm`.  Since 1 + Com o Lie =
exp(sum_k p_k[Lie]/k) (Macdonald, Symmetric Functions, I.2), it is built
by the exponential recurrence n G_n = sum_j j A_j G_{n-j} over integer
class values z_lambda c_lambda(t), with one exact division by n per
degree.  `plethysm` stays the defining operation: the calibration checks
the recurrence against it at the oracle degrees n <= 4 on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import CheckFailed, InternalError
from .exact import UniPoly, centralizer_order, partitions_of, unipoly_divide_exact

PartitionKey = Tuple[int, ...]
IntPoly = Tuple[int, ...]  # integer coefficients of 1, t, t^2, ...
# one graded piece by class: chi(C_lambda)(t) = z_lambda c_lambda(t)
ClassValues = Dict[PartitionKey, IntPoly]


def _as_unipoly(c) -> UniPoly:
    if isinstance(c, UniPoly):
        return c
    return UniPoly.constant(Fraction(c))


class SymFunc:
    """Truncated symmetric function written over the power sums."""

    __slots__ = ("terms", "truncation")

    def __init__(self, terms: Dict[PartitionKey, UniPoly], truncation: int):
        clean: Dict[PartitionKey, UniPoly] = {}
        for lam, coeff in terms.items():
            key = tuple(sorted(lam, reverse=True))
            poly = _as_unipoly(coeff)
            if sum(key) > truncation or poly.is_zero():
                continue
            if key in clean:
                poly = clean[key] + poly
            if poly.is_zero():
                clean.pop(key, None)
            else:
                clean[key] = poly
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(truncation: int) -> "SymFunc":
        return SymFunc({}, truncation)

    @staticmethod
    def one(truncation: int) -> "SymFunc":
        return SymFunc({(): UniPoly.one()}, truncation)

    @staticmethod
    def p(k: int, truncation: int) -> "SymFunc":
        if k <= 0:
            raise ValueError("power sums are indexed by positive integers")
        return SymFunc({(k,): UniPoly.one()}, truncation)

    # -- ring operations ----------------------------------------------
    def _check_partner(self, other: "SymFunc"):
        if self.truncation != other.truncation:
            raise ValueError("mixed truncation degrees")

    def __add__(self, other: "SymFunc") -> "SymFunc":
        self._check_partner(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, UniPoly.zero()) + c
        return SymFunc(out, self.truncation)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + other.scale(Fraction(-1))

    def __mul__(self, other: "SymFunc") -> "SymFunc":
        self._check_partner(other)
        out: Dict[PartitionKey, UniPoly] = {}
        for lam, c in self.terms.items():
            deg_l = sum(lam)
            for mu, d in other.terms.items():
                if deg_l + sum(mu) > self.truncation:
                    continue
                key = tuple(sorted(lam + mu, reverse=True))
                prod = c * d
                out[key] = out.get(key, UniPoly.zero()) + prod
        return SymFunc(out, self.truncation)

    def scale(self, factor) -> "SymFunc":
        poly = _as_unipoly(factor)
        return SymFunc(
            {lam: c * poly for lam, c in self.terms.items()}, self.truncation
        )

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.truncation == other.truncation and self.terms == other.terms

    def __hash__(self):
        return hash((self.truncation, tuple(sorted(self.terms.items()))))

    # -- queries -------------------------------------------------------
    def coefficient(self, lam: Iterable[int]) -> UniPoly:
        key = tuple(sorted(lam, reverse=True))
        return self.terms.get(key, UniPoly.zero())

    def graded_part(self, n: int) -> "SymFunc":
        return SymFunc(
            {lam: c for lam, c in self.terms.items() if sum(lam) == n},
            self.truncation,
        )

    def has_constant_term(self) -> bool:
        return () in self.terms

    # -- transforms ----------------------------------------------------
    def omega_sign(self) -> "SymFunc":
        """Multiply the p_lambda coefficient by (-1)^(|lambda|-len(lambda))."""
        return SymFunc(
            {
                lam: c * UniPoly.constant(Fraction((-1) ** (sum(lam) - len(lam))))
                for lam, c in self.terms.items()
            },
            self.truncation,
        )

    def power_substitution(self, d: int) -> "SymFunc":
        """p_d applied plethystically: p_k -> p_{dk} and t -> t^d."""
        out: Dict[PartitionKey, UniPoly] = {}
        for lam, c in self.terms.items():
            if d * sum(lam) > self.truncation:
                continue
            key = tuple(d * part for part in lam)
            out[key] = out.get(key, UniPoly.zero()) + c.subs_t_power(d)
        return SymFunc(out, self.truncation)

    def evaluate_t(self, value) -> "SymFunc":
        val = Fraction(value)
        return SymFunc(
            {lam: UniPoly.constant(c(val)) for lam, c in self.terms.items()},
            self.truncation,
        )

    def sorted_terms(self) -> List[Tuple[PartitionKey, UniPoly]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        if not self.terms:
            return "SymFunc(0)"
        bits = [f"({c!r})*p{list(lam)}" for lam, c in self.sorted_terms()]
        return "SymFunc(" + " + ".join(bits) + ")"


def plethysm(f: SymFunc, g: SymFunc) -> SymFunc:
    """f composed with g, with p_d acting on g by p_k -> p_{dk}, t -> t^d."""
    f._check_partner(g)
    if g.has_constant_term():
        raise InternalError("inner series must have no degree-0 term")
    substituted: Dict[int, SymFunc] = {}

    def part_image(d: int) -> SymFunc:
        if d not in substituted:
            substituted[d] = g.power_substitution(d)
        return substituted[d]

    total = SymFunc.zero(f.truncation)
    for lam, c in f.terms.items():
        term = SymFunc.one(f.truncation)
        for part in lam:
            term = term * part_image(part)
            if not term.terms:
                break
        total = total + term.scale(c)
    return total


def dp1(f: SymFunc) -> SymFunc:
    """Formal partial derivative with respect to p_1."""
    out: Dict[PartitionKey, UniPoly] = {}
    for lam, c in f.terms.items():
        m = lam.count(1)
        if m == 0:
            continue
        key = lam[:-1]  # parts are sorted descending, so the last one is a 1
        scaled = c * UniPoly.constant(Fraction(m))
        out[key] = out.get(key, UniPoly.zero()) + scaled
    return SymFunc(out, f.truncation)


@lru_cache(maxsize=None)
def _mobius(d: int) -> int:
    if d == 1:
        return 1
    result, rest = 1, d
    prime = 2
    while prime * prime <= rest:
        if rest % prime == 0:
            rest //= prime
            if rest % prime == 0:
                return 0
            result = -result
        prime += 1
    if rest > 1:
        result = -result
    return result


def complete_homogeneous_sum(truncation: int) -> SymFunc:
    """Com = sum_{n>=1} h_n with h_n = sum_{lambda of n} p_lambda / z_lambda."""
    terms: Dict[PartitionKey, UniPoly] = {}
    for n in range(1, truncation + 1):
        for lam in partitions_of(n):
            terms[lam] = UniPoly.constant(Fraction(1, centralizer_order(lam)))
    return SymFunc(terms, truncation)


def _lie_class_values(truncation: int, twist: bool) -> List[ClassValues]:
    """Class values of (-t)^(n-1) Lie_n, indexed by the degree n.

    Lie_n = (1/n) sum_{d | n} mu(d) p_d^{n/d}, so its class value on
    (d^{n/d}) is mu(d) d^{n/d-1} (n/d-1)!; the twist multiplies it by
    (-1)^(n - n/d).
    """
    out: List[ClassValues] = [{} for _ in range(truncation + 1)]
    for n in range(1, truncation + 1):
        for d in range(1, n + 1):
            mu = _mobius(d)
            if n % d or mu == 0:
                continue
            m = n // d
            sign = (-1) ** (n - m) if twist else 1
            value = (-1) ** (n - 1) * mu * sign * d ** (m - 1) * factorial(m - 1)
            out[n][(d,) * m] = (0,) * (n - 1) + (value,)
    return out


def _exponent_class_values(lie: List[ClassValues], truncation: int) -> List[ClassValues]:
    """Class values of A = sum_k p_k[Lie]/k, indexed by the degree.

    p_k[p_lambda / z_lambda] / k = k^(l(lambda)-1) p_{k lambda} / z_{k lambda},
    together with t -> t^k.
    """
    acc: List[Dict[PartitionKey, List[int]]] = [{} for _ in range(truncation + 1)]
    for m in range(1, truncation + 1):
        for lam, poly in lie[m].items():
            for k in range(1, truncation // m + 1):
                stretched = [0] * (k * (len(poly) - 1) + 1)
                stretched[::k] = poly
                key = tuple(k * part for part in lam)
                _accumulate(acc[k * m], key, stretched, k ** (len(lam) - 1))
    return [{lam: _strip(row) for lam, row in d.items() if any(row)} for d in acc]


def _merge(lam: PartitionKey, mu: PartitionKey) -> Tuple[PartitionKey, int]:
    """lam union mu, and prod_i C(m_i + m'_i, m'_i): the ways to pick mu's
    cycles among those of a permutation of cycle type lam union mu."""
    key = tuple(sorted(lam + mu, reverse=True))
    ways = 1
    for part in set(mu):
        ways *= comb(key.count(part), mu.count(part))
    return key, ways


def _accumulate(
    acc: Dict[PartitionKey, List[int]], key: PartitionKey, poly, factor: int
) -> None:
    row = acc.setdefault(key, [])
    if len(row) < len(poly):
        row.extend([0] * (len(poly) - len(row)))
    for i, c in enumerate(poly):
        row[i] += factor * c


def _strip(row) -> IntPoly:
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    return tuple(row)


def _int_poly_mul(a: IntPoly, b: IntPoly) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _gerst_class_values(truncation: int, twist: bool) -> List[ClassValues]:
    """Class values of 1 + G = 1 + Com o Lie, indexed by the degree.

    1 + G = exp(A) and the degree operator is a derivation, which gives
    n G_n = sum_{j=1..n} j A_j G_{n-j}; the class value of a product is the
    sum over its splittings weighted by `_merge`.  The division by n must
    be exact.
    """
    a = _exponent_class_values(_lie_class_values(truncation, twist), truncation)
    g: List[ClassValues] = [{(): (1,)}]
    for n in range(1, truncation + 1):
        acc: Dict[PartitionKey, List[int]] = {}
        for j in range(1, n + 1):
            for lam, p in a[j].items():
                for mu, q in g[n - j].items():
                    key, ways = _merge(lam, mu)
                    _accumulate(acc, key, _int_poly_mul(p, q), j * ways)
        g_n: ClassValues = {}
        for key, row in acc.items():
            if any(c % n for c in row):
                raise InternalError(
                    f"Gerst recurrence: degree-{n} class value at {key} "
                    f"is not divisible by {n}"
                )
            poly = _strip(c // n for c in row)
            if poly:
                g_n[key] = poly
        g.append(g_n)
    return g


def _from_class_values(values: List[ClassValues], truncation: int) -> SymFunc:
    return characteristic_map(
        {lam: UniPoly(poly) for graded in values for lam, poly in graded.items()},
        truncation,
    )


def sigma_t_lie(truncation: int, twist: bool) -> SymFunc:
    """Degree-n summand (-t)^(n-1) Lie_n, optionally sign-twisted by omega.

    Lie_n = (1/n) sum_{d | n} mu(d) p_d^{n/d}; the twist multiplies the
    p_d^{n/d} term by (-1)^(n - n/d).
    """
    return _from_class_values(_lie_class_values(truncation, twist), truncation)


def geometric_inverse_one_plus_p1_t(truncation: int) -> SymFunc:
    """Expansion of 1/(1 + p_1 t) = sum_k (-1)^k t^k p_1^k."""
    return SymFunc(
        {
            (1,) * k: UniPoly.monomial(Fraction((-1) ** k), k)
            for k in range(truncation + 1)
        },
        truncation,
    )


@dataclass(frozen=True)
class SeriesBundle:
    """The calibrated series pipeline at one truncation degree."""

    truncation: int
    twist: bool
    com: SymFunc
    lie: SymFunc
    gerst: SymFunc


def make_bundle(truncation: int, twist: bool) -> SeriesBundle:
    com = complete_homogeneous_sum(truncation)
    lie = sigma_t_lie(truncation, twist)
    # index 0 is the constant 1 of exp(A), which Gerst does not have
    gerst = _from_class_values(_gerst_class_values(truncation, twist)[1:], truncation)
    return SeriesBundle(
        truncation=truncation, twist=twist, com=com, lie=lie, gerst=gerst
    )


def characteristic_map(values: Dict[PartitionKey, UniPoly], truncation: int) -> SymFunc:
    """Class function -> sum_lambda chi(C_lambda) p_lambda / z_lambda."""
    return SymFunc(
        {
            lam: poly * UniPoly.constant(Fraction(1, centralizer_order(lam)))
            for lam, poly in values.items()
        },
        truncation,
    )


def _symmetric_group_oracle(n: int, truncation: int) -> SymFunc:
    """Characteristic image of the graded reflection-arrangement character
    of the symmetric group S_n, computed from the rank n-1 root system."""
    from .groups import generate_group
    from .osalgebra import os_graded_character
    from .rootsys import build_root_system

    rs = build_root_system(f"A{n - 1}")
    group = generate_group(rs)
    gc = os_graded_character(rs, group)
    values: Dict[PartitionKey, UniPoly] = {}
    for cls, poly in zip(gc.classes, gc.chars):
        values[cls.label] = poly
    if len(values) != len(gc.classes):
        raise InternalError("duplicate class labels in the S_n oracle")
    return characteristic_map(values, truncation)


ORACLE_MAX_N = 4  # the S_n oracles of the calibration run up to this degree


def calibrate_sigma_t_lie(oracle_max_n: int = ORACLE_MAX_N) -> dict:
    """Pick the Lie-series sign variant that reproduces the S_n oracle.

    Both the plain formula and its omega-twist are expanded into Gerst at
    truncation oracle_max_n, and each expansion must equal the plethysm
    Com o Lie, the definition the recurrence replaces; the graded components for
    n = 2 .. oracle_max_n are compared with the reflection-arrangement
    characters of S_n.  A graded part of degree n does not depend on the
    truncation once it is at least n, so the decision holds for every
    truncation.  Exactly one variant must survive.
    """
    degrees = list(range(2, oracle_max_n + 1))
    surviving = {twist: make_bundle(oracle_max_n, twist) for twist in (False, True)}
    for twist, bundle in surviving.items():
        if bundle.gerst != plethysm(bundle.com, bundle.lie):
            raise InternalError(
                f"Gerst recurrence (twist={twist}) differs from plethysm(Com, Lie) "
                f"at truncation {oracle_max_n}"
            )
    detail = {}
    for n in degrees:
        oracle = _symmetric_group_oracle(n, oracle_max_n)
        for twist in list(surviving):
            piece = surviving[twist].gerst.graded_part(n)
            detail[(twist, n)] = piece == oracle
            if piece != oracle:
                del surviving[twist]
    if not surviving:
        raise CheckFailed(
            "neither Lie-series sign variant matches the S_n arrangement oracle"
        )
    if len(surviving) > 1:
        raise InternalError("sign variants agree on all oracle degrees")
    twist = next(iter(surviving))
    return {"twist": twist, "degrees": degrees, "detail": detail}


@lru_cache(maxsize=None)
def calibrated_bundle(truncation: int = 7) -> SeriesBundle:
    return make_bundle(truncation, calibrate_sigma_t_lie()["twist"])


def identity_class_value(bundle: SeriesBundle, n: int) -> UniPoly:
    """chi(identity)(t) in degree n: z_(1^n) times the p_1^n coefficient."""
    coeff = bundle.gerst.coefficient((1,) * n)
    return coeff * UniPoly.constant(Fraction(centralizer_order((1,) * n)))


def class_value(bundle: SeriesBundle, lam: PartitionKey) -> UniPoly:
    """chi(C_lambda)(t) recovered from the characteristic expansion."""
    return bundle.gerst.coefficient(lam) * UniPoly.constant(
        Fraction(centralizer_order(lam))
    )


def _first_difference(
    f: SymFunc, g: SymFunc, max_degree: int
) -> Optional[Tuple[PartitionKey, UniPoly, UniPoly]]:
    keys = {k for k in f.terms if sum(k) <= max_degree}
    keys |= {k for k in g.terms if sum(k) <= max_degree}
    for key in sorted(keys, key=lambda k: (sum(k), k)):
        a, b = f.coefficient(key), g.coefficient(key)
        if a != b:
            return key, a, b
    return None


def verify_first_derivative_identities(bundle: SeriesBundle, max_degree: int) -> dict:
    """dCom/dp_1 = 1 + Com and dLie/dp_1 = 1/(1 + p_1 t), degreewise."""
    n = bundle.truncation
    com_target = SymFunc.one(n) + bundle.com
    diff = _first_difference(dp1(bundle.com), com_target, max_degree)
    if diff is not None:
        raise CheckFailed(f"dCom/dp1 differs at p_{list(diff[0])}: {diff[1]!r} != {diff[2]!r}")
    lie_target = geometric_inverse_one_plus_p1_t(n)
    diff = _first_difference(dp1(bundle.lie), lie_target, max_degree)
    if diff is not None:
        raise CheckFailed(f"dLie/dp1 differs at p_{list(diff[0])}: {diff[1]!r} != {diff[2]!r}")
    return {"max_degree": max_degree}


def verify_second_derivative_identity(bundle: SeriesBundle, max_degree: int) -> dict:
    """d^2 Gerst / dp_1^2 = (1-t) (1+p_1 t)^(-2) (1 + Com) o Lie series."""
    n = bundle.truncation
    lhs = dp1(dp1(bundle.gerst))
    inv = geometric_inverse_one_plus_p1_t(n)
    rhs = ((SymFunc.one(n) + bundle.gerst) * (inv * inv)).scale(UniPoly((1, -1)))
    diff = _first_difference(lhs, rhs, max_degree)
    if diff is not None:
        raise CheckFailed(
            f"second-derivative identity differs at p_{list(diff[0])}: "
            f"{diff[1]!r} != {diff[2]!r}"
        )
    return {"max_degree": max_degree}


def verify_bonzero(bundle: SeriesBundle, max_degree: int) -> dict:
    """(1/(1-t)) d^2 Gerst / dp_1^2 at t=1 equals the expansion of 1/(1+p_1).

    Every coefficient of d^2 Gerst must be divisible by (1-t); after the
    division and t = 1 the only surviving partitions are the all-ones.
    Also checks that Gerst itself collapses to p_1 at t = 1.
    """
    n = bundle.truncation
    second = dp1(dp1(bundle.gerst))
    one_minus_t = UniPoly((1, -1))
    reduced: Dict[PartitionKey, UniPoly] = {}
    for lam, coeff in second.terms.items():
        try:
            reduced[lam] = unipoly_divide_exact(coeff, one_minus_t)
        except CheckFailed as exc:
            raise CheckFailed(
                f"coefficient of p_{list(lam)} in d^2 Gerst is {coeff!r}, "
                f"not divisible by 1-t"
            ) from exc
    at_one = SymFunc(
        {lam: UniPoly.constant(c(Fraction(1))) for lam, c in reduced.items()}, n
    )
    target = geometric_inverse_one_plus_p1_t(n).evaluate_t(1)
    diff = _first_difference(at_one, target, max_degree)
    if diff is not None:
        raise CheckFailed(
            f"value at t=1 differs at p_{list(diff[0])}: {diff[1]!r} != {diff[2]!r}"
        )
    gerst_at_one = bundle.gerst.evaluate_t(1)
    if gerst_at_one != SymFunc.p(1, n):
        raise CheckFailed("Gerst at t=1 is not p_1")
    return {"max_degree": max_degree, "gerst_at_one_is_p1": True}


def chi_R_typeA(lam: Iterable[int]) -> int:
    """Fixed roots of the class C_lambda of S_n: m^2 - m with m = #(1-parts)."""
    m = tuple(lam).count(1)
    return m * m - m


def verify_type_A_conjecture(bundle: SeriesBundle, max_n: int) -> dict:
    """chi_R * chi_G' supported on the identity class of S_n, n <= max_n.

    chi_G'(C_lambda) is the t=1 value of chi(C_lambda)/(1-t) read off the
    Gerst series; the identity class must give (-1)^n n! (the full count
    f = 1 for the letter-permutation types) and every other class 0.
    """
    if max_n > bundle.truncation:
        raise ValueError("series truncated below the requested degree")
    one_minus_t = UniPoly((1, -1))
    rows = []
    for n in range(2, max_n + 1):
        factorial = 1
        for i in range(2, n + 1):
            factorial *= i
        for lam in partitions_of(n):
            chi_poly = class_value(bundle, lam)
            quotient = unipoly_divide_exact(chi_poly, one_minus_t)
            gp = quotient(Fraction(1))
            product = chi_R_typeA(lam) * gp
            expected = (-1) ** n * factorial if lam == (1,) * n else 0
            if product != expected:
                raise CheckFailed(
                    f"S_{n} class {lam}: chi_R*chi_G' = {product} != {expected}"
                )
            rows.append((n, lam, product))
    return {"max_n": max_n, "classes": len(rows)}
