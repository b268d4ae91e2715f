"""The Com o Lie series as integer class values, and power-sum plethysm.

A graded series sum_lambda c_lambda(t) p_lambda is held by its class values
chi(C_lambda)(t) = z_lambda c_lambda(t), one integer polynomial in t per
partition (`ClassValues`).  The bundle holds Com = sum h_n, the t-graded
Lie series (with an optional sign twist fixed empirically against the
reflection arrangement characters of the symmetric groups) and Gerst =
Com o Lie this way, and checks the d/dp_1 identities that force almost all
of Gerst to vanish after dividing by (1-t) and setting t = 1.  On class
values d/dp_1 is the shift lambda -> lambda u (1).

Gerst is built by the exponential recurrence: 1 + Com o Lie =
exp(sum_k p_k[Lie]/k) (Macdonald, Symmetric Functions, I.2) gives
n G_n = sum_j j A_j G_{n-j}, with one exact division by n per degree.
SymFunc, a truncated sum over the power sums with Fraction coefficients,
is the ring that defines `plethysm` (p_d acts on an inner series by
p_k -> p_{dk} together with t -> t^d); the calibration maps the class
values through `characteristic_map` and checks the recurrence against the
plethysm at the oracle degrees n <= 4 on every run.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Tuple

from .errors import CheckFailed, InternalError, UsageError
from .exact import (
    UniPoly, add_scaled, centralizer_order, command_cache, divide_one_minus_t, int_poly_mul,
    partitions_of, stretch, strip_zeros,
)

PartitionKey = Tuple[int, ...]
IntPoly = Tuple[int, ...]  # integer coefficients of 1, t, t^2, ...
# a series by class: chi(C_lambda)(t) = z_lambda c_lambda(t); a missing class is 0
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

    # -- ring operations ----------------------------------------------
    def _check_partner(self, other: "SymFunc"):
        if self.truncation != other.truncation:
            raise InternalError("mixed truncation degrees")

    def __add__(self, other: "SymFunc") -> "SymFunc":
        self._check_partner(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, UniPoly.zero()) + c
        return SymFunc(out, self.truncation)

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
    def has_constant_term(self) -> bool:
        return () in self.terms

    # -- transforms ----------------------------------------------------
    def power_substitution(self, d: int) -> "SymFunc":
        """p_d applied plethystically: p_k -> p_{dk} and t -> t^d."""
        out: Dict[PartitionKey, UniPoly] = {}
        for lam, c in self.terms.items():
            if d * sum(lam) > self.truncation:
                continue
            key = tuple(d * part for part in lam)
            out[key] = out.get(key, UniPoly.zero()) + c.subs_t_power(d)
        return SymFunc(out, self.truncation)

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


def _classes(max_degree: int) -> Iterator[PartitionKey]:
    """Every partition of degree 0 .. max_degree, degree by degree."""
    for n in range(max_degree + 1):
        yield from partitions_of(n)


def _lie_class_values(truncation: int, twist: bool) -> ClassValues:
    """Class values of sum_n (-t)^(n-1) Lie_n, optionally sign-twisted by omega.

    Lie_n = (1/n) sum_{d | n} mu(d) p_d^{n/d}, so its class value on
    (d^{n/d}) is mu(d) d^{n/d-1} (n/d-1)!; the twist multiplies it by
    (-1)^(n - n/d).
    """
    out: ClassValues = {}
    for n in range(1, truncation + 1):
        for d in range(1, n + 1):
            mu = _mobius(d)
            if n % d or mu == 0:
                continue
            m = n // d
            sign = (-1) ** (n - m) if twist else 1
            value = (-1) ** (n - 1) * mu * sign * d ** (m - 1) * factorial(m - 1)
            out[(d,) * m] = (0,) * (n - 1) + (value,)
    return out


def _exponent_class_values(lie: ClassValues, truncation: int) -> List[ClassValues]:
    """Class values of A = sum_k p_k[Lie]/k, indexed by the degree.

    p_k[p_lambda / z_lambda] / k = k^(l(lambda)-1) p_{k lambda} / z_{k lambda},
    together with t -> t^k.
    """
    acc: List[Dict[PartitionKey, List[int]]] = [{} for _ in range(truncation + 1)]
    for lam, poly in lie.items():
        m = sum(lam)
        for k in range(1, truncation // m + 1):
            key = tuple(k * part for part in lam)
            add_scaled(acc[k * m].setdefault(key, []), stretch(poly, k), k ** (len(lam) - 1))
    return [{lam: strip_zeros(row) for lam, row in d.items() if any(row)} for d in acc]


def _merge(lam: PartitionKey, mu: PartitionKey) -> Tuple[PartitionKey, int]:
    """lam union mu, and prod_i C(m_i + m'_i, m'_i): the ways to pick mu's
    cycles among those of a permutation of cycle type lam union mu."""
    key = tuple(sorted(lam + mu, reverse=True))
    ways = 1
    for part in set(mu):
        ways *= comb(key.count(part), mu.count(part))
    return key, ways


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
                    add_scaled(acc.setdefault(key, []), int_poly_mul(p, q), j * ways)
        g_n: ClassValues = {}
        for key, row in acc.items():
            if any(c % n for c in row):
                raise InternalError(
                    f"Gerst recurrence: degree-{n} class value at {key} "
                    f"is not divisible by {n}"
                )
            poly = strip_zeros(c // n for c in row)
            if poly:
                g_n[key] = poly
        g.append(g_n)
    return g


def characteristic_map(values: ClassValues, truncation: int) -> SymFunc:
    """Class function -> sum_lambda chi(C_lambda) p_lambda / z_lambda."""
    return SymFunc(
        {
            lam: UniPoly(Fraction(c, centralizer_order(lam)) for c in poly)
            for lam, poly in values.items()
        },
        truncation,
    )


class SeriesBundle(NamedTuple):
    """The calibrated series at one truncation degree, as class values on
    every partition of degree 1 .. truncation (a missing class is 0)."""

    truncation: int
    twist: bool
    com: ClassValues
    lie: ClassValues
    gerst: ClassValues


def make_bundle(truncation: int, twist: bool) -> SeriesBundle:
    # Com = sum_n h_n is the trivial character in every degree;
    # index 0 of the recurrence is the constant 1 of exp(A), which Gerst does not have
    gerst = _gerst_class_values(truncation, twist)[1:]
    return SeriesBundle(
        truncation=truncation,
        twist=twist,
        com={lam: (1,) for lam in _classes(truncation) if lam},
        lie=_lie_class_values(truncation, twist),
        gerst={lam: poly for graded in gerst for lam, poly in graded.items()},
    )


def _symmetric_group_oracle(n: int) -> ClassValues:
    """Graded reflection-arrangement character of the symmetric group S_n by
    class, computed from the NBC bases of the rank n-1 root system."""
    from .osalgebra import nbc_graded_character
    from .rootsys import build_root_system

    gc = nbc_graded_character(build_root_system(f"A{n - 1}"))
    values = {cls.label: poly.coeffs for cls, poly in zip(gc.classes, gc.chars)}
    if len(values) != len(gc.classes):
        raise InternalError("duplicate class labels in the S_n oracle")
    return values


ORACLE_MAX_N = 4  # the S_n oracles of the calibration run up to this degree


def calibrate_sigma_t_lie() -> dict:
    """Pick the Lie-series sign variant that reproduces the S_n oracle.

    Both the plain formula and its omega-twist are expanded into Gerst at
    truncation ORACLE_MAX_N, and each expansion must equal the plethysm
    Com o Lie, the definition the recurrence replaces; the class values in
    degrees n = 2 .. ORACLE_MAX_N are compared with the reflection-arrangement
    characters of S_n.  A graded part of degree n does not depend on the
    truncation once it is at least n, so the decision holds for every
    truncation.  Exactly one variant must survive.
    """
    degrees = list(range(2, ORACLE_MAX_N + 1))
    surviving = {twist: make_bundle(ORACLE_MAX_N, twist) for twist in (False, True)}
    for twist, bundle in surviving.items():
        com, lie, gerst = (
            characteristic_map(values, ORACLE_MAX_N)
            for values in (bundle.com, bundle.lie, bundle.gerst)
        )
        if gerst != plethysm(com, lie):
            raise InternalError(
                f"Gerst recurrence (twist={twist}) differs from plethysm(Com, Lie) "
                f"at truncation {ORACLE_MAX_N}"
            )
    detail = {}
    for n in degrees:
        oracle = _symmetric_group_oracle(n)
        for twist in list(surviving):
            gerst = surviving[twist].gerst
            piece = {lam: poly for lam, poly in gerst.items() if sum(lam) == n}
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


@command_cache
def calibrated_bundle(truncation: int) -> SeriesBundle:
    return make_bundle(truncation, calibrate_sigma_t_lie()["twist"])


def class_value(bundle: SeriesBundle, lam: PartitionKey) -> UniPoly:
    """chi(C_lambda)(t) of Gerst, for a partition lam in descending order."""
    return UniPoly(bundle.gerst.get(lam, ()))


# -- the identities, on class values ------------------------------------------
# d/dp_1 sends p_lambda / z_lambda to m_1(lambda) p_{lambda - 1} / z_lambda, and
# z_{lambda u 1} = z_lambda (m_1(lambda) + 1), so the class value of dF/dp_1 on
# lambda is that of F on lambda u (1) (Macdonald, Symmetric Functions, I.7).


def _d_dp1(values: ClassValues, k: int = 1) -> Callable[[PartitionKey], IntPoly]:
    """The k-th derivative by p_1: its class value on lam is values[lam u (1^k)]."""
    return lambda lam: values.get(lam + (1,) * k, ())


def _inverse_power(k: int, lam: PartitionKey) -> IntPoly:
    """Class value of (1 + p_1 t)^(-k): (-1)^j (j+k-1)!/(k-1)! t^j on (1^j), else 0."""
    j = len(lam)
    if lam != (1,) * j:
        return ()
    return (0,) * j + ((-1) ** j * factorial(j + k - 1) // factorial(k - 1),)


def _require_equal(what: str, lhs: Callable, rhs: Callable, max_degree: int) -> None:
    """Raise CheckFailed at the first class of degree <= max_degree on which
    the class values lhs(lam) and rhs(lam) differ."""
    for lam in _classes(max_degree):
        a, b = lhs(lam), rhs(lam)
        if a != b:
            raise CheckFailed(f"{what} differs on class {lam}: {a} != {b}")


def verify_first_derivative_identities(bundle: SeriesBundle, max_degree: int) -> dict:
    """dCom/dp_1 = 1 + Com and dLie/dp_1 = 1/(1 + p_1 t), degreewise."""
    one_plus_com = {**bundle.com, (): (1,)}
    _require_equal(
        "dCom/dp1", _d_dp1(bundle.com), lambda lam: one_plus_com.get(lam, ()), max_degree
    )
    _require_equal(
        "dLie/dp1", _d_dp1(bundle.lie), lambda lam: _inverse_power(1, lam), max_degree
    )
    return {"max_degree": max_degree}


def verify_second_derivative_identity(bundle: SeriesBundle, max_degree: int) -> dict:
    """d^2 Gerst / dp_1^2 = (1-t) (1+p_1 t)^(-2) (1 + Com) o Lie series.

    The factor (1+p_1 t)^(-2) lives on the classes (1^k), so the product's
    class value on lam sums over the splittings lam = mu u (1^k).
    """
    one_plus_gerst = {**bundle.gerst, (): (1,)}

    def rhs(lam: PartitionKey) -> IntPoly:
        row: List[int] = []
        for k in range(lam.count(1) + 1):
            mu = lam[: len(lam) - k]  # the 1-parts come last
            _, ways = _merge(mu, (1,) * k)
            term = int_poly_mul(_inverse_power(2, (1,) * k), one_plus_gerst.get(mu, ()))
            add_scaled(row, term, ways)
        return strip_zeros(int_poly_mul((1, -1), row))

    _require_equal("second-derivative identity", _d_dp1(bundle.gerst, 2), rhs, max_degree)
    return {"max_degree": max_degree}


def verify_bonzero(bundle: SeriesBundle, max_degree: int) -> dict:
    """(1/(1-t)) d^2 Gerst / dp_1^2 at t=1 equals the expansion of 1/(1+p_1).

    Every class value of d^2 Gerst must be divisible by (1-t); after the
    division and t = 1 the only surviving classes are the (1^j).
    Also checks that Gerst itself collapses to p_1 at t = 1: its class
    values sum to 1 on (1) and to 0 on every other class.
    """
    second = _d_dp1(bundle.gerst, 2)
    at_one: Dict[PartitionKey, int] = {}
    for lam in _classes(bundle.truncation - 2):
        quotient = divide_one_minus_t(second(lam))
        if quotient is None:
            raise CheckFailed(
                f"d^2 Gerst on class {lam} is {second(lam)}, not divisible by 1-t"
            )
        at_one[lam] = sum(quotient)
    _require_equal(
        "value at t=1",
        lambda lam: at_one.get(lam, 0),
        lambda lam: sum(_inverse_power(1, lam)),
        max_degree,
    )
    if {lam: sum(poly) for lam, poly in bundle.gerst.items() if sum(poly)} != {(1,): 1}:
        raise CheckFailed("Gerst at t=1 is not p_1")
    return {"max_degree": max_degree, "gerst_at_one_is_p1": True}


def chi_R_typeA(lam: Iterable[int]) -> int:
    """Fixed roots of the class C_lambda of S_n: m^2 - m with m = #(1-parts)."""
    m = tuple(lam).count(1)
    return m * m - m


def verify_type_A_conjecture(bundle: SeriesBundle, max_n: int) -> dict:
    """chi_R * chi_G' supported on the identity class of S_n, n <= max_n.

    chi_G'(C_lambda) is the t=1 value of chi(C_lambda)/(1-t) read off the
    Gerst class values; the identity class must give (-1)^n n! (the full count
    f = 1 for the letter-permutation types) and every other class 0.
    """
    if max_n > bundle.truncation:
        raise UsageError("series truncated below the requested degree")
    classes = 0
    for n in range(2, max_n + 1):
        for lam in partitions_of(n):
            chi = bundle.gerst.get(lam, ())
            quotient = divide_one_minus_t(chi)
            if quotient is None:
                raise CheckFailed(f"S_{n} class {lam}: chi = {chi} is not divisible by 1-t")
            product = chi_R_typeA(lam) * sum(quotient)
            expected = (-1) ** n * factorial(n) if lam == (1,) * n else 0
            if product != expected:
                raise CheckFailed(
                    f"S_{n} class {lam}: chi_R*chi_G' = {product} != {expected}"
                )
            classes += 1
    return {"max_n": max_n, "classes": classes}
