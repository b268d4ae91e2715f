"""Graded characters of the reflection-arrangement cohomology.

Hyperplanes are the positive roots in canonical order.  The algebra is
presented on no-broken-circuit (NBC) monomials; a group element acts by
permuting hyperplanes, sorting the image monomial (with the permutation
sign), and rewriting non-NBC monomials through the circuit relations
sum_j (-1)^j e_{C minus c_j} = 0.  All linear algebra is exact, over the
rationals or over Q(phi) for the H types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CapacityExceeded, ConjectureFails, LemmaViolation, NotDivisible
from .exact import GoldenNumber, UniPoly, unipoly_divide_exact
from .groups import (
    ConjugacyClass,
    GroupData,
    chi_R,
    generate_group,
    has_positive_short_cycle,
)
from .rootsys import RootSystem

_MAX_HYPERPLANES = 16
_MAX_TOTAL_DIM = 2_000


def _is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, GoldenNumber) else x == 0


class VectorMatroid:
    """Linear dependence oracle for a list of exact vectors."""

    def __init__(self, vectors: Sequence[tuple]):
        self.vectors = [tuple(v) for v in vectors]
        self.dim = len(self.vectors[0]) if self.vectors else 0

    def _solve(self, columns: Sequence[int], target: int) -> Optional[list]:
        """Coefficients expressing vectors[target] over the columns, or None."""
        rows = self.dim
        k = len(columns)
        aug = [
            [self.vectors[c][r] for c in columns] + [self.vectors[target][r]]
            for r in range(rows)
        ]
        pivot_cols: List[int] = []
        r = 0
        for col in range(k):
            pivot = None
            for rr in range(r, rows):
                if not _is_zero(aug[rr][col]):
                    pivot = rr
                    break
            if pivot is None:
                continue
            aug[r], aug[pivot] = aug[pivot], aug[r]
            inv = (
                aug[r][col].inverse()
                if isinstance(aug[r][col], GoldenNumber)
                else Fraction(1) / aug[r][col]
            )
            aug[r] = [x * inv for x in aug[r]]
            for rr in range(rows):
                if rr != r and not _is_zero(aug[rr][col]):
                    f = aug[rr][col]
                    aug[rr] = [a - f * b for a, b in zip(aug[rr], aug[r])]
            pivot_cols.append(col)
            r += 1
        # inconsistent rows mean the target is outside the span
        for rr in range(r, rows):
            if not _is_zero(aug[rr][k]):
                return None
        coeffs = [self.vectors[0][0] * 0] * k
        for row, col in enumerate(pivot_cols):
            coeffs[col] = aug[row][k]
        return coeffs

    def is_independent(self, subset: Tuple[int, ...]) -> bool:
        if not subset:
            return True
        body, last = subset[:-1], subset[-1]
        if not self.is_independent(body):
            return False
        return self._solve(body, last) is None

    def fundamental_circuit(
        self, base: Tuple[int, ...], extra: int
    ) -> Optional[Tuple[int, ...]]:
        """Circuit inside base+{extra} when extra is in the span of base."""
        coeffs = self._solve(base, extra)
        if coeffs is None:
            return None
        members = [extra] + [c for c, v in zip(base, coeffs) if not _is_zero(v)]
        return tuple(sorted(members))


class UniformRank2Matroid:
    """Dependence oracle for m distinct lines through the origin of a plane."""

    def __init__(self, n: int):
        self.n = n

    def is_independent(self, subset: Tuple[int, ...]) -> bool:
        return len(subset) <= 2

    def fundamental_circuit(
        self, base: Tuple[int, ...], extra: int
    ) -> Optional[Tuple[int, ...]]:
        if len(base) < 2:
            return None  # two distinct lines are never parallel
        return tuple(sorted((extra,) + tuple(base[:2])))


def _merge_sign(u: tuple, v: tuple) -> Tuple[int, tuple]:
    """Sign of sorting the concatenation of two disjoint sorted tuples."""
    inversions = sum(1 for a in u for b in v if a > b)
    return (-1) ** inversions, tuple(sorted(u + v))


class OSAlgebra:
    """NBC bases and straightening for one hyperplane arrangement."""

    def __init__(self, matroid, n_hyperplanes: int, rank: int):
        self.matroid = matroid
        self.n = n_hyperplanes
        self.rank = rank
        self._straighten_cache: Dict[tuple, Dict[tuple, int]] = {}
        self.nbc: List[List[tuple]] = [[()]]
        for k in range(1, rank + 1):
            level = []
            for base in self.nbc[k - 1]:
                start = base[-1] + 1 if base else 0
                for c in range(start, self.n):
                    cand = base + (c,)
                    if self.matroid.is_independent(cand) and not self._has_broken_circuit(cand):
                        level.append(cand)
            self.nbc.append(level)
        self.dims = tuple(len(level) for level in self.nbc)
        self._nbc_sets = [set(level) for level in self.nbc]

    def _has_broken_circuit(self, subset: tuple) -> bool:
        for c0 in range(subset[-1]):
            if c0 in subset:
                continue
            tail = tuple(x for x in subset if x > c0)
            if tail and not self.matroid.is_independent((c0,) + tail):
                return True
        return False

    def is_nbc(self, subset: tuple) -> bool:
        k = len(subset)
        return k <= self.rank and subset in self._nbc_sets[k]

    def straighten(self, monomial: tuple) -> Dict[tuple, int]:
        """Express an independent sorted monomial over the NBC basis."""
        cached = self._straighten_cache.get(monomial)
        if cached is not None:
            return cached
        if not self.matroid.is_independent(monomial):
            result: Dict[tuple, int] = {}
        elif self.is_nbc(monomial):
            result = {monomial: 1}
        else:
            result = self._rewrite(monomial)
        self._straighten_cache[monomial] = result
        return result

    def _rewrite(self, monomial: tuple) -> Dict[tuple, int]:
        circuit = None
        for c0 in range(monomial[-1]):
            if c0 in monomial:
                continue
            tail = tuple(x for x in monomial if x > c0)
            if tail:
                circuit = self.matroid.fundamental_circuit(tail, c0)
                if circuit is not None:
                    break
        if circuit is None:
            raise AssertionError("non-NBC independent monomial without a circuit")
        body = circuit[1:]  # circuit[0] = c0 is its minimum
        rest = tuple(x for x in monomial if x not in body)
        sign0, merged = _merge_sign(body, rest)
        if merged != monomial:
            raise AssertionError("circuit body is not inside the monomial")
        out: Dict[tuple, int] = {}
        for j in range(1, len(circuit)):
            replaced = tuple(c for idx, c in enumerate(circuit) if idx != j)
            sign_j, term = _merge_sign(replaced, rest)
            coeff = sign0 * (-1) ** (j + 1) * sign_j
            for basis, c in self.straighten(term).items():
                out[basis] = out.get(basis, 0) + coeff * c
        return {k: v for k, v in out.items() if v}

    def act_on_monomial(self, hmap: Sequence[int], monomial: tuple) -> Dict[tuple, int]:
        """Image of a basis monomial under a hyperplane permutation."""
        image = tuple(hmap[x] for x in monomial)
        perm_sign = _sort_sign(image)
        result: Dict[tuple, int] = {}
        for basis, c in self.straighten(tuple(sorted(image))).items():
            result[basis] = result.get(basis, 0) + perm_sign * c
        return result

    def degree_trace(self, hmap: Sequence[int], k: int) -> int:
        total = 0
        for monomial in self.nbc[k]:
            total += self.act_on_monomial(hmap, monomial).get(monomial, 0)
        return total


def _sort_sign(seq: tuple) -> int:
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return (-1) ** inversions


def _hyperplane_matroid(rs: RootSystem):
    if rs.family == "I":
        return UniformRank2Matroid(rs.n_positive)
    return VectorMatroid(rs.positive_roots)


def hyperplane_map(rs: RootSystem, g: tuple) -> tuple:
    """Induced permutation of hyperplanes (unsigned roots)."""
    N = rs.n_positive
    return tuple(g[x] if g[x] < N else g[x] - N for x in range(N))


@dataclass(frozen=True)
class GradedCharacter:
    rs: RootSystem
    classes: Tuple[ConjugacyClass, ...]
    chars: Tuple[UniPoly, ...]
    dims: Tuple[int, ...]

    def identity_index(self) -> int:
        identity = self.rs.identity_table()
        for i, cls in enumerate(self.classes):
            if cls.rep == identity:
                return i
        raise AssertionError("identity class missing")


def os_capacity_ok(rs: RootSystem) -> bool:
    return rs.n_positive <= _MAX_HYPERPLANES and rs.order <= _MAX_TOTAL_DIM


def build_os_algebra(rs: RootSystem) -> OSAlgebra:
    if not os_capacity_ok(rs):
        raise CapacityExceeded(
            f"{rs.label}: needs |hyperplanes| <= {_MAX_HYPERPLANES} and "
            f"total dimension <= {_MAX_TOTAL_DIM}"
        )
    algebra = OSAlgebra(_hyperplane_matroid(rs), rs.n_positive, rs.rank)
    expected = _elementary_symmetric(rs.exponents)
    if algebra.dims != expected:
        raise AssertionError(
            f"{rs.label}: NBC dimensions {algebra.dims} != e_k values {expected}"
        )
    return algebra


def _elementary_symmetric(values: Sequence[int]) -> tuple:
    coeffs = [1]
    for v in values:
        coeffs = [a + v * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def os_graded_character(rs: RootSystem, group: GroupData) -> GradedCharacter:
    """Per-class graded character chi(g)(t) = sum_k tr(g|OS_k) (-t)^k."""
    algebra = build_os_algebra(rs)
    chars = []
    for cls in group.classes:
        hmap = hyperplane_map(rs, cls.rep)
        coeffs = [
            (-1) ** k * algebra.degree_trace(hmap, k) for k in range(rs.rank + 1)
        ]
        chars.append(UniPoly(coeffs))
    gc = GradedCharacter(
        rs=rs, classes=group.classes, chars=tuple(chars), dims=algebra.dims
    )
    identity_char = gc.chars[gc.identity_index()]
    expected = UniPoly.one()
    for e in rs.exponents:
        expected = expected * UniPoly((1, -e))
    if identity_char != expected:
        raise AssertionError(
            f"{rs.label}: identity character {identity_char!r} != {expected!r}"
        )
    return gc


def g_prime_character(gc: GradedCharacter) -> List[Fraction]:
    """chi_{G'}(C): divide each class character by (1-t), evaluate at t=1."""
    one_minus_t = UniPoly((1, -1))
    out = []
    for cls, poly in zip(gc.classes, gc.chars):
        try:
            quotient = unipoly_divide_exact(poly, one_minus_t)
        except NotDivisible as exc:
            raise NotDivisible(
                f"{gc.rs.label} class {cls.describe()}: {poly!r} not divisible by 1-t"
            ) from exc
        out.append(quotient(Fraction(1)))
    return out


def quotient_traces(gc: GradedCharacter, index: int) -> List[Fraction]:
    """Degree-by-degree traces on the (1-t)-quotient for one class.

    With the alternating character convention, the degree-k trace is
    (-1)^k times the t^k coefficient of chi/(1-t).
    """
    quotient = unipoly_divide_exact(gc.chars[index], UniPoly((1, -1)))
    return [
        (-1) ** k * quotient.coefficient(k) for k in range(gc.rs.rank + 1)
    ]


def verify_main_conjecture(rs: RootSystem) -> dict:
    """Class-by-class check of chi_R * chi_G' = (-1)^(n-1) f_W chi_Reg."""
    group = generate_group(rs)
    chi_gp = g_prime_character(os_graded_character(rs, group))
    return _check_main_classes(rs, group, chi_R(rs, group.classes), chi_gp)


def _check_main_classes(
    rs: RootSystem, group: GroupData, chi_r: Sequence[int], chi_gp: Sequence[Fraction]
) -> dict:
    """The class-by-class loop of verify_main_conjecture, on values already built."""
    f_count = rs.full_reflection_count()
    n = rs.rank
    identity = rs.identity_table()
    rows = []
    for cls, r_val, gp_val in zip(group.classes, chi_r, chi_gp):
        reg = rs.order if cls.rep == identity else 0
        lhs = r_val * gp_val
        rhs = (-1) ** (n - 1) * f_count * reg
        if lhs != rhs:
            raise ConjectureFails(
                f"{rs.label} class {cls.describe()}: chi_R*chi_G' = {lhs} != {rhs}"
            )
        rows.append((cls.describe(), r_val, gp_val, lhs))
    return {"classes": len(rows), "f_count": f_count, "rows": rows}


def check_dimension_identity(rs: RootSystem) -> dict:
    """Identity-class instance: n h prod(e_i - 1) = f_W |W|, from exponents."""
    prod = 1
    for e in rs.exponents[1:]:
        prod *= e - 1
    lhs = rs.rank * rs.coxeter_number * prod
    rhs = rs.full_reflection_count() * rs.order
    if lhs != rhs:
        raise ConjectureFails(f"{rs.label}: n h prod(e-1) = {lhs} != f|W| = {rhs}")
    return {"lhs": lhs, "rhs": rhs, "f_count": rs.full_reflection_count()}


def check_B_gprime_lemma(rs: RootSystem) -> dict:
    """G' vanishes on non-identity classes with a positive 1- or 2-cycle,
    and characters of positive-2-cycle classes are divisible by (1-t)^2."""
    if rs.family != "B":
        raise ValueError(f"{rs.label}: this lemma concerns type B")
    group = generate_group(rs)
    gc = os_graded_character(rs, group)
    chi_gp = g_prime_character(gc)
    identity = rs.identity_table()
    one_minus_t_sq = UniPoly((1, -1)) * UniPoly((1, -1))
    checked = 0
    for cls, poly, gp_val in zip(group.classes, gc.chars, chi_gp):
        if cls.rep == identity:
            continue
        if has_positive_short_cycle(cls.label):
            if gp_val != 0:
                raise LemmaViolation(
                    f"{rs.label} class {cls.label}: chi_G' = {gp_val} != 0"
                )
            checked += 1
        positive, _ = cls.label
        if 2 in positive:
            try:
                unipoly_divide_exact(poly, one_minus_t_sq)
            except NotDivisible as exc:
                raise LemmaViolation(
                    f"{rs.label} class {cls.label}: {poly!r} not divisible by (1-t)^2"
                ) from exc
    return {"classes": len(group.classes), "vanishing_checked": checked}


def reflection_class_indices(rs: RootSystem, group: GroupData) -> List[int]:
    """Classes of reflections: elements negating exactly one positive root."""
    N = rs.n_positive
    out = []
    for i, cls in enumerate(group.classes):
        negated = sum(1 for j in range(N) if cls.rep[j] == N + j)
        if negated == 1:
            out.append(i)
    return out


def check_dihedral(rs: RootSystem) -> dict:
    """Dihedral facts behind the rank-2 case of the main conjecture.

    For odd m the root action is the regular representation, which settles
    the conjecture without grading.  For even m each reflection fixes two
    hyperplane lines; its character is (1-t)^2, so the (1-t)-quotient has
    trace 1 in degrees 0 and 1 and chi_G' vanishes.  For odd m each
    reflection fixes only its own line; its character is 1-t, so the
    quotient has traces (1, 0) and chi_G' = 1.  The returned report
    carries the computed traces for both parities.
    """
    if rs.family != "I":
        raise ValueError(f"{rs.label}: dihedral check needs I2(m)")
    m = rs.m
    group = generate_group(rs)
    gc = os_graded_character(rs, group)
    chi_r = chi_R(rs, group.classes)
    chi_gp = g_prime_character(gc)
    identity = rs.identity_table()
    report: dict = {"m": m, "odd": m % 2 == 1, "reflections": []}
    if m % 2 == 1:
        for cls, val in zip(group.classes, chi_r):
            expected = rs.order if cls.rep == identity else 0
            if val != expected:
                raise LemmaViolation(
                    f"{rs.label} class {cls.describe()}: chi_R = {val}, "
                    f"regular character = {expected}"
                )
        report["chi_r_regular"] = True
    for idx in reflection_class_indices(rs, group):
        traces = quotient_traces(gc, idx)
        report["reflections"].append(
            {
                "class": group.classes[idx].describe(),
                "char": gc.chars[idx],
                "trace0": traces[0],
                "trace1": traces[1],
                "g_prime": chi_gp[idx],
            }
        )
    report["main"] = _check_main_classes(rs, group, chi_r, chi_gp)
    return report
