"""Graded characters of the reflection-arrangement cohomology.

Hyperplanes are the positive roots in canonical order, and the graded
character of g on the Orlik-Solomon (OS) algebra is

    chi(g)(t) = sum_k tr(g|OS_k) (-t)^k = sum_{X in L^g} mu_{L^g}(0, X) t^{rk X},

where L^g is the poset of flats that g maps to themselves.  OS_k splits
over the flats of rank k as the reduced homology of the intervals
(0, X) (Orlik-Solomon 1980; Bjorner 1982), so g permutes the summands
and only the fixed flats contribute to its trace.  Geometric lattices
are Cohen-Macaulay, and the Hopf trace formula makes each contribution a
Moebius number of the g-fixed subposet (Baclawski-Bjorner 1979; Sundaram
1994).  The Moebius function is computed rank by rank.  The class table
is cached per root system; its classes are those of generate_group, whose
class 0 is the identity's, with character prod (1 - e_i t).

Flats are hyperplane bitmasks.  Every flat of a Coxeter arrangement is
W-conjugate to a standard parabolic one (Steinberg 1964; Orlik-Solomon,
"Coxeter arrangements", 1983): for J a subset of the simple roots, the
roots whose support lies in J, of rank |J|.  The simple reflections'
hyperplane permutations keep ranks, so the flats are closed rank by rank:
one orbit of the rank-k parabolic masks is every flat of rank k.  No
linear algebra is done, so the Z[phi] types cost no more than the
integer ones.

The no-broken-circuit (NBC) engine computes the same character from a
presentation of the algebra.  It is read off one memoized rank oracle (a
set is independent when its rank is its size, and a circuit is read off
the exchanges that keep a set independent); a group element permutes
hyperplanes, sorts the image monomial (with the permutation sign), and
rewrites non-NBC monomials through the circuit relations
sum_j (-1)^j e_{C minus c_j} = 0.  Rank is computed by division-free
elimination.  It serves the S_n oracles of the series calibration,
which stay independent of the fixed-flat engine, and the tests.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapacityExceeded, CheckFailed, InternalError, UsageError
from .exact import UniPoly, command_cache, divide_one_minus_t
from .groups import ConjugacyClass, chi_R, generate_group, has_positive_short_cycle
from .rootsys import RootSystem, orbit

_MAX_HYPERPLANES = 25


def _row_rank(rows: Sequence[Sequence]) -> int:
    """Rank by division-free elimination: each other row becomes
    row * pivot[col] - pivot * row[col], so no entry is ever divided."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[col] != 0), None)
        if pivot is None:
            continue
        p = pivot[col]
        rows = [
            [x * p - y * row[col] for x, y in zip(row, pivot)]
            for row in rows
            if row is not pivot
        ]
        rank += 1
    return rank


class VectorMatroid:
    """Matroid of a list of exact vectors; rank is memoized per subset."""

    def __init__(self, vectors: Sequence[tuple]):
        self.vectors = [tuple(v) for v in vectors]
        self._ranks: Dict[int, int] = {}

    def rank(self, subset: Tuple[int, ...]) -> int:
        key = 0
        for x in subset:
            key |= 1 << x
        cached = self._ranks.get(key)
        if cached is None:
            cached = _row_rank([self.vectors[x] for x in subset])
            self._ranks[key] = cached
        return cached

    def is_independent(self, subset: Tuple[int, ...]) -> bool:
        return self.rank(subset) == len(subset)

    def fundamental_circuit(
        self, base: Tuple[int, ...], extra: int
    ) -> Optional[Tuple[int, ...]]:
        """Circuit inside base+{extra} when extra is in the span of base.

        For an independent base the circuit is extra plus every member whose
        exchange for extra leaves an independent set.
        """
        if self.is_independent(base + (extra,)):
            return None
        members = [extra] + [
            b for b in base
            if self.is_independent(tuple(x for x in base if x != b) + (extra,))
        ]
        return tuple(sorted(members))


def _merge_sign(u: tuple, v: tuple) -> Tuple[int, tuple]:
    """Sign of sorting the concatenation of two disjoint sorted tuples."""
    return _sort_sign(u + v), tuple(sorted(u + v))


class OSAlgebra:
    """NBC bases and straightening for one hyperplane arrangement."""

    def __init__(self, matroid: VectorMatroid, n_hyperplanes: int, rank: int):
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
                    if (
                        self.matroid.is_independent(cand)
                        and self._broken_circuit(cand) is None
                    ):
                        level.append(cand)
            self.nbc.append(level)
        self.dims = tuple(len(level) for level in self.nbc)
        self._nbc_sets = [set(level) for level in self.nbc]

    def _broken_circuit(self, subset: tuple) -> Optional[tuple]:
        """First circuit c0 + (members of subset above c0), c0 not in subset."""
        for c0 in range(subset[-1]):
            if c0 in subset:
                continue
            tail = tuple(x for x in subset if x > c0)
            circuit = self.matroid.fundamental_circuit(tail, c0)
            if circuit is not None:
                return circuit
        return None

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
        circuit = self._broken_circuit(monomial)
        if circuit is None:
            raise InternalError("non-NBC independent monomial without a circuit")
        body = circuit[1:]  # circuit[0] = c0 is its minimum
        rest = tuple(x for x in monomial if x not in body)
        sign0, merged = _merge_sign(body, rest)
        if merged != monomial:
            raise InternalError("circuit body is not inside the monomial")
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


def _hyperplane_matroid(rs: RootSystem) -> VectorMatroid:
    if rs.family == "I":
        # m distinct lines in the plane: the uniform matroid U_{2,m}
        return VectorMatroid([(1, j) for j in range(rs.n_positive)])
    return VectorMatroid(rs.positive_roots)


def hyperplane_map(rs: RootSystem, g: tuple) -> tuple:
    """Induced permutation of hyperplanes (unsigned roots)."""
    N = rs.n_positive
    return tuple(g[x] if g[x] < N else g[x] - N for x in range(N))


class GradedCharacter(NamedTuple):
    """chars[i] is the graded character of classes[i], the classes of
    generate_group(rs), so class 0 is the identity's.  os_graded_character
    caches one per root system."""

    rs: RootSystem
    classes: Tuple[ConjugacyClass, ...]
    chars: Tuple[UniPoly, ...]
    dims: Tuple[int, ...]


def build_os_algebra(rs: RootSystem) -> OSAlgebra:
    if rs.n_positive > _MAX_HYPERPLANES:
        raise CapacityExceeded(f"{rs.label}: needs |hyperplanes| <= {_MAX_HYPERPLANES}")
    algebra = OSAlgebra(_hyperplane_matroid(rs), rs.n_positive, rs.rank)
    expected = tuple(abs(c) for c in identity_character(rs).coeffs)
    if algebra.dims != expected:
        raise InternalError(
            f"{rs.label}: NBC dimensions {algebra.dims} != e_k values {expected}"
        )
    return algebra


def identity_character(rs: RootSystem) -> UniPoly:
    """The identity's graded character prod (1 - e_i t); its t^k coefficient is (-1)^k dim OS_k."""
    out = UniPoly.one()
    for e in rs.exponents:
        out = out * UniPoly((1, -e))
    return out


def _indices(mask: int):
    """Positions of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _image(bits: Sequence[int], mask: int) -> int:
    """Image of a hyperplane bitmask; bits[x] is the bit of the image of x."""
    out = 0
    for x in _indices(mask):
        out |= bits[x]
    return out


class FlatLattice(NamedTuple):
    """Flats as hyperplane bitmasks, sorted by rank; lower[i] is the bitmask
    of the indices of the flats contained in flat i, itself included."""

    masks: Tuple[int, ...]
    ranks: Tuple[int, ...]
    lower: Tuple[int, ...]

    def character(self, hmap: Sequence[int]) -> UniPoly:
        """sum over the flats X fixed by hmap of mu(0, X) t^{rk X}."""
        bits = [1 << y for y in hmap]
        mu = [0] * len(self.masks)
        coeffs = [0] * (self.ranks[-1] + 1)
        fixed = 0
        for i, mask in enumerate(self.masks):
            if _image(bits, mask) != mask:
                continue
            fixed |= 1 << i
            # every fixed flat strictly below flat i has a smaller index
            below = (self.lower[i] & fixed) ^ (1 << i)
            mu[i] = -sum(mu[j] for j in _indices(below)) if below else 1
            coeffs[self.ranks[i]] += mu[i]
        return UniPoly(coeffs)


def flat_lattice(rs: RootSystem) -> FlatLattice:
    """The standard parabolic flats closed under the simple reflections, rank by rank."""
    gens = [[1 << y for y in hyperplane_map(rs, s)] for s in rs.simple_tables]
    rank_of: Dict[int, int] = {}
    for size in range(rs.rank + 1):
        parabolics = map(frozenset, itertools.combinations(range(rs.rank), size))
        seeds = [
            sum(1 << x for x, support in enumerate(rs.supports) if support <= J)
            for J in parabolics
        ]
        for mask in orbit(seeds, lambda mask: [_image(bits, mask) for bits in gens]):
            rank_of[mask] = size
    masks = sorted(rank_of, key=lambda mask: (rank_of[mask], mask))
    contains = [0] * rs.n_positive  # flats containing each hyperplane
    for i, mask in enumerate(masks):
        for x in _indices(mask):
            contains[x] |= 1 << i
    everything = (1 << len(masks)) - 1
    lower = []
    for mask in masks:
        # a flat lies in this one unless it contains a hyperplane outside it
        outside = 0
        for x in range(rs.n_positive):
            if not (mask >> x) & 1:
                outside |= contains[x]
        lower.append(everything & ~outside)
    return FlatLattice(
        masks=tuple(masks), ranks=tuple(rank_of[mask] for mask in masks), lower=tuple(lower)
    )


def _checked_character(rs: RootSystem, classes, chars) -> GradedCharacter:
    """The class characters, once the identity's, chars[0], is prod (1 - e_i t)."""
    expected = identity_character(rs)
    dims = tuple(abs(c) for c in expected.coeffs)
    if chars[0] != expected:
        raise InternalError(f"{rs.label}: identity character {chars[0]!r} != {expected!r}")
    return GradedCharacter(rs=rs, classes=classes, chars=tuple(chars), dims=dims)


@command_cache
def os_graded_character(rs: RootSystem) -> GradedCharacter:
    """Per-class graded character chi(g)(t) by Moebius numbers of the fixed flats.

    Cached per root system; the flat lattice itself is not kept.
    """
    classes = generate_group(rs).classes
    lattice = flat_lattice(rs)
    return _checked_character(
        rs, classes, [lattice.character(hyperplane_map(rs, cls.rep)) for cls in classes]
    )


def nbc_graded_character(rs: RootSystem) -> GradedCharacter:
    """The same character, chi(g)(t) = sum_k tr(g|OS_k) (-t)^k, from NBC bases."""
    classes = generate_group(rs).classes
    algebra = build_os_algebra(rs)
    chars = []
    for cls in classes:
        hmap = hyperplane_map(rs, cls.rep)
        chars.append(
            UniPoly([(-1) ** k * algebra.degree_trace(hmap, k) for k in range(rs.rank + 1)])
        )
    # build_os_algebra has checked algebra.dims against the identity character
    return _checked_character(rs, classes, chars)


def _quotient(gc: GradedCharacter, index: int) -> tuple:
    """Coefficients of chi/(1-t) for one class; CheckFailed if 1-t does not divide chi."""
    quotient = divide_one_minus_t(gc.chars[index].coeffs)
    if quotient is None:
        cls, poly = gc.classes[index].describe(), gc.chars[index]
        raise CheckFailed(f"{gc.rs.label} class {cls}: {poly!r} not divisible by 1-t")
    return quotient


def g_prime_character(gc: GradedCharacter) -> List[int]:
    """chi_{G'}(C): the t = 1 value of each integer class character over 1 - t."""
    return [sum(_quotient(gc, index)) for index in range(len(gc.chars))]


def quotient_traces(gc: GradedCharacter, index: int) -> List[int]:
    """Degree-by-degree traces on the (1-t)-quotient for one class.

    With the alternating character convention, the degree-k trace is
    (-1)^k times the t^k coefficient of chi/(1-t).
    """
    quotient = UniPoly(_quotient(gc, index))
    return [(-1) ** k * quotient.coefficient(k) for k in range(gc.rs.rank + 1)]


def verify_main_conjecture(rs: RootSystem) -> dict:
    """Class-by-class check of chi_R * chi_G' = (-1)^(n-1) f_W chi_Reg."""
    gc = os_graded_character(rs)
    f_count = rs.full_reflection_count()
    sign = (-1) ** (rs.rank - 1)
    for index, (cls, r_val, gp_val) in enumerate(
        zip(gc.classes, chi_R(rs, gc.classes), g_prime_character(gc))
    ):
        lhs = r_val * gp_val
        # chi_Reg is |W| on class 0, the identity, and 0 on every other class
        rhs = sign * f_count * rs.order if index == 0 else 0
        if lhs != rhs:
            raise CheckFailed(
                f"{rs.label} class {cls.describe()}: chi_R*chi_G' = {lhs} != {rhs}"
            )
    return {"classes": len(gc.classes), "f_count": f_count}


def check_dimension_identity(rs: RootSystem) -> dict:
    """Identity-class instance: n h prod(e_i - 1) = f_W |W|, from exponents."""
    prod = 1
    for e in rs.exponents[1:]:
        prod *= e - 1
    lhs = rs.rank * rs.coxeter_number * prod
    rhs = rs.full_reflection_count() * rs.order
    if lhs != rhs:
        raise CheckFailed(f"{rs.label}: n h prod(e-1) = {lhs} != f|W| = {rhs}")
    return {"lhs": lhs, "rhs": rhs, "f_count": rs.full_reflection_count()}


def check_B_gprime_lemma(rs: RootSystem) -> dict:
    """G' vanishes on non-identity classes with a positive 1- or 2-cycle,
    and characters of positive-2-cycle classes are divisible by (1-t)^2."""
    if rs.family != "B":
        raise UsageError(f"{rs.label}: this lemma concerns type B")
    gc = os_graded_character(rs)
    checked = 0
    # class 0, the identity, is skipped
    for cls, poly, gp_val in zip(gc.classes[1:], gc.chars[1:], g_prime_character(gc)[1:]):
        if has_positive_short_cycle(cls.label):
            if gp_val != 0:
                raise CheckFailed(
                    f"{rs.label} class {cls.label}: chi_G' = {gp_val} != 0"
                )
            checked += 1
        positive, _ = cls.label
        if 2 in positive:
            # g_prime_character has already divided poly by 1 - t once
            if divide_one_minus_t(divide_one_minus_t(poly.coeffs)) is None:
                raise CheckFailed(
                    f"{rs.label} class {cls.label}: {poly!r} not divisible by (1-t)^2"
                )
    return {"classes": len(gc.classes), "vanishing_checked": checked}


def reflection_class_indices(rs: RootSystem, classes: Sequence[ConjugacyClass]) -> List[int]:
    """Classes of reflections: elements negating exactly one positive root."""
    N = rs.n_positive
    out = []
    for i, cls in enumerate(classes):
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
        raise UsageError(f"{rs.label}: dihedral check needs I2(m)")
    m = rs.m
    gc = os_graded_character(rs)
    chi_gp = g_prime_character(gc)
    report: dict = {"m": m, "odd": m % 2 == 1, "reflections": []}
    if m % 2 == 1:
        for index, (cls, val) in enumerate(zip(gc.classes, chi_R(rs, gc.classes))):
            expected = rs.order if index == 0 else 0
            if val != expected:
                raise CheckFailed(
                    f"{rs.label} class {cls.describe()}: chi_R = {val}, "
                    f"regular character = {expected}"
                )
        report["chi_r_regular"] = True
    for idx in reflection_class_indices(rs, gc.classes):
        traces = quotient_traces(gc, idx)
        report["reflections"].append(
            {
                "class": gc.classes[idx].describe(),
                "char": gc.chars[idx],
                "trace0": traces[0],
                "trace1": traces[1],
                "g_prime": chi_gp[idx],
            }
        )
    report["main"] = verify_main_conjecture(rs)
    return report
