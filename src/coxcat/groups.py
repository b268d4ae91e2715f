"""Brute-force reflection groups as permutations of the root indices.

An element is the tuple g with g[x] = index of the image of root x, over
all 2N roots (positives first, negative of positive j at N + j), and
elements multiply by rootsys.compose.  A group is the orbit of the
identity under the simple reflections; conjugacy classes are found by
orbit partition under conjugation by the generators, and the A and B class
labels from the cycles, again orbits, of the signed permutation an element
makes of the coordinates.  W itself is walked, not kept: only its class
table, one (rep, size, label) per class, outlives generate_group.
A group whose element table, |W| tables of 2N entries, exceeds the group
budget is refused before any element is built.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapacityExceeded, CheckFailed, InternalError, UsageError
from .exact import command_cache
from .rootsys import RootSystem, compose, orbit, orbits

# Entries |W| * 2N of the element table.  Every type up to E6 (3,732,480) fits,
# and so do B6, C6, A7, H4, D6 and I2(1000) (4,000,000); the largest admitted
# run `verify all E6` in about 1.7 s and 56 MB and `verify all I2(1000)` in
# 1.1 s and 62 MB, on 2 vCPUs under Python 3.11 (median of 3 runs).  The first
# refused are I2(1001) (4,008,004), A8, D7, B7, C7 and E7.
_GROUP_BUDGET = 4_000_000


class ConjugacyClass(NamedTuple):
    rep: tuple
    size: int
    label: Optional[object]

    def describe(self) -> str:
        if self.label is None:
            return f"size={self.size}"
        return f"{self.label} (size={self.size})"


@command_cache
def generate_group(rs: RootSystem) -> Tuple[ConjugacyClass, ...]:
    """Close the simple reflections under composition and split W into its
    classes, sorted by (size, rep), so class 0 is the identity's.

    Cached per root system, which build_root_system caches per label.
    """
    entries = rs.order * 2 * rs.n_positive
    if entries > _GROUP_BUDGET:
        raise CapacityExceeded(
            f"{rs.label}: |W| * 2N = {entries} exceeds the group budget {_GROUP_BUDGET}"
        )
    gens = rs.simple_tables
    identity = rs.identity_table()
    seen = orbit([identity], lambda g: [compose(s, g) for s in gens])
    if len(seen) != rs.order:
        raise InternalError(
            f"{rs.label}: generated {len(seen)} elements, expected {rs.order}"
        )
    classes = _conjugacy_classes(rs, seen)
    # the identity is the least table and alone in its class, so the sort puts it first
    if classes[0].rep != identity:
        raise InternalError(f"{rs.label}: class 0 is not the identity")
    return classes


def _conjugacy_classes(rs: RootSystem, elements: list) -> Tuple[ConjugacyClass, ...]:
    gens = rs.simple_tables
    # s g s^{-1} = s g s, each generator an involution
    classes = [
        (cls[0], len(cls))
        for cls in orbits(elements, lambda g: [compose(s, compose(g, s)) for s in gens])
    ]
    classes.sort(key=lambda c: (c[1], c[0]))
    return tuple(
        ConjugacyClass(rep=rep, size=size, label=_class_label(rs, rep))
        for rep, size in classes
    )


def chi_R(classes: Sequence[ConjugacyClass]) -> List[int]:
    """Character of the permutation action on roots: fixed-point counts."""
    return [sum(1 for x, y in enumerate(c.rep) if x == y) for c in classes]


# -- type-specific class labels ---------------------------------------------


def _class_label(rs: RootSystem, rep: tuple):
    if rs.family == "A":
        return signed_cycle_type(rs, rep)[0]
    if rs.family == "B":
        return signed_cycle_type(rs, rep)
    return None


def signed_coordinates(rs: RootSystem, g: tuple) -> List[Tuple[int, int]]:
    """The signed permutation g makes of the coordinates: the image of
    each coordinate as (target index, sign).

    Type A: the letters 0..n, where e_a - e_b (a < b) is the positive root
    of interval support [a..b-1].  Letter a goes to the first letter of the
    image of alpha_a = e_a - e_(a+1), and letter n to that of e_n - e_0,
    the negated highest root.
    Type B: e_1..e_n, the short roots alpha_i + ... + alpha_n.
    """
    if rs.family == "A":
        first = [min(s) for s in rs.supports] + [max(s) + 1 for s in rs.supports]
        return [(first[g[x]], 1) for x in rs.simple_positions + (rs.neg(rs.n_positive - 1),)]
    if rs.family != "B":
        raise UsageError("signed permutations only exist for type B")
    n = rs.rank
    coords = [rs.root_index((0,) * i + (1,) * (n - i)) for i in range(n)]
    place = {x: (i, 1) for i, x in enumerate(coords)}
    place.update({rs.neg(x): (i, -1) for i, x in enumerate(coords)})
    return [place[g[x]] for x in coords]


def _signed_cycles(images: Sequence[Tuple[int, int]]) -> Tuple[tuple, tuple]:
    """Cycle lengths of x -> images[x][0], split by the product of the signs
    images[x][1] around each cycle, each part longest first."""
    positive, negative = [], []
    for cycle in orbits(range(len(images)), lambda x: (images[x][0],)):
        sign = math.prod(images[x][1] for x in cycle)
        (positive if sign == 1 else negative).append(len(cycle))
    return tuple(sorted(positive, reverse=True)), tuple(sorted(negative, reverse=True))


def signed_cycle_type(rs: RootSystem, g: tuple) -> Tuple[tuple, tuple]:
    """Cycle lengths split by the product of signs around each cycle."""
    return _signed_cycles(signed_coordinates(rs, g))


def has_positive_short_cycle(label: Tuple[tuple, tuple]) -> bool:
    """A positive cycle of length 1 or 2."""
    positive, _ = label
    return 1 in positive or 2 in positive


def check_B_lemma(rs: RootSystem) -> dict:
    """chi_R(g) != 0 iff g has a positive 1-cycle or positive 2-cycle."""
    if rs.family != "B":
        raise UsageError(f"{rs.label}: the signed-cycle lemma is about type B")
    classes = generate_group(rs)
    for cls, value in zip(classes, chi_R(classes)):
        expected = has_positive_short_cycle(cls.label)
        if (value != 0) != expected:
            raise CheckFailed(
                f"{rs.label} class {cls.label}: chi_R = {value}, "
                f"positive 1/2-cycle = {expected}"
            )
    return {"classes": len(classes)}
