"""Brute-force reflection groups as permutations of the root indices.

An element is the tuple g with g[x] = index of the image of root x, over
all 2N roots (positives first, negative of positive j at N + j).  A group
is the orbit of the identity under the simple reflections; conjugacy
classes are found by orbit partition under conjugation by the generators,
and class labels from the cycles, again orbits, of a (signed) permutation.
A group whose element table, |W| tables of 2N entries, exceeds the group
budget is refused before any element is built.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapacityExceeded, CheckFailed, InternalError, UsageError
from .exact import command_cache
from .rootsys import RootSystem, orbit, orbits

_GROUP_BUDGET = 1_000_000  # entries |W| * 2N of the element table


def compose(g: tuple, h: tuple) -> tuple:
    """g after h."""
    return tuple(g[x] for x in h)


class ConjugacyClass(NamedTuple):
    rep: tuple
    size: int
    label: Optional[object]

    def describe(self) -> str:
        if self.label is None:
            return f"size={self.size}"
        return f"{self.label} (size={self.size})"


class GroupData:
    """A generated group, its classes sorted by (size, rep), so class 0 is the
    identity's.  Compared and hashed by identity; no cache is keyed on it."""

    __slots__ = ("rs", "elements", "classes")

    def __init__(self, rs: RootSystem, elements: tuple, classes: Tuple[ConjugacyClass, ...]):
        self.rs = rs
        self.elements = elements
        self.classes = classes


@command_cache
def generate_group(rs: RootSystem) -> GroupData:
    """Close the simple reflections under composition and split into classes.

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
    elements = tuple(sorted(seen))
    classes = _conjugacy_classes(rs, elements)
    # the identity is the least table and alone in its class, so the sort puts it first
    if classes[0].rep != identity:
        raise InternalError(f"{rs.label}: class 0 is not the identity")
    return GroupData(rs=rs, elements=elements, classes=classes)


def _conjugacy_classes(rs: RootSystem, elements: tuple) -> tuple:
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


def chi_R(rs: RootSystem, classes: Sequence[ConjugacyClass]) -> List[int]:
    """Character of the permutation action on roots: fixed-point counts."""
    return [sum(1 for x, y in enumerate(c.rep) if x == y) for c in classes]


# -- type-specific class labels ---------------------------------------------


def _class_label(rs: RootSystem, rep: tuple):
    if rs.family == "A":
        return _cycle_type_a(rs, rep)
    if rs.family == "B":
        return signed_cycle_type(rs, rep)
    return None


def _letter_pairs(rs: RootSystem) -> Dict[int, tuple]:
    """Type A: map root index -> ordered letter pair (i, j), root = e_i - e_j.

    Positive roots of A_n have interval support [a..b], corresponding to the
    pair (a, b+1) in the letters 0..n.
    """
    pairs = {}
    for j, support in enumerate(rs.supports):
        a, b = min(support), max(support)
        pairs[j] = (a, b + 1)
        pairs[rs.neg(j)] = (b + 1, a)
    return pairs


def permutation_of_letters(rs: RootSystem, g: tuple) -> tuple:
    """Type A: recover the permutation of the n+1 letters from the root action."""
    if rs.family != "A":
        raise UsageError("letter permutations only exist for type A")
    pairs = _letter_pairs(rs)
    index_of = {pair: x for x, pair in pairs.items()}
    n_letters = rs.rank + 1
    image = [None] * n_letters
    for a in range(n_letters):
        b = (a + 1) % n_letters
        x = index_of[(a, b)]
        image[a] = pairs[g[x]][0]
    return tuple(image)


def _cycle_type_a(rs: RootSystem, rep: tuple) -> tuple:
    perm = permutation_of_letters(rs, rep)
    return _signed_cycles([(y, 1) for y in perm])[0]


def _signed_cycles(images: Sequence[Tuple[int, int]]) -> Tuple[tuple, tuple]:
    """Cycle lengths of x -> images[x][0], split by the product of the signs
    images[x][1] around each cycle, each part longest first."""
    positive, negative = [], []
    for cycle in orbits(range(len(images)), lambda x: (images[x][0],)):
        sign = math.prod(images[x][1] for x in cycle)
        (positive if sign == 1 else negative).append(len(cycle))
    return tuple(sorted(positive, reverse=True)), tuple(sorted(negative, reverse=True))


def _coordinate_roots(rs: RootSystem) -> List[int]:
    """Type B: positive-root indices of the short roots e_1..e_n, in order.

    e_i = alpha_i + ... + alpha_n in simple-root coordinates.
    """
    n = rs.rank
    out = []
    for i in range(n):
        coords = tuple(0 if j < i else 1 for j in range(n))
        out.append(rs.root_index(coords))
    return out


def signed_permutation(rs: RootSystem, g: tuple) -> List[Tuple[int, int]]:
    """Type B: the image of each e_i as (target index, sign)."""
    if rs.family != "B":
        raise UsageError("signed permutations only exist for type B")
    coord = _coordinate_roots(rs)
    place = {x: (i, 1) for i, x in enumerate(coord)}
    place.update({rs.neg(x): (i, -1) for i, x in enumerate(coord)})
    return [place[g[x]] for x in coord]


def signed_cycle_type(rs: RootSystem, g: tuple) -> Tuple[tuple, tuple]:
    """Cycle lengths split by the product of signs around each cycle."""
    return _signed_cycles(signed_permutation(rs, g))


def has_positive_short_cycle(label: Tuple[tuple, tuple]) -> bool:
    """A positive cycle of length 1 or 2."""
    positive, _ = label
    return 1 in positive or 2 in positive


def check_B_lemma(rs: RootSystem) -> dict:
    """chi_R(g) != 0 iff g has a positive 1-cycle or positive 2-cycle."""
    if rs.family != "B":
        raise UsageError(f"{rs.label}: the signed-cycle lemma is about type B")
    classes = generate_group(rs).classes
    for cls, value in zip(classes, chi_R(rs, classes)):
        expected = has_positive_short_cycle(cls.label)
        if (value != 0) != expected:
            raise CheckFailed(
                f"{rs.label} class {cls.label}: chi_R = {value}, "
                f"positive 1/2-cycle = {expected}"
            )
    return {"classes": len(classes)}
