"""Brute-force reflection groups as permutations of the root indices.

An element is the tuple g with g[x] = index of the image of root x, over
all 2N roots (positives first, negative of positive j at N + j).  Groups
are generated by closing the simple-reflection tables under composition;
conjugacy classes by orbit partition under conjugation by the generators.
A group with more than 256 roots or more than 10,000 elements is refused
before any element is built.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapacityExceeded, CheckFailed, InternalError
from .exact import command_cache
from .rootsys import RootSystem

_ORDER_CAP = 10_000
_ROOT_CAP = 256  # roots a group element may permute


def compose(g: tuple, h: tuple) -> tuple:
    """g after h."""
    return tuple(g[x] for x in h)


def invert(g: tuple) -> tuple:
    out = [0] * len(g)
    for x, y in enumerate(g):
        out[y] = x
    return tuple(out)


class ConjugacyClass(NamedTuple):
    rep: tuple
    size: int
    label: Optional[object]

    def describe(self) -> str:
        if self.label is None:
            return f"size={self.size}"
        return f"{self.label} (size={self.size})"


class GroupData:
    """A generated group; hashed by identity, because it keys the character cache."""

    __slots__ = ("rs", "elements", "classes")

    def __init__(self, rs: RootSystem, elements: tuple, classes: Tuple[ConjugacyClass, ...]):
        self.rs = rs
        self.elements = elements
        self.classes = classes

    @property
    def order(self) -> int:
        return len(self.elements)


@command_cache
def generate_group(rs: RootSystem) -> GroupData:
    """Close the simple reflections under composition and split into classes.

    Cached per root system, which build_root_system caches per label.
    """
    if 2 * rs.n_positive > _ROOT_CAP:
        raise CapacityExceeded(
            f"{rs.label}: {2 * rs.n_positive} roots exceed {_ROOT_CAP}"
        )
    if rs.order > _ORDER_CAP:
        raise CapacityExceeded(f"{rs.label}: |W| = {rs.order} exceeds {_ORDER_CAP}")
    gens = rs.simple_tables
    identity = rs.identity_table()
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = compose(s, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    if len(seen) != rs.order:
        raise InternalError(
            f"{rs.label}: generated {len(seen)} elements, expected {rs.order}"
        )
    elements = tuple(sorted(seen))
    classes = _conjugacy_classes(rs, elements)
    return GroupData(rs=rs, elements=elements, classes=classes)


def _conjugacy_classes(rs: RootSystem, elements: tuple) -> tuple:
    gens = rs.simple_tables
    remaining = set(elements)
    classes = []
    while remaining:
        seed = min(remaining)
        orbit = {seed}
        stack = [seed]
        while stack:
            g = stack.pop()
            for s in gens:
                h = compose(s, compose(g, s))  # s g s^{-1}, s an involution
                if h not in orbit:
                    orbit.add(h)
                    stack.append(h)
        remaining -= orbit
        classes.append((min(orbit), len(orbit)))
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
        raise ValueError("letter permutations only exist for type A")
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
    return _cycle_lengths(perm)


def _cycle_lengths(perm: tuple) -> tuple:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


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
        raise ValueError("signed permutations only exist for type B")
    coord = _coordinate_roots(rs)
    place = {x: (i, 1) for i, x in enumerate(coord)}
    place.update({rs.neg(x): (i, -1) for i, x in enumerate(coord)})
    return [place[g[x]] for x in coord]


def signed_cycle_type(rs: RootSystem, g: tuple) -> Tuple[tuple, tuple]:
    """Cycle lengths split by the product of signs around each cycle."""
    sp = signed_permutation(rs, g)
    n = len(sp)
    seen = [False] * n
    positive, negative = [], []
    for start in range(n):
        if seen[start]:
            continue
        length, sign, x = 0, 1, start
        while not seen[x]:
            seen[x] = True
            target, s = sp[x]
            sign *= s
            x = target
            length += 1
        (positive if sign == 1 else negative).append(length)
    return tuple(sorted(positive, reverse=True)), tuple(sorted(negative, reverse=True))


def has_positive_short_cycle(label: Tuple[tuple, tuple]) -> bool:
    """A positive cycle of length 1 or 2."""
    positive, _ = label
    return 1 in positive or 2 in positive


def check_B_lemma(rs: RootSystem, group: GroupData) -> dict:
    """chi_R(g) != 0 iff g has a positive 1-cycle or positive 2-cycle."""
    if rs.family != "B":
        raise ValueError(f"{rs.label}: the signed-cycle lemma is about type B")
    values = chi_R(rs, group.classes)
    checked = []
    for cls, value in zip(group.classes, values):
        expected = has_positive_short_cycle(cls.label)
        if (value != 0) != expected:
            raise CheckFailed(
                f"{rs.label} class {cls.label}: chi_R = {value}, "
                f"positive 1/2-cycle = {expected}"
            )
        checked.append((cls.label, value))
    return {"classes": len(checked), "values": checked}
