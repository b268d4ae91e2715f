"""Finite root systems with exact coordinates.

Crystallographic types (A, B, C, D, E, F, G) use integer simple-root
coordinates; H3 and H4 use coordinates in the ring Z[phi] (GoldenNumber with
integer components); I2(m) is represented without coordinates at all, as a
permutation action on 2m rays.  Coordinates only ever meet ring operations:
sums, differences, products and sign tests.

A RootSystem is built from its label alone and carries its diagram: the
Coxeter diagram edges and, except for I2(m), the Cartan matrix.

Positive roots are generated by closing the simple roots under the simple
reflections and sorted by (height, coordinates), so every index-based
structure downstream is deterministic.  Each simple reflection is stored as
a permutation table of the root indices.  A RootSystem is immutable after
construction and safe to share across threads.

That closure is one `orbit` (all that moves reach from some seeds), and
`orbits` splits a set into orbits, yielded one at a time; the group elements
and classes, flats, diagram components and cycles of the other modules all
come from these two.  Tables are multiplied by
`compose` alone: the group elements and their conjugates, and the cluster
complex's rotations.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Optional, Tuple

from .errors import InternalError, UsageError
from .exact import GoldenNumber, PHI, command_cache, conjugate_partition

# at most 9 ASCII digits, so int() never meets a number too long to convert
_LABEL_RE = re.compile(r"^([A-H])([0-9]{1,9})$|^I2\(([0-9]{1,9})\)$")

# Labels beyond these bounds are refused.  The largest admitted, B48, C48 and
# D48, run `table`, `roots --json` and `verify all` in about 1.5 s and 75 MB
# on 2 vCPUs, I2(50000) in 0.5 s and 64 MB; `table D64` took 4.3 s and 177 MB.
_MAX_CLASSICAL_RANK = 48
_MAX_DIHEDRAL_ORDER = 50_000

# exponents of the non-crystallographic types are fixed constants
_H_EXPONENTS = {3: (1, 5, 9), 4: (1, 11, 19, 29)}


def parse_label(label: str) -> Tuple[str, int, Optional[int]]:
    """Split a type label into (family, rank, dihedral order or None)."""
    s = label.strip().upper().replace(" ", "")
    m = _LABEL_RE.match(s)
    if not m:
        raise UsageError(f"cannot parse type label {label!r}")
    if m.group(3) is not None:
        order = int(m.group(3))
        if order < 5:
            raise UsageError("I2(m) requires m >= 5; smaller m duplicate A/B types")
        if order > _MAX_DIHEDRAL_ORDER:
            raise UsageError(f"I2(m) requires m <= {_MAX_DIHEDRAL_ORDER}")
        return "I", 2, order
    family, rank = m.group(1), int(m.group(2))
    bounds = {
        "A": (1, _MAX_CLASSICAL_RANK),
        "B": (2, _MAX_CLASSICAL_RANK),
        "C": (3, _MAX_CLASSICAL_RANK),
        "D": (4, _MAX_CLASSICAL_RANK),
        "E": (6, 8),
        "F": (4, 4),
        "G": (2, 2),
        "H": (3, 4),
    }
    lo, hi = bounds[family]
    if not lo <= rank <= hi:
        raise UsageError(f"rank {rank} out of range for family {family} ({lo}..{hi})")
    return family, rank, None


def _chain_edges(n: int) -> list:
    return [(i, i + 1) for i in range(n - 1)]


def _diagram_edges(family: str, n: int) -> list:
    if family in ("A", "B", "C", "F", "G", "H"):
        return _chain_edges(n)
    if family == "D":
        return _chain_edges(n - 1) + [(n - 3, n - 1)]
    if family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        return [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)] + [(1, 3)]
    raise UsageError(family)


def _cartan_matrix(family: str, n: int, edges: list):
    """Rows pair against coroots: entry [i][j] is <alpha_j, alpha_i-dual>."""
    if family == "H":
        a = [[GoldenNumber(0)] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = GoldenNumber(2)
        for (i, j) in edges:
            a[i][j] = a[j][i] = GoldenNumber(-1)
        a[0][1] = a[1][0] = -PHI
        return a
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for (i, j) in edges:
        a[i][j] = a[j][i] = -1
    if family == "B":
        a[n - 1][n - 2] = -2  # the short simple root's row
    elif family == "C":
        a[n - 2][n - 1] = -2
    elif family == "F":
        a[2][1] = -2
    elif family == "G":
        a[0][1] = -3  # node 0 short, node 1 long
    return a


def compose(g: tuple, h: tuple) -> tuple:
    """g after h, as one lookup of every entry of h in g.

    Every table has at least 2 entries (A1 has 2N = 2), and itemgetter with
    two or more indices returns a tuple, never a bare entry.
    """
    return itemgetter(*h)(g)


def orbit(seeds, moves) -> list:
    """The seeds, once each, then all that repeated moves(x) reach, in first-reached order."""
    reached = list(dict.fromkeys(seeds))
    seen = set(reached)
    for x in reached:
        for y in moves(x):
            if y not in seen:
                seen.add(y)
                reached.append(y)
    return reached


def orbits(items, moves) -> Iterator[list]:
    """Split items into orbits, smallest seed first, and yield each as it is
    found, so no orbit is held after its reader moves on; moves must be
    symmetric (a group action or an undirected graph) and stay inside items."""
    remaining = set(items)
    for seed in sorted(remaining):
        if seed in remaining:
            found = orbit([seed], moves)
            remaining.difference_update(found)
            yield found


def _simple_image(cartan, coords: tuple, i: int) -> tuple:
    pairing = sum((cartan[i][j] * coords[j] for j in range(len(coords))),
                  start=cartan[i][i] * 0)
    out = list(coords)
    out[i] = out[i] - pairing
    return tuple(out)


def _close_positive_roots(n: int, cartan: tuple) -> Tuple[list, dict]:
    """The simple roots' coordinates, and each positive root's coordinates
    mapped to its n simple-reflection images.

    Every root is closed over once, so each image is computed once here and
    the permutation tables are read off these images.
    """
    zero = cartan[0][0] * 0  # an int, or a GoldenNumber for H3 and H4
    one = zero + 1
    simples = [tuple(one if j == i else zero for j in range(n)) for i in range(n)]
    images = {}

    def moves(coords):
        row = tuple(_simple_image(cartan, coords, i) for i in range(n))
        images[coords] = row
        # s_i moves only coordinate i, so only that one can turn negative
        return [image for i, image in enumerate(row) if image[i] >= 0]

    orbit(simples, moves)
    return simples, images


class RootSystem:
    """A finite root system, its diagram and its simple-reflection permutation tables.

    Roots are indexed 0..2N-1: positives in canonical order first, then the
    negative of positive j at index N + j.
    """

    def __init__(self, label: str):
        family, n, m = parse_label(label)
        self.family = family
        self.rank = n
        self.m = m  # the dihedral order of I2(m), None for the other families
        self.crystallographic = family not in ("H", "I")
        if family == "I":
            self.label = f"I2({m})"
            self.edges = ((0, 1),)
            self.cartan = None
            self._build_dihedral()
        else:
            self.label = f"{family}{n}"
            self.edges = tuple(sorted(tuple(sorted(e)) for e in _diagram_edges(family, n)))
            self.cartan = tuple(map(tuple, _cartan_matrix(family, n, self.edges)))
            self._build_coordinates()
        self._validate()

    # -- construction ------------------------------------------------------

    def _build_coordinates(self) -> None:
        simples, images = _close_positive_roots(self.rank, self.cartan)
        # the canonical order: by height, then coordinates
        self.heights, positives = zip(*sorted((sum(c[1:], start=c[0]), c) for c in images))
        n_pos = len(positives)
        self.positive_roots = positives
        self.n_positive = n_pos
        index = {}
        for j, coords in enumerate(positives):
            index[coords] = j
            index[tuple(-c for c in coords)] = n_pos + j
        self._index = index
        self.supports = tuple(
            frozenset(i for i, c in enumerate(coords) if c != 0)
            for coords in positives
        )
        # s_i(-beta) = -s_i(beta): the negative half is the positive half negated
        tables = []
        for i in range(self.rank):
            half = [index[images[coords][i]] for coords in positives]
            tables.append(tuple(half + [self.neg(x) for x in half]))
        self.simple_tables = tuple(tables)
        self.simple_positions = tuple(index[coords] for coords in simples)
        if self.crystallographic:
            counts = {}
            for h in self.heights:
                counts[h] = counts.get(h, 0) + 1
            parts = [counts[h] for h in sorted(counts)]
            if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
                raise InternalError("height distribution is not a partition")
            conj = conjugate_partition(parts)
            self.exponents = tuple(sorted(conj))
        else:
            self.exponents = _H_EXPONENTS[self.rank]

    def _build_dihedral(self) -> None:
        m = self.m
        self.positive_roots = None
        self.n_positive = m
        self.heights = None
        self.supports = tuple(
            frozenset({0}) if j == 0 else frozenset({1}) if j == m - 1 else frozenset({0, 1})
            for j in range(m)
        )
        # root index x <-> ray (-x) mod 2m; reflection rho_j acts on indices
        # by x -> (m - 2j - x) mod 2m, and rho_0, rho_1 are the two simples
        self.simple_tables = (
            tuple((m - x) % (2 * m) for x in range(2 * m)),
            tuple((m - 2 - x) % (2 * m) for x in range(2 * m)),
        )
        self.simple_positions = (0, m - 1)
        self.exponents = (1, m - 1)

    # -- invariant checks --------------------------------------------------

    def _validate(self) -> None:
        n, N = self.rank, self.n_positive
        e = self.exponents
        if sum(e) != N:
            raise InternalError(f"{self.label}: exponent sum {sum(e)} != {N}")
        if 2 * N % n:
            raise InternalError(f"{self.label}: 2N not divisible by rank")
        if e[0] != 1 or e[-1] != self.coxeter_number - 1:
            raise InternalError(f"{self.label}: exponent endpoints wrong")
        for table in self.simple_tables:
            if sorted(table) != list(range(2 * N)):
                raise InternalError(f"{self.label}: reflection table not a bijection")
        if self.positive_roots is not None:
            for support in self.supports:
                if not self._support_connected(support):
                    raise InternalError(f"{self.label}: disconnected root support")
            # height 1 exactly for simple roots, so they lead the canonical order
            for pos in self.simple_positions:
                if pos >= n:
                    raise InternalError(f"{self.label}: simple roots not first in order")

    def _support_connected(self, support: frozenset) -> bool:
        """One orbit along the diagram edges inside the support covers it."""
        edges = [(a, b) for (a, b) in self.edges if a in support and b in support]
        reached = orbit(
            sorted(support)[:1], lambda i: [b if a == i else a for (a, b) in edges if i in (a, b)]
        )
        return bool(support) and len(reached) == len(support)

    # -- basic data --------------------------------------------------------

    @property
    def coxeter_number(self) -> int:
        return 2 * self.n_positive // self.rank

    @property
    def order(self) -> int:
        w = 1
        for e in self.exponents:
            w *= e + 1
        return w

    def root_index(self, coords: tuple) -> int:
        return self._index[coords]

    def neg(self, x: int) -> int:
        """Index of the negative of root x."""
        N = self.n_positive
        return x + N if x < N else x - N

    def identity_table(self) -> tuple:
        return tuple(range(2 * self.n_positive))

    def root_name(self, x: int) -> str:
        N = self.n_positive
        sign = "" if x < N else "-"
        j = x if x < N else x - N
        if self.positive_roots is not None:
            coords = self.positive_roots[j]
            return sign + "(" + ",".join(str(c) for c in coords) + ")"
        return f"{sign}p{j}"

    # -- full reflections ----------------------------------------------------

    def full_reflection_count(self) -> int:
        """Number of reflections not contained in a proper parabolic.

        The reflection of beta lies in the parabolic of a subset J exactly
        when beta is in the span of J, so these are the roots of full support.
        """
        return sum(1 for s in self.supports if len(s) == self.rank)

    def formula_value(self) -> Fraction:
        """(n h / |W|) * product of (e_i - 1) over the exponents above 1."""
        prod = 1
        for e in self.exponents[1:]:
            prod *= e - 1
        return Fraction(self.rank * self.coxeter_number * prod, self.order)


@command_cache
def build_root_system(label: str) -> RootSystem:
    """Construct (and cache) the root system for a type label like "B3"."""
    return RootSystem(label)
