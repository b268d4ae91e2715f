"""The root poset and its antichain combinatorics.

The positive roots of a crystallographic system are ordered by alpha <= beta
iff beta - alpha has nonnegative coordinates.  Antichains are enumerated as
cliques of the incomparability graph, tallied by cardinality, number of
simple-root members, and the set of diagram edges covered by the union of
the members' supports.  Everything downstream (the Narayana, h- and
full-support generating polynomials) is read off that tally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, Optional, Sequence, Tuple

from . import kernels
from .errors import CapacityExceeded, LemmaViolation, NonCrystallographic
from .exact import BiPoly
from .rootsys import RootSystem, build_root_system

_RANK_CAP = 8  # enumeration refuses above this; every supported type fits


class RootPoset:
    """Incomparability structure of the positive roots, as bitmasks."""

    def __init__(self, rs: RootSystem, nodes: Optional[frozenset] = None):
        if not rs.crystallographic:
            raise NonCrystallographic(f"{rs.label} has no integer root poset")
        if rs.rank > _RANK_CAP:
            raise CapacityExceeded(
                f"{rs.label}: rank {rs.rank} exceeds the antichain enumeration cap {_RANK_CAP}"
            )
        self.rs = rs
        self.nodes = frozenset(range(rs.rank)) if nodes is None else nodes
        self.root_ids = [
            j for j in range(rs.n_positive) if rs.supports[j] <= self.nodes
        ]
        self.size = len(self.root_ids)
        roots = [rs.positive_roots[j] for j in self.root_ids]
        n = self.size
        self.incomparable = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if not (_leq(roots[a], roots[b]) or _leq(roots[b], roots[a])):
                    self.incomparable[a] |= 1 << b
                    self.incomparable[b] |= 1 << a
        self.edge_list = sorted(
            e for e in rs.datum.edges if e[0] in self.nodes and e[1] in self.nodes
        )
        edge_pos = {e: i for i, e in enumerate(self.edge_list)}
        self.simple_mask = 0
        self.edge_masks = [0] * n
        for a, j in enumerate(self.root_ids):
            support = rs.supports[j]
            if len(support) == 1:
                self.simple_mask |= 1 << a
            for e in self.edge_list:
                if e[0] in support and e[1] in support:
                    self.edge_masks[a] |= 1 << edge_pos[e]

    def leq(self, a: int, b: int) -> bool:
        """Compare two positive roots by their local indices."""
        roots = self.rs.positive_roots
        return _leq(roots[self.root_ids[a]], roots[self.root_ids[b]])

    def iter_antichains(self) -> Iterator[Tuple[int, ...]]:
        """Yield antichains as tuples of local root indices (empty one first)."""
        for mask in kernels.iter_cliques(self.incomparable):
            yield tuple(a for a in range(self.size) if (mask >> a) & 1)


def _leq(u: tuple, v: tuple) -> bool:
    return all(x <= y for x, y in zip(u, v))


@dataclass(frozen=True)
class AntichainTally:
    """Antichain counts keyed by (cardinality, simple members, edge mask)."""

    counts: tuple  # sorted ((k, l, edge_mask), count) pairs
    n_edges: int
    rank: int

    @staticmethod
    def from_poset(poset: RootPoset) -> "AntichainTally":
        raw = kernels.clique_tally(
            poset.incomparable,
            poset.simple_mask,
            poset.edge_masks,
            max_size=max(len(poset.nodes), 1),
        )
        counts = {}
        for (j, l, em), c in raw.items():
            counts[(j + l, l, em)] = counts.get((j + l, l, em), 0) + c
        return AntichainTally(
            counts=tuple(sorted(counts.items())),
            n_edges=len(poset.edge_list),
            rank=len(poset.nodes),
        )

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def by_cardinality(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for (k, _, _), c in self.counts:
            out[k] = out.get(k, 0) + c
        return out

    def by_cardinality_simples(self) -> Dict[Tuple[int, int], int]:
        out: Dict[Tuple[int, int], int] = {}
        for (k, l, _), c in self.counts:
            out[(k, l)] = out.get((k, l), 0) + c
        return out

    def full_type_by_cardinality(self) -> Dict[int, int]:
        """Counts of antichains whose support covers every diagram edge."""
        full = (1 << self.n_edges) - 1
        out: Dict[int, int] = {}
        for (k, _, em), c in self.counts:
            if em == full:
                out[k] = out.get(k, 0) + c
        return out


def enumerate_antichains(rs: RootSystem) -> AntichainTally:
    return AntichainTally.from_poset(RootPoset(rs))


def narayana_polynomial(tally: AntichainTally) -> BiPoly:
    """N(x): antichains graded by cardinality."""
    return BiPoly({(k, 0): c for k, c in tally.by_cardinality().items()})


def h_polynomial(tally: AntichainTally) -> BiPoly:
    """H(x, y): x tracks cardinality, y tracks simple-root members."""
    return BiPoly({(k, l): c for (k, l), c in tally.by_cardinality_simples().items()})


def p_polynomial_direct(tally: AntichainTally) -> BiPoly:
    """P(x): antichains whose supports cover the whole diagram."""
    return BiPoly({(k, 0): c for k, c in tally.full_type_by_cardinality().items()})


def generalized_catalan(rs: RootSystem) -> int:
    """prod (e_i + h + 1)/(e_i + 1); counts all antichains."""
    value = Fraction(1)
    for e in rs.exponents:
        value *= Fraction(e + rs.coxeter_number + 1, e + 1)
    if value.denominator != 1:
        raise ArithmeticError(f"{rs.label}: Catalan product is not an integer")
    return value.numerator


@lru_cache(maxsize=None)
def _narayana_for_nodes(label: str, nodes: frozenset) -> BiPoly:
    rs = build_root_system(label)
    if not nodes:
        return BiPoly.one()
    tally = AntichainTally.from_poset(RootPoset(rs, nodes))
    return narayana_polynomial(tally)


def p_polynomial_mobius(rs: RootSystem) -> BiPoly:
    """P(x) by inclusion-exclusion over the covered-edge sets.

    For each subset E of diagram edges, the antichains supported inside
    (nodes, E) split over the connected components, each a standard parabolic,
    so their Narayana polynomials multiply.
    """
    edges = list(rs.datum.edges)
    n_edges = len(edges)
    total = BiPoly.zero()
    for picked in range(1 << n_edges):
        subset = [edges[i] for i in range(n_edges) if (picked >> i) & 1]
        sign = (-1) ** (n_edges - len(subset))
        product = BiPoly.one()
        for component in _components(rs.rank, subset):
            product = product * _narayana_for_nodes(rs.label, component)
        total = total + sign * product
    return total


def _components(n: int, edges: Sequence[tuple]) -> list:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b) in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: Dict[int, set] = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return [frozenset(g) for g in groups.values()]


def check_antichain_lemmas(poset: RootPoset) -> dict:
    """Verify the structural facts about antichains of the full root poset.

    (a) the maximal antichain cardinality is n, achieved only by the simples;
    (b) a cardinality-(n-1) antichain is full-type iff it has no simple root;
    (c) N(x) = x^n N(1/x);
    (d) P(x) = x^n P(1/x);
    (e) the x^(n-1) coefficient of P equals the full reflection count;
    (f) the (n-1, 0) coefficient of H equals the full reflection count.
    Raises LemmaViolation naming the clause and a witness on failure.
    """
    rs = poset.rs
    tally = AntichainTally.from_poset(poset)
    n = rs.rank
    by_card = tally.by_cardinality()
    by_cs = tally.by_cardinality_simples()
    if max(by_card) != n or by_card[n] != 1 or by_cs.get((n, n), 0) != 1:
        witness = _witness(
            poset,
            lambda ac: len(ac) == max(by_card)
            and set(poset.root_ids[a] for a in ac) != set(rs.simple_positions),
        )
        raise LemmaViolation(
            f"(a) maximal antichains are not exactly the simples: witness {witness}"
        )
    full = (1 << tally.n_edges) - 1
    for (k, l, em), c in tally.counts:
        if k == n - 1 and ((em == full) != (l == 0)):
            witness = _witness(
                poset,
                lambda ac: len(ac) == n - 1
                and _covers_all(poset, ac)
                == any(len(rs.supports[poset.root_ids[a]]) == 1 for a in ac),
            )
            raise LemmaViolation(
                f"(b) full-type iff no simple root fails at (k,l,edges)="
                f"({k},{l},{em:b}): witness {witness}"
            )
    n_poly = narayana_polynomial(tally)
    if n_poly != n_poly.reverse_x(n):
        raise LemmaViolation(f"(c) Narayana polynomial not palindromic: {n_poly!r}")
    p_direct = p_polynomial_direct(tally)
    if p_direct != p_direct.reverse_x(n):
        raise LemmaViolation(f"(d) full-type polynomial not palindromic: {p_direct!r}")
    f_count = rs.full_reflection_count()
    if p_direct.coefficient(n - 1, 0) != f_count:
        raise LemmaViolation(
            f"(e) P coefficient {p_direct.coefficient(n - 1, 0)} != full count {f_count}"
        )
    h_poly = h_polynomial(tally)
    if h_poly.coefficient(n - 1, 0) != f_count:
        raise LemmaViolation(
            f"(f) H(n-1, 0) coefficient {h_poly.coefficient(n - 1, 0)} != {f_count}"
        )
    return {
        "total": tally.total,
        "narayana": n_poly,
        "p_direct": p_direct,
        "p_top": p_direct.coefficient(n - 1, 0),
        "full_count": f_count,
    }


def _covers_all(poset: RootPoset, antichain: tuple) -> bool:
    em = 0
    for a in antichain:
        em |= poset.edge_masks[a]
    return em == (1 << len(poset.edge_list)) - 1


def _witness(poset: RootPoset, predicate) -> Optional[tuple]:
    for antichain in poset.iter_antichains():
        if predicate(antichain):
            return tuple(poset.root_ids[a] for a in antichain)
    return None
