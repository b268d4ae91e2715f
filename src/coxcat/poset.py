"""The root poset and its antichain combinatorics.

The positive roots of a crystallographic system are ordered by alpha <= beta
iff beta - alpha has nonnegative coordinates; the comparabilities are closed
from the cover relation (adding one simple root), not compared pair by pair.
Antichains are enumerated as cliques of the incomparability graph, by the
pivoted walk (kernels.clique_tally) that also counts the cluster complex's
faces, and tallied by cardinality, number of simple-root members, and the
set of diagram edges covered by the union of the members' supports.
Everything downstream (the Narayana, h- and full-support generating
polynomials) is read off that tally; the inclusion-exclusion form of P
splits each covered-edge set into diagram components (the orbits of its
edges), multiplies their integer coefficient lists and makes one polynomial
at the end.  Antichain enumeration is refused beyond a budget on Cat(W),
the number of antichains.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from . import kernels
from .errors import CapacityExceeded, CheckFailed, InternalError, UsageError
from .exact import BiPoly, add_scaled, command_cache, int_poly_mul
from .rootsys import RootSystem, orbit, orbits

# Both antichains and clusters number Cat(W), and this one budget caps both,
# with no override.  Every exceptional type fits (Cat(E8) = 25,080), and so
# do A12, B11, C11 and D11; the largest admitted, A12 (742,900), runs
# `verify all` in about 2.8 s (2.6-4.2 s) and 32 MB, and `fpoly` in 2.2 s
# (1.6-2.9 s) and 16 MB, on 2 vCPUs under Python 3.11 (median of 6 runs).
_CATALAN_BUDGET = 1_000_000


class RootPoset:
    """Incomparability structure of the positive roots, as bitmasks."""

    def __init__(self, rs: RootSystem, nodes: Optional[frozenset] = None):
        if not rs.crystallographic:
            raise UsageError(f"{rs.label} has no integer root poset")
        check_catalan_budget(rs)
        self.rs = rs
        self.nodes = frozenset(range(rs.rank)) if nodes is None else nodes
        self.root_ids = [
            j for j in range(rs.n_positive) if rs.supports[j] <= self.nodes
        ]
        self.size = n = len(self.root_ids)
        # beta <= gamma exactly when gamma is reached from beta by adding
        # simple roots one at a time through positive roots, all supported
        # inside the nodes when gamma is; roots are in height order, so the
        # roots above a root close from its covers, which come later
        local = {j: a for a, j in enumerate(self.root_ids)}
        covers = _upper_covers(rs)
        up = [[local[k] for k in covers[j] if k in local] for j in self.root_ids]
        above = [0] * n
        for a in reversed(range(n)):
            mask = 1 << a
            for b in up[a]:
                mask |= above[b]
            above[a] = mask
        below = [1 << a for a in range(n)]
        for a in range(n):
            for b in up[a]:
                below[b] |= below[a]
        full = (1 << n) - 1
        self.incomparable = [full ^ (x | y) for x, y in zip(above, below)]
        self.edge_list = sorted(
            e for e in rs.edges if e[0] in self.nodes and e[1] in self.nodes
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


@command_cache
def _upper_covers(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """For each positive root beta_j, the k with beta_k - beta_j a simple root."""
    index = {coords: j for j, coords in enumerate(rs.positive_roots)}
    out = []
    for coords in rs.positive_roots:
        raised = (
            index.get(coords[:i] + (coords[i] + 1,) + coords[i + 1:])
            for i in range(rs.rank)
        )
        out.append(tuple(k for k in raised if k is not None))
    return tuple(out)


class AntichainTally(NamedTuple):
    """Antichain counts keyed by (cardinality, simple members, edge mask)."""

    counts: tuple  # sorted ((k, l, edge_mask), count) pairs
    n_edges: int

    @staticmethod
    def from_poset(poset: RootPoset) -> "AntichainTally":
        raw, _ = kernels.clique_tally(
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
        )

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)


@command_cache
def enumerate_antichains(
    rs: RootSystem, nodes: Optional[frozenset] = None
) -> AntichainTally:
    """Antichain tally of the full root poset, or of the parabolic on nodes."""
    return AntichainTally.from_poset(RootPoset(rs, nodes))


def narayana_polynomial(tally: AntichainTally) -> BiPoly:
    """N(x): antichains graded by cardinality."""
    return BiPoly(((k, 0), c) for (k, _, _), c in tally.counts)


def h_polynomial(tally: AntichainTally) -> BiPoly:
    """H(x, y): x tracks cardinality, y tracks simple-root members."""
    return BiPoly(((k, l), c) for (k, l, _), c in tally.counts)


def p_polynomial_direct(tally: AntichainTally) -> BiPoly:
    """P(x): antichains whose supports cover the whole diagram."""
    full = (1 << tally.n_edges) - 1
    return BiPoly(((k, 0), c) for (k, _, em), c in tally.counts if em == full)


def generalized_catalan(rs: RootSystem) -> int:
    """prod (e_i + h + 1)/(e_i + 1); counts all antichains."""
    value = Fraction(1)
    for e in rs.exponents:
        value *= Fraction(e + rs.coxeter_number + 1, e + 1)
    if value.denominator != 1:
        raise InternalError(f"{rs.label}: Catalan product {value} is not an integer")
    return value.numerator


def check_catalan_budget(rs: RootSystem) -> None:
    """Refuse to enumerate antichains or clusters when Cat(W) exceeds the budget."""
    catalan = generalized_catalan(rs)
    if catalan > _CATALAN_BUDGET:
        raise CapacityExceeded(
            f"{rs.label}: Cat(W) = {catalan} exceeds the enumeration budget "
            f"{_CATALAN_BUDGET}"
        )


def p_polynomial_mobius(rs: RootSystem) -> BiPoly:
    """P(x) by inclusion-exclusion over the covered-edge sets.

    For each subset E of diagram edges, the antichains supported inside
    (nodes, E) split over the connected components, each a standard parabolic,
    so their Narayana polynomials multiply.  Every term is a count, so the
    sum runs over integer coefficient lists, one per distinct component.
    """
    edges = list(rs.edges)
    n_edges = len(edges)
    narayana: Dict[frozenset, list] = {}
    total = [0] * (rs.rank + 1)
    for picked in range(1 << n_edges):
        subset = [edges[i] for i in range(n_edges) if (picked >> i) & 1]
        sign = (-1) ** (n_edges - len(subset))
        product = [sign]
        for component in _components(rs.rank, subset):
            factor = narayana.get(component)
            if factor is None:
                # the whole diagram is the full poset: call it with the same
                # arguments as every other caller, so the cached tally is shared
                tally = (
                    enumerate_antichains(rs)
                    if len(component) == rs.rank
                    else enumerate_antichains(rs, component)
                )
                n_poly = narayana_polynomial(tally)
                factor = [n_poly.coefficient(k) for k in range(len(component) + 1)]
                narayana[component] = factor
            product = int_poly_mul(product, factor)
        add_scaled(total, product, 1)
    return BiPoly({(k, 0): c for k, c in enumerate(total)})


def _components(n: int, edges: Sequence[tuple]) -> list:
    """The connected components of (range(n), edges), smallest node first."""
    neighbours = [[] for _ in range(n)]
    for (a, b) in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    return [frozenset(c) for c in orbits(range(n), neighbours.__getitem__)]


def check_antichain_lemmas(rs: RootSystem) -> dict:
    """Verify the structural facts about antichains of the full root poset.

    (a) the maximal antichain cardinality is n, achieved only by the simples;
    (b) a cardinality-(n-1) antichain is full-type iff it has no simple root;
    (c) N(x) = x^n N(1/x);
    (d) P(x) = x^n P(1/x);
    (e) the x^(n-1) coefficient of P equals the full reflection count;
    (f) the (n-1, 0) coefficient of H equals the full reflection count;
    (g) the antichains number Cat(W) (Athanasiadis 2004).
    Raises CheckFailed naming the clause and a witness on failure; only
    then is the poset built, to search its antichains for the witness.
    """
    tally = enumerate_antichains(rs)
    n = rs.rank
    n_poly = narayana_polynomial(tally)
    h_poly = h_polynomial(tally)
    largest = max(k for k, _ in n_poly.terms)
    if largest != n or n_poly.coefficient(n) != 1 or h_poly.coefficient(n, n) != 1:
        poset = RootPoset(rs)
        witness = _witness(
            poset,
            lambda ac: len(ac) == largest
            and set(poset.root_ids[a] for a in ac) != set(rs.simple_positions),
        )
        raise CheckFailed(
            f"(a) maximal antichains are not exactly the simples: witness {witness}"
        )
    full = (1 << tally.n_edges) - 1
    for (k, l, em), c in tally.counts:
        if k == n - 1 and ((em == full) != (l == 0)):
            poset = RootPoset(rs)
            witness = _witness(
                poset,
                lambda ac: len(ac) == n - 1
                and _covers_all(poset, ac)
                == any(len(rs.supports[poset.root_ids[a]]) == 1 for a in ac),
            )
            raise CheckFailed(
                f"(b) full-type iff no simple root fails at (k,l,edges)="
                f"({k},{l},{em:b}): witness {witness}"
            )
    if n_poly != n_poly.reverse_x(n):
        raise CheckFailed(f"(c) Narayana polynomial not palindromic: {n_poly!r}")
    p_direct = p_polynomial_direct(tally)
    if p_direct != p_direct.reverse_x(n):
        raise CheckFailed(f"(d) full-type polynomial not palindromic: {p_direct!r}")
    f_count = rs.full_reflection_count()
    if p_direct.coefficient(n - 1, 0) != f_count:
        raise CheckFailed(
            f"(e) P coefficient {p_direct.coefficient(n - 1, 0)} != full count {f_count}"
        )
    if h_poly.coefficient(n - 1, 0) != f_count:
        raise CheckFailed(
            f"(f) H(n-1, 0) coefficient {h_poly.coefficient(n - 1, 0)} != {f_count}"
        )
    catalan = generalized_catalan(rs)
    if tally.total != catalan:
        raise CheckFailed(f"(g) {tally.total} antichains, Cat(W) = {catalan}")
    return {
        "total": tally.total,
        "narayana": n_poly,
        "p_direct": p_direct,
        # a Fraction, so reports print it as "f/1" like the formula value
        "p_top": Fraction(p_direct.coefficient(n - 1, 0)),
        "full_count": f_count,
    }


def _covers_all(poset: RootPoset, antichain: tuple) -> bool:
    em = 0
    for a in antichain:
        em |= poset.edge_masks[a]
    return em == (1 << len(poset.edge_list)) - 1


def _witness(poset: RootPoset, predicate) -> Optional[tuple]:
    """Root indices of the first antichain satisfying predicate, or None.

    Antichains (tuples of local indices) grow by a member of higher index
    than the last, so the walk meets each once, cardinality by cardinality,
    each cardinality in lexicographic order.
    """

    def grow(state):
        antichain, cand = state
        while cand:
            low = cand & -cand
            b = low.bit_length() - 1
            cand ^= low
            yield antichain + (b,), cand & poset.incomparable[b]

    for antichain, _ in orbit([((), (1 << poset.size) - 1)], grow):
        if predicate(antichain):
            return tuple(poset.root_ids[a] for a in antichain)
    return None
