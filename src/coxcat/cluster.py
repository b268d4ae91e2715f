"""Cluster complexes on almost-positive roots.

Vertices are indexed 0..n+N-1: vertex i < n is the negative simple -alpha_i
(node i), vertex n+j is positive root j.  Compatibility is defined through
the two rotation maps tau, induced by the bipartition of the Coxeter diagram
that is computed here.  They rotate every vertex at once, so each vertex's
compatibility degrees with all vertices come out as one row.  Two vertices
are compatible when both mutual compatibility degrees vanish, and the faces
of the complex are exactly the cliques of that relation.  One pivoted walk
over that graph (kernels.clique_tally, the kernel that also tallies the
root poset's antichains) gives both the face polynomial F and the maximal
faces (the clusters), which must number Cat(W).  The complex is built
under the same Catalan budget as the root poset's antichains, which also
number Cat(W), with no override.
"""

from __future__ import annotations

from typing import Tuple

from . import kernels
from .errors import CheckFailed, InternalError, UsageError
from .exact import BiPoly, bipoly_substitute, command_cache
from .poset import (
    check_catalan_budget,
    enumerate_antichains,
    generalized_catalan,
    h_polynomial,
)
from .rootsys import RootSystem, orbit


def _check_crystallographic(rs: RootSystem) -> None:
    if not rs.crystallographic:
        raise UsageError(f"{rs.label}: cluster complex needs integer coordinates")


def vertex_count(rs: RootSystem) -> int:
    return rs.rank + rs.n_positive


def _bipartition(n: int, edges: list) -> Tuple[frozenset, frozenset]:
    """Two-colour the (tree) diagram, node 0 in the plus part."""
    neighbours = {i: [] for i in range(n)}
    for (i, j) in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    # a tree reaches each node once, with one colour
    coloured = orbit([(0, 0)], lambda node: [(j, 1 - node[1]) for j in neighbours[node[0]]])
    if len(coloured) != n:
        raise InternalError("Coxeter diagram is not connected")
    plus = frozenset(i for i, c in coloured if c == 0)
    minus = frozenset(range(n)) - plus
    return plus, minus


def _tau_tables(rs: RootSystem) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The rotations tau_+ and tau_- as permutations of the vertices.

    tau_eps is the product of the simple reflections of one bipartition
    half on the positive roots, and on a negative simple of that half it
    is the product applied to its negative; the other negative simples
    stay fixed.
    """
    _check_crystallographic(rs)
    n, N = rs.rank, rs.n_positive
    vertex_of_simple = {pos: i for i, pos in enumerate(rs.simple_positions)}
    out = []
    for part in _bipartition(rs.rank, rs.edges):
        sigma = rs.identity_table()
        for i in sorted(part):
            s = rs.simple_tables[i]
            sigma = tuple(s[x] for x in sigma)
        images = []
        for v in range(n + N):
            if v < n:
                if v not in part:
                    images.append(v)
                    continue
                root = sigma[rs.neg(rs.simple_positions[v])]
            else:
                root = sigma[v - n]
            if root < N:
                images.append(n + root)
            elif root - N in vertex_of_simple:
                images.append(vertex_of_simple[root - N])
            else:
                raise InternalError(f"{rs.label}: tau image is a non-simple negative root")
        out.append(tuple(images))
    return out[0], out[1]


@command_cache
def _compatibility_rows(rs: RootSystem) -> Tuple[bytes, ...]:
    """Row u holds the compatibility degree of u with every vertex v.

    The pair (u, v) is rotated by tau_+, tau_-, tau_+, ... until u is a
    negative simple -alpha_i; the degree is then the alpha_i coordinate of
    v, or 0 when v is a negative simple.  The rotations do not depend on u,
    so each rotation step moves every vertex at once, and a row is read as
    soon as its u lands on a negative simple.  Degrees are root
    coordinates, far below 256, so a row fits in bytes.
    """
    tau_plus, tau_minus = _tau_tables(rs)
    n = rs.rank
    n_vertices = vertex_count(rs)
    coordinate = [
        bytes(n) + bytes(coords[i] for coords in rs.positive_roots) for i in range(n)
    ]
    bound = 2 * (rs.coxeter_number + 2)
    rows: list = [None] * n_vertices
    pending = list(range(n_vertices))
    position = tuple(range(n_vertices))  # position[v]: v after the steps so far
    for steps in range(bound + 1):
        waiting = []
        for u in pending:
            if position[u] < n:
                rows[u] = bytes(map(coordinate[position[u]].__getitem__, position))
            else:
                waiting.append(u)
        pending = waiting
        if not pending:
            return tuple(rows)
        tau = tau_minus if steps % 2 else tau_plus
        position = tuple(map(tau.__getitem__, position))
    raise InternalError(f"{rs.label}: compatibility rotation exceeded {bound}")


def compatibility_degree(rs: RootSystem, u: int, v: int) -> int:
    """Compatibility degree of vertex u with vertex v (not symmetric in general)."""
    return _compatibility_rows(rs)[u][v]


class ClusterComplex:
    """Compatibility graph of a crystallographic root system.

    Construction runs one pivoted walk over the graph (kernels.clique_tally,
    with no edge masks) and keeps its face counts and its (clusters,
    smallest size) pair; f_tally and maximal_face_count both read that one
    result.  Refused (CapacityExceeded) when Cat(W), the number of
    clusters, exceeds the enumeration budget.
    """

    def __init__(self, rs: RootSystem):
        _check_crystallographic(rs)
        check_catalan_budget(rs)
        self.rs = rs
        n_vertices = vertex_count(rs)
        self.n_vertices = n_vertices
        rows = _compatibility_rows(rs)
        self.adjacency = [0] * n_vertices
        for u in range(n_vertices):
            row = rows[u]
            for v in range(u + 1, n_vertices):
                if not row[v] and not rows[v][u]:
                    self.adjacency[u] |= 1 << v
                    self.adjacency[v] |= 1 << u
        self._faces, self._clusters = kernels.clique_tally(
            self.adjacency,
            special_mask=(1 << rs.rank) - 1,
            edge_masks=[0] * n_vertices,
            max_size=rs.rank,
        )

    def f_tally(self) -> BiPoly:
        """F(x, y): face counts by x^(#positive vertices) y^(#negative simples)."""
        return BiPoly(((j, l), c) for (j, l, _), c in self._faces.items())

    def maximal_face_count(self) -> Tuple[int, int]:
        """(number of maximal faces, minimum size among them)."""
        return self._clusters


def f_polynomial(rs: RootSystem) -> BiPoly:
    """F(x, y) = sum of x^(positive vertices) y^(negative simples) over faces."""
    return ClusterComplex(rs).f_tally()


def verify_hf_conjecture(rs: RootSystem) -> dict:
    """Check H(x,y) = (1-x)^n F(x/(1-x), xy/(1-x)) exactly.

    Also checks that the clusters number Cat(W) and all have n members
    (Fomin-Zelevinsky 2003): the complex is pure of dimension n - 1.
    """
    h_poly = h_polynomial(enumerate_antichains(rs))
    complex_ = ClusterComplex(rs)
    f_poly = complex_.f_tally()
    transformed = bipoly_substitute(f_poly, rs.rank)
    if transformed != h_poly:
        diff = transformed - h_poly
        raise CheckFailed(
            f"{rs.label}: H != transformed F; difference terms {diff!r}"
        )
    clusters = complex_.maximal_face_count()
    expected = (generalized_catalan(rs), rs.rank)
    if clusters != expected:
        raise CheckFailed(
            f"{rs.label}: (maximal faces, smallest size) = {clusters}, "
            f"expected (Cat(W), n) = {expected}"
        )
    return {"h": h_poly, "f": f_poly, "transformed": transformed}
