"""Cluster complexes on almost-positive roots.

Vertices are indexed 0..n+N-1: vertex i < n is the negative simple -alpha_i
(node i), vertex n+j is positive root j.  Compatibility is defined through
the two rotation maps tau induced by the diagram bipartition; two vertices
are compatible when both mutual compatibility degrees vanish, and the faces
of the complex are exactly the cliques of that relation.  The face
polynomial F comes from the clique tally; the maximal faces (the clusters)
from a separate pivoted walk over the same graph.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Dict, Tuple

from . import kernels
from .errors import CheckFailed, InternalError, UsageError
from .exact import BiPoly, bipoly_substitute
from .poset import check_catalan_budget, enumerate_antichains, h_polynomial
from .rootsys import RootSystem


def _check_crystallographic(rs: RootSystem) -> None:
    if not rs.crystallographic:
        raise UsageError(f"{rs.label}: cluster complex needs integer coordinates")


def vertex_count(rs: RootSystem) -> int:
    return rs.rank + rs.n_positive


@lru_cache(maxsize=None)
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
    for part in (rs.datum.iplus, rs.datum.iminus):
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


def tau_map(rs: RootSystem, eps: int, v: int) -> int:
    """Rotation map on vertices; eps is +1 or -1 picking the bipartition half."""
    return _tau_tables(rs)[0 if eps > 0 else 1][v]


def compatibility_degree(rs: RootSystem, u: int, v: int) -> int:
    """Rotate the pair until u is a negative simple, then read off v."""
    tau_plus, tau_minus = _tau_tables(rs)
    n = rs.rank
    bound = 2 * (rs.coxeter_number + 2)
    steps = 0
    while u >= n:
        if steps >= bound:
            raise InternalError(f"{rs.label}: compatibility rotation exceeded {bound}")
        tau = tau_minus if steps % 2 else tau_plus
        u, v = tau[u], tau[v]
        steps += 1
    if v < n:
        return 0
    coeff = rs.positive_roots[v - n][u]
    return coeff if coeff > 0 else 0


class ClusterComplex:
    """Compatibility graph of a crystallographic root system.

    F is read off the clique tally, made on first use; the maximal faces
    are counted by kernels.maximal_cliques.
    """

    def __init__(self, rs: RootSystem, allow_large: bool = False):
        _check_crystallographic(rs)
        if not allow_large:
            check_catalan_budget(rs)
        self.rs = rs
        n_vertices = vertex_count(rs)
        self.n_vertices = n_vertices
        self.adjacency = [0] * n_vertices
        for u in range(n_vertices):
            for v in range(u + 1, n_vertices):
                if (
                    compatibility_degree(rs, u, v) == 0
                    and compatibility_degree(rs, v, u) == 0
                ):
                    self.adjacency[u] |= 1 << v
                    self.adjacency[v] |= 1 << u

    @cached_property
    def _faces(self) -> Dict[kernels.TallyKey, int]:
        """Faces keyed by (positive vertices, negative simples, 0)."""
        return kernels.clique_tally(
            self.adjacency,
            special_mask=(1 << self.rs.rank) - 1,
            edge_masks=[0] * self.n_vertices,
            max_size=self.rs.rank,
        )

    def f_tally(self) -> BiPoly:
        """F(x, y): face counts by x^(#positive vertices) y^(#negative simples)."""
        out: dict = {}
        for (k, l, _), c in self._faces.items():
            out[(k, l)] = out.get((k, l), 0) + c
        return BiPoly(out)

    def maximal_face_count(self) -> Tuple[int, int]:
        """(number of maximal faces, minimum size among them)."""
        return kernels.maximal_cliques(self.adjacency)


def f_polynomial(rs: RootSystem, allow_large: bool = False) -> BiPoly:
    """F(x, y) = sum of x^(positive vertices) y^(negative simples) over faces."""
    return ClusterComplex(rs, allow_large=allow_large).f_tally()


def verify_hf_conjecture(rs: RootSystem, allow_large: bool = False) -> dict:
    """Check H(x,y) = (1-x)^n F(x/(1-x), xy/(1-x)) exactly."""
    h_poly = h_polynomial(enumerate_antichains(rs))
    f_poly = f_polynomial(rs, allow_large=allow_large)
    transformed = bipoly_substitute(f_poly, rs.rank)
    if transformed != h_poly:
        diff = transformed - h_poly
        raise CheckFailed(
            f"{rs.label}: H != transformed F; difference terms {diff.sorted_terms()}"
        )
    return {"h": h_poly, "f": f_poly, "transformed": transformed}
