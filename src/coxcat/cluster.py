"""Cluster complexes on almost-positive roots.

Vertices are indexed 0..n+N-1: vertex i < n is the negative simple -alpha_i
(node i), vertex n+j is positive root j.  Compatibility is defined through
the two rotation maps tau induced by the diagram bipartition; two vertices
are compatible when both mutual compatibility degrees vanish, and the faces
of the complex are exactly the cliques of that relation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from . import kernels
from .errors import (
    CapacityExceeded,
    ConjectureFails,
    InvariantBroken,
    NonCrystallographic,
    NonTermination,
)
from .exact import BiPoly, bipoly_substitute
from .poset import RootPoset, AntichainTally, h_polynomial
from .rootsys import RootSystem


def _check_crystallographic(rs: RootSystem) -> None:
    if not rs.crystallographic:
        raise NonCrystallographic(f"{rs.label}: cluster complex needs integer coordinates")


@lru_cache(maxsize=None)
def _sigma_tables(label: str) -> Tuple[tuple, tuple]:
    """Root-permutation tables of the two bipartite products of simples."""
    from .rootsys import build_root_system

    rs = build_root_system(label)
    out = []
    for part in (rs.datum.iplus, rs.datum.iminus):
        table = rs.identity_table()
        for i in sorted(part):
            s = rs.simple_tables[i]
            table = tuple(s[x] for x in table)
        out.append(table)
    return tuple(out)


def vertex_count(rs: RootSystem) -> int:
    return rs.rank + rs.n_positive


def vertex_name(rs: RootSystem, v: int) -> str:
    if v < rs.rank:
        return f"-alpha{v + 1}"
    return rs.root_name(v - rs.rank)


def tau_map(rs: RootSystem, eps: int, v: int) -> int:
    """Rotation map on vertices; eps is +1 or -1 picking the bipartition half."""
    _check_crystallographic(rs)
    part = rs.datum.iplus if eps > 0 else rs.datum.iminus
    sigma = _sigma_tables(rs.label)[0 if eps > 0 else 1]
    n, N = rs.rank, rs.n_positive
    if v < n:
        if v not in part:
            return v
        root = sigma[rs.neg(rs.simple_positions[v])]
    else:
        root = sigma[v - n]
    if root < N:
        return n + root
    j = root - N
    for i in range(n):
        if rs.simple_positions[i] == j:
            return i
    raise InvariantBroken(f"{rs.label}: tau image is a non-simple negative root")


def compatibility_degree(rs: RootSystem, u: int, v: int) -> int:
    """Rotate the pair until u is a negative simple, then read off v."""
    _check_crystallographic(rs)
    n = rs.rank
    bound = 2 * (rs.coxeter_number + 2)
    eps = 1
    steps = 0
    while u >= n:
        if steps >= bound:
            raise NonTermination(f"{rs.label}: compatibility rotation exceeded {bound}")
        u = tau_map(rs, eps, u)
        v = tau_map(rs, eps, v)
        eps = -eps
        steps += 1
    if v < n:
        return 0
    coeff = rs.positive_roots[v - n][u]
    return coeff if coeff > 0 else 0


class ClusterComplex:
    """Compatibility graph of a crystallographic root system."""

    def __init__(self, rs: RootSystem, allow_large: bool = False):
        _check_crystallographic(rs)
        if rs.rank > 6 and not allow_large:
            raise CapacityExceeded(
                f"{rs.label}: rank > 6 cluster complex needs allow_large=True"
            )
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

    def f_tally(self) -> dict:
        """Counts of faces keyed by (#positive vertices, #negative simples)."""
        raw = kernels.clique_tally(
            self.adjacency,
            special_mask=(1 << self.rs.rank) - 1,
            edge_masks=[0] * self.n_vertices,
            max_size=self.rs.rank,
        )
        out: dict = {}
        for (k, l, _), c in raw.items():
            out[(k, l)] = out.get((k, l), 0) + c
        return out

    def maximal_face_count(self) -> Tuple[int, int]:
        """(number of maximal faces, minimum size among them)."""
        faces = set(kernels.iter_cliques(self.adjacency))
        maximal = []
        for mask in faces:
            extendable = False
            for v in range(self.n_vertices):
                if not (mask >> v) & 1 and (mask & self.adjacency[v]) == mask:
                    extendable = True
                    break
            if not extendable:
                maximal.append(mask)
        sizes = {bin(m).count("1") for m in maximal}
        return len(maximal), min(sizes)


def f_polynomial(rs: RootSystem, allow_large: bool = False) -> BiPoly:
    """F(x, y) = sum of x^(positive vertices) y^(negative simples) over faces."""
    complex_ = ClusterComplex(rs, allow_large=allow_large)
    return BiPoly({(k, l): c for (k, l), c in complex_.f_tally().items()})


def verify_hf_conjecture(rs: RootSystem, allow_large: bool = False) -> dict:
    """Check H(x,y) = (1-x)^n F(x/(1-x), xy/(1-x)) exactly."""
    tally = AntichainTally.from_poset(RootPoset(rs))
    h_poly = h_polynomial(tally)
    f_poly = f_polynomial(rs, allow_large=allow_large)
    transformed = bipoly_substitute(f_poly, rs.rank)
    if transformed != h_poly:
        diff = transformed - h_poly
        raise ConjectureFails(
            f"{rs.label}: H != transformed F; difference terms {diff.sorted_terms()}"
        )
    return {"h": h_poly, "f": f_poly, "transformed": transformed}
