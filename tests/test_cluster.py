"""Cluster complexes: rotations, compatibility, face polynomials."""

import re
from functools import lru_cache
from math import comb

import pytest

from coxcat import cluster, kernels
from coxcat.cluster import (
    _bipartition,
    _compatibility_rows,
    _tau_tables,
    ClusterComplex,
    compatibility_degree,
    f_polynomial,
    verify_hf_conjecture,
    vertex_count,
)
from coxcat.errors import CheckFailed, InternalError
from coxcat.exact import BiPoly
from coxcat.poset import enumerate_antichains
from coxcat.rootsys import build_root_system

HF_TYPES = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4")


def test_tau_maps_are_involutions():
    for label in ("A2", "A3", "B3", "D4", "G2"):
        rs = build_root_system(label)
        for images in _tau_tables(rs):
            assert sorted(images) == list(range(vertex_count(rs)))
            assert all(images[images[v]] == v for v in range(vertex_count(rs)))


# The rotation as computed per call before the tables, kept as the reference.
@lru_cache(maxsize=None)
def reference_sigma_tables(label):
    rs = build_root_system(label)
    out = []
    for part in _bipartition(rs.rank, rs.edges):
        table = rs.identity_table()
        for i in sorted(part):
            s = rs.simple_tables[i]
            table = tuple(s[x] for x in table)
        out.append(table)
    return tuple(out)


def reference_tau_map(rs, eps, v):
    part = _bipartition(rs.rank, rs.edges)[0 if eps > 0 else 1]
    sigma = reference_sigma_tables(rs.label)[0 if eps > 0 else 1]
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
    raise InternalError(f"{rs.label}: tau image is a non-simple negative root")


# _tau_tables builds both rotations on each call; the per-pair reference reads them once per type
cached_tau_tables = lru_cache(maxsize=None)(_tau_tables)


CRYSTALLOGRAPHIC_TO_E8 = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# Every crystallographic type with Cat(W) <= Cat(E8), as in test_kernels.
BUDGET_TYPES = CRYSTALLOGRAPHIC_TO_E8 + ["A9"]


@pytest.mark.parametrize("label", CRYSTALLOGRAPHIC_TO_E8)
def test_tau_tables_match_the_per_call_rotation(label):
    rs = build_root_system(label)
    for eps, table in zip((1, -1), _tau_tables(rs)):
        for v in range(vertex_count(rs)):
            assert table[v] == reference_tau_map(rs, eps, v), (eps, v)


def reference_compose(g, h):
    """The composition rootsys.compose replaced, kept as the reference: g after h."""
    return tuple(g[x] for x in h)


@pytest.mark.parametrize("label", BUDGET_TYPES)
def test_rotations_and_rows_are_the_same_under_the_reference_composition(label, monkeypatch):
    rs = build_root_system(label)
    tau = _tau_tables(rs)
    rows = _compatibility_rows.__wrapped__(rs)
    monkeypatch.setattr(cluster, "compose", reference_compose)
    assert _tau_tables(rs) == tau
    assert _compatibility_rows.__wrapped__(rs) == rows


def test_tau_orbit_size_divides_h_plus_2_on_a2():
    rs = build_root_system("A2")  # h + 2 = 6
    n_vertices = vertex_count(rs)
    tau_plus, tau_minus = _tau_tables(rs)

    def tau_product(v):
        return tau_minus[tau_plus[v]]

    for v in range(n_vertices):
        orbit = 1
        w = tau_product(v)
        while w != v:
            w = tau_product(w)
            orbit += 1
        assert (rs.coxeter_number + 2) % orbit == 0


def test_compatibility_degree_examples_a2():
    rs = build_root_system("A2")
    neg0, neg1 = 0, 1
    a1 = 2 + rs.root_index((1, 0))
    a2 = 2 + rs.root_index((0, 1))
    a12 = 2 + rs.root_index((1, 1))
    # a negated simple is compatible with every root not containing it
    assert compatibility_degree(rs, neg0, a2) == 0
    assert compatibility_degree(rs, neg0, a1) == 1
    assert compatibility_degree(rs, neg0, a12) == 1
    assert compatibility_degree(rs, a1, a2) == 1
    assert compatibility_degree(rs, a1, a12) == 0
    assert compatibility_degree(rs, neg0, neg1) == 0


# The rotation the compatibility rows replaced: each pair rotated on its own.
def reference_compatibility_degree(rs, u, v):
    tau_plus, tau_minus = cached_tau_tables(rs)
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


@pytest.mark.parametrize("label", BUDGET_TYPES)
def test_compatibility_degrees_match_the_per_pair_rotation(label):
    rs = build_root_system(label)
    n_v = vertex_count(rs)
    for u in range(n_v):
        for v in range(u, n_v):
            assert compatibility_degree(rs, u, v) == reference_compatibility_degree(rs, u, v)
            assert compatibility_degree(rs, v, u) == reference_compatibility_degree(rs, v, u)


def test_compatibility_zero_is_symmetric():
    for label in ("A3", "B3", "G2"):
        rs = build_root_system(label)
        n_v = vertex_count(rs)
        for u in range(n_v):
            for v in range(u + 1, n_v):
                assert (compatibility_degree(rs, u, v) == 0) == (
                    compatibility_degree(rs, v, u) == 0
                )


def test_pentagon_face_polynomial():
    rs = build_root_system("A2")
    assert f_polynomial(rs) == BiPoly(
        {(0, 0): 1, (0, 1): 2, (0, 2): 1, (1, 0): 3, (1, 1): 2, (2, 0): 2}
    )


def test_facet_counts_match_antichain_totals():
    for label in ("A1", "A2", "A3", "B2", "B3", "G2", "D4", "F4"):
        rs = build_root_system(label)
        complex_ = ClusterComplex(rs)
        n_max, min_size = complex_.maximal_face_count()
        assert n_max == enumerate_antichains(rs).total
        assert min_size == rs.rank, "the complex is pure"


def reference_iter_cliques(adj):
    """Every clique as a member bitmask, the empty clique first (depth first)."""
    n = len(adj)

    def rec(members, cand):
        yield members
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            yield from rec(members | low, cand & adj[v])

    yield from rec(0, (1 << n) - 1)


def extendability_scan(complex_):
    """Maximal faces by testing each face against every outside vertex."""
    faces = set(reference_iter_cliques(complex_.adjacency))
    maximal = []
    for mask in faces:
        extendable = False
        for v in range(complex_.n_vertices):
            if not (mask >> v) & 1 and (mask & complex_.adjacency[v]) == mask:
                extendable = True
                break
        if not extendable:
            maximal.append(mask)
    sizes = {bin(m).count("1") for m in maximal}
    return len(maximal), min(sizes)


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"],
)
def test_maximal_faces_match_extendability_scan(label):
    complex_ = ClusterComplex(build_root_system(label))
    assert complex_.maximal_face_count() == extendability_scan(complex_)


def test_a3_has_fourteen_facets():
    assert ClusterComplex(build_root_system("A3")).maximal_face_count() == (14, 3)


def test_negative_simple_faces_are_free():
    # any set of negated simples is a face: f_{0,l} = C(n, l)
    for label in ("A3", "B3", "D4", "F4"):
        rs = build_root_system(label)
        f_poly = f_polynomial(rs)
        for l in range(rs.rank + 1):
            assert f_poly.coefficient(0, l) == comb(rs.rank, l)


@pytest.mark.parametrize("label", HF_TYPES)
def test_h_transform_of_f(label):
    rs = build_root_system(label)
    result = verify_hf_conjecture(rs)
    assert result["transformed"] == result["h"]


def test_a2_golden_h_and_f_values():
    rs = build_root_system("A2")
    result = verify_hf_conjecture(rs)
    assert result["h"] == BiPoly({(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 2): 1})
    assert result["f"] == BiPoly(
        {(0, 0): 1, (1, 0): 3, (0, 1): 2, (2, 0): 2, (1, 1): 2, (0, 2): 1}
    )


def test_cluster_count_must_be_catalan(monkeypatch):
    rs = build_root_system("A3")
    verify_hf_conjecture(rs)
    walk = kernels.clique_tally

    def tamper_complex(out):
        # only the 9-vertex complex walk; the 6-root poset's stays honest
        def tampered_walk(adj, *args, **kwargs):
            counts, clusters = walk(adj, *args, **kwargs)
            return counts, out if len(adj) == 9 else clusters

        return tampered_walk

    for tampered in ((15, 3), (14, 2)):
        monkeypatch.setattr(kernels, "clique_tally", tamper_complex(tampered))
        message = (
            f"A3: (maximal faces, smallest size) = {tampered}, "
            "expected (Cat(W), n) = (14, 3)"
        )
        with pytest.raises(CheckFailed, match="^" + re.escape(message) + "$"):
            verify_hf_conjecture(rs)


def test_face_counts_must_match_h(monkeypatch):
    rs = build_root_system("A3")
    walk = kernels.clique_tally

    def one_face_off(adj, *args, **kwargs):
        faces, clusters = walk(adj, *args, **kwargs)
        if len(adj) != 9:  # only the A3 complex; the 6-root poset stays honest
            return faces, clusters
        return {**faces, (1, 1, 0): faces[(1, 1, 0)] + 1}, clusters

    monkeypatch.setattr(kernels, "clique_tally", one_face_off)
    with pytest.raises(CheckFailed, match=r"^A3: H != transformed F; difference terms "):
        verify_hf_conjecture(rs)


def test_large_rank_needs_flag():
    from coxcat.errors import CapacityExceeded

    with pytest.raises(CapacityExceeded, match=r"A13: Cat\(W\) = 2674440 exceeds"):
        ClusterComplex(build_root_system("A13"))
