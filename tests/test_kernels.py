"""Clique kernels against brute-force subset enumeration and the flagged walk."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcat import kernels
from coxcat.cli import main
from coxcat.cluster import ClusterComplex
from coxcat.kernels import clique_tally, maximal_cliques
from coxcat.poset import RootPoset, _components
from coxcat.rootsys import build_root_system


def brute_force_cliques(adj):
    """Filter all vertex subsets for cliqueness; exponential but obvious."""
    n = len(adj)
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            if all((adj[a] >> b) & 1 for a, b in itertools.combinations(subset, 2)):
                yield subset


def brute_force_tally(adj, special_mask, edge_masks, max_size):
    counts = {}
    for subset in brute_force_cliques(adj):
        assert len(subset) <= max_size
        special = sum(1 for v in subset if (special_mask >> v) & 1)
        plain = len(subset) - special
        em = 0
        for v in subset:
            em |= edge_masks[v]
        key = (plain, special, em)
        counts[key] = counts.get(key, 0) + 1
    return counts


def brute_force_maximal(adj):
    """(count, smallest size) of the cliques no outside vertex extends."""
    sizes = [
        len(subset)
        for subset in brute_force_cliques(adj)
        if not any(
            all((adj[a] >> v) & 1 for a in subset)
            for v in range(len(adj))
            if v not in subset
        )
    ]
    return len(sizes), min(sizes)


def random_graph(rng, n, density):
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


@pytest.mark.parametrize("seed", range(8))
def test_pure_kernel_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 11)
    adj = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
    special_mask = rng.getrandbits(n) if n else 0
    edge_masks = [rng.getrandbits(4) for _ in range(n)]
    expected = brute_force_tally(adj, special_mask, edge_masks, n)
    assert clique_tally(adj, special_mask, edge_masks, n) == expected
    assert maximal_cliques(adj) == brute_force_maximal(adj)


def test_empty_graph():
    # the empty clique is the only face, hence maximal
    assert clique_tally([], 0, [], 0) == {(0, 0, 0): 1}
    assert maximal_cliques([]) == (1, 0)


def test_max_size_bound_enforced():
    adj = [2, 1]  # a single edge
    with pytest.raises(ValueError):
        clique_tally(adj, 0, [0, 0], 1)


def test_wide_graph_beyond_two_machine_words():
    # 129 isolated vertices: adjacency masks wider than two 64-bit words
    adj = [0] * 129
    counts = clique_tally(adj, 0, [0] * 129, 129)
    assert counts == {(0, 0, 0): 1, (1, 0, 0): 129}
    assert maximal_cliques(adj) == (129, 1)


def test_fpoly_walks_the_complex_once(capsys, monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("clique_tally", "maximal_cliques"):
        monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
    assert main(["fpoly", "A3"]) == 0
    assert sorted(calls) == ["clique_tally", "maximal_cliques"]
    assert "maximal faces: 14 (smallest has size 3)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The single walk that carried a maximal flag in every key, kept as the
# reference for the candidate-set tally and the pivoted maximal walk.


def reference_flagged_tally(adj, special_mask, edge_masks, max_size):
    """Keys (plain, special, edge mask OR, maximal); maximal when the AND
    of the members' adjacency masks is 0."""
    n = len(adj)
    counts = {}

    def rec(cand, common, j, l, em):
        if j + l > max_size:
            raise ValueError(f"clique larger than the stated bound {max_size}")
        key = (j, l, em, not common)
        counts[key] = counts.get(key, 0) + 1
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            av = adj[v]
            if (special_mask >> v) & 1:
                rec(cand & av, common & av, j, l + 1, em | edge_masks[v])
            else:
                rec(cand & av, common & av, j + 1, l, em | edge_masks[v])

    everyone = (1 << n) - 1
    rec(everyone, everyone, 0, 0, 0)
    return counts


def assert_matches_reference(adj, special_mask, edge_masks, max_size):
    flagged = reference_flagged_tally(adj, special_mask, edge_masks, max_size)
    unflagged = {}
    for (j, l, em, _), c in flagged.items():
        unflagged[(j, l, em)] = unflagged.get((j, l, em), 0) + c
    assert clique_tally(adj, special_mask, edge_masks, max_size) == unflagged
    maximal = [(j + l, c) for (j, l, _, is_max), c in flagged.items() if is_max]
    expected = (sum(c for _, c in maximal), min(size for size, _ in maximal))
    assert maximal_cliques(adj) == expected


# Every crystallographic type within the Cat(E8) budget.
BUDGET_TYPES = (
    [f"A{n}" for n in range(1, 10)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", BUDGET_TYPES)
def test_cluster_complex_matches_flagged_walk(label):
    complex_ = ClusterComplex(build_root_system(label))
    assert_matches_reference(
        complex_.adjacency,
        (1 << complex_.rs.rank) - 1,
        [0] * complex_.n_vertices,
        complex_.rs.rank,
    )


@pytest.mark.parametrize("label", BUDGET_TYPES)
def test_root_poset_matches_flagged_walk(label):
    poset = RootPoset(build_root_system(label))
    assert_matches_reference(
        poset.incomparable, poset.simple_mask, poset.edge_masks, poset.rs.rank
    )


def test_e8_mobius_parabolics_match_flagged_walk():
    # the proper parabolic sub-posets p_polynomial_mobius(E8) tallies
    rs = build_root_system("E8")
    edges = list(rs.edges)
    components = set()
    for picked in range(1 << len(edges)):
        subset = [e for i, e in enumerate(edges) if (picked >> i) & 1]
        components.update(c for c in _components(rs.rank, subset) if len(c) < rs.rank)
    assert len(components) > rs.rank
    for nodes in components:
        poset = RootPoset(rs, nodes)
        assert_matches_reference(
            poset.incomparable, poset.simple_mask, poset.edge_masks, len(nodes)
        )


@st.composite
def _labelled_graphs(draw):
    n = draw(st.integers(0, 12))
    adj = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    special_mask = draw(st.integers(0, (1 << n) - 1))
    edge_masks = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
    relabel = draw(st.permutations(range(n)))
    return adj, special_mask, edge_masks, relabel


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_labelled_graphs())
def test_kernels_match_brute_force_under_relabelling(drawn):
    adj, special_mask, edge_masks, relabel = drawn
    n = len(adj)
    tally = brute_force_tally(adj, special_mask, edge_masks, n)
    maximal = brute_force_maximal(adj)
    assert clique_tally(adj, special_mask, edge_masks, n) == tally
    assert maximal_cliques(adj) == maximal
    # vertex v becomes relabel[v]; the counts cannot change
    moved_adj = [0] * n
    moved_edges = [0] * n
    moved_special = 0
    for v in range(n):
        w = relabel[v]
        moved_edges[w] = edge_masks[v]
        moved_special |= ((special_mask >> v) & 1) << w
        for u in range(n):
            if (adj[v] >> u) & 1:
                moved_adj[w] |= 1 << relabel[u]
    assert clique_tally(moved_adj, moved_special, moved_edges, n) == tally
    assert maximal_cliques(moved_adj) == maximal
