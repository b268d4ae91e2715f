"""Clique kernels against brute-force subset enumeration."""

import itertools
import random

import pytest

from coxcat import kernels
from coxcat.cli import main
from coxcat.kernels import clique_tally, iter_cliques


def brute_force_tally(adj, special_mask, edge_masks, max_size):
    """Filter all vertex subsets for cliqueness; exponential but obvious."""
    n = len(adj)
    counts = {}
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            ok = all(
                (adj[a] >> b) & 1 for a, b in itertools.combinations(subset, 2)
            )
            if not ok:
                continue
            assert len(subset) <= max_size
            special = sum(1 for v in subset if (special_mask >> v) & 1)
            plain = len(subset) - special
            em = 0
            for v in subset:
                em |= edge_masks[v]
            maximal = not any(
                all((adj[a] >> v) & 1 for a in subset)
                for v in range(n)
                if v not in subset
            )
            key = (plain, special, em, maximal)
            counts[key] = counts.get(key, 0) + 1
    return counts


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


def test_empty_graph():
    # the empty clique is the only face, hence maximal
    assert clique_tally([], 0, [], 0) == {(0, 0, 0, True): 1}


def test_max_size_bound_enforced():
    adj = [2, 1]  # a single edge
    with pytest.raises(ValueError):
        clique_tally(adj, 0, [0, 0], 1)


def test_wide_graph_beyond_two_machine_words():
    # 129 isolated vertices: adjacency masks wider than two 64-bit words
    adj = [0] * 129
    counts = clique_tally(adj, 0, [0] * 129, 129)
    assert counts == {(0, 0, 0, False): 1, (1, 0, 0, True): 129}


def test_iter_cliques_enumerates_each_once():
    rng = random.Random(3)
    adj = random_graph(rng, 10, 0.4)
    seen = list(iter_cliques(adj))
    assert len(seen) == len(set(seen))
    expected_total = sum(brute_force_tally(adj, 0, [0] * 10, 10).values())
    assert len(seen) == expected_total


def test_fpoly_walks_the_complex_once(capsys, monkeypatch):
    calls = []
    tally = kernels.clique_tally

    def counted_tally(*args, **kwargs):
        calls.append("clique_tally")
        return tally(*args, **kwargs)

    def no_walk(adj):
        raise AssertionError("fpoly walked the complex a second time")

    monkeypatch.setattr(kernels, "clique_tally", counted_tally)
    monkeypatch.setattr(kernels, "iter_cliques", no_walk)
    assert main(["fpoly", "A3"]) == 0
    assert calls == ["clique_tally"]
    assert "maximal faces: 14 (smallest has size 3)" in capsys.readouterr().out
