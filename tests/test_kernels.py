"""The clique kernel against brute-force subset enumeration, the flagged walk
and the three walks it replaced: the candidate-set tally, the first pivoted
walk face_walk and the Bron-Kerbosch walk maximal_cliques."""

import itertools
import random
from math import comb
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcat import kernels
from coxcat.cli import main
from coxcat.cluster import ClusterComplex
from coxcat.errors import InternalError
from coxcat.kernels import TallyKey, clique_tally
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


# ---------------------------------------------------------------------------
# The two kernels clique_tally replaced, copied verbatim as references:
# the candidate-set tally that served the root poset and the pivoted walk
# that served the cluster complex.


def candidate_set_tally(
    adj: Sequence[int],
    special_mask: int,
    edge_masks: Sequence[int],
    max_size: int,
) -> Dict[TallyKey, int]:
    """Count every clique (the empty one included).

    Keys are (plain members, special members, OR of the members' edge
    masks), where "special" means the vertex is in special_mask.  Raises
    InternalError if a clique exceeds max_size members.
    """
    n = len(adj)
    # Inside the walk a key is one int: plain | special << w | edge mask << 2w.
    # No count exceeds n < 2**w, so adding a member never carries across fields.
    w = max(n, 1).bit_length()
    step = [1 << w if (special_mask >> v) & 1 else 1 for v in range(n)]
    edges = [e << 2 * w for e in edge_masks]
    # The extension tallies of the candidate sets met under one top-level
    # vertex.  Keeping them for the whole walk is faster but holds every
    # distinct set's tally at once.
    memo: Dict[int, Dict[int, int]] = {}

    def extensions(cand: int) -> Dict[int, int]:
        """Packed tally of the cliques inside cand."""
        if not cand & (cand - 1):
            if not cand:
                return {0: 1}
            v = cand.bit_length() - 1
            return {0: 1, step[v] | edges[v]: 1}
        out = memo.get(cand)
        if out is not None:
            return out
        out = {0: 1}
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            d, e = step[v], edges[v]
            for key, c in extensions(rest & adj[v]).items():
                key = (key + d) | e
                out[key] = out.get(key, 0) + c
        memo[cand] = out
        return out

    packed = {0: 1}
    for v in range(n):
        d, e = step[v], edges[v]
        for key, c in extensions(adj[v] >> (v + 1) << (v + 1)).items():
            key = (key + d) | e
            packed[key] = packed.get(key, 0) + c
        memo.clear()
    field = (1 << w) - 1
    counts: Dict[TallyKey, int] = {}
    for key, c in packed.items():
        j, l = key & field, (key >> w) & field
        if j + l > max_size:
            raise InternalError(f"clique larger than the stated bound {max_size}")
        counts[(j, l, key >> 2 * w)] = c
    return counts


def face_walk(
    adj: Sequence[int], special_mask: int, max_size: int
) -> Tuple[Dict[Tuple[int, int], int], Tuple[int, int]]:
    """Every clique counted, and the maximal ones, in one pivoted walk.

    Returns the clique counts keyed by (plain members, special members),
    the empty clique included, and (number of maximal cliques, smallest
    size among them); the empty graph has one maximal clique, the empty
    one.  Raises InternalError if a clique exceeds max_size members.

    This is Bron-Kerbosch with a pivot drawn from the candidates alone, the
    one with most neighbours among them (Jain and Seshadhri, WSDM 2020).
    A leaf stands for its held members plus any subset of its pivots, and
    every clique lies under exactly one leaf; a pivot drawn from the done
    set, as Tomita, Tanaka and Takahashi allow, would lose the cliques
    inside its neighbourhood.  The all-pivots clique of a leaf is maximal
    exactly when nothing is left done there.
    """
    n = len(adj)
    # A leaf is one int: held plain | held special << w | pivot plain << 2w
    # | pivot special << 3w.  No count exceeds n < 2**w, so none carries.
    w = max(n, 1).bit_length()
    held = [1 << w if (special_mask >> v) & 1 else 1 for v in range(n)]
    pivot = [d << 2 * w for d in held]
    leaves: Dict[int, int] = {}
    maximal: Dict[int, int] = {}

    def walk(key: int, cand: int, done: int) -> None:
        if not cand:
            leaves[key] = leaves.get(key, 0) + 1
            if not done:
                maximal[key] = maximal.get(key, 0) + 1
            return
        best = -1
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            k = (cand & adj[v]).bit_count()
            if k > best:
                best, p = k, v
        branch = cand & ~adj[p]
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            branch ^= low
            nbrs = adj[v]
            walk(key + (pivot[v] if v == p else held[v]), cand & nbrs, done & nbrs)
            cand ^= low
            done |= low

    walk(0, (1 << n) - 1, 0)
    field = (1 << w) - 1

    def fields(key: int) -> List[int]:
        return [(key >> i * w) & field for i in range(4)]

    counts: Dict[Tuple[int, int], int] = {}
    for key, c in leaves.items():
        held_plain, held_special, pivot_plain, pivot_special = fields(key)
        if held_plain + held_special + pivot_plain + pivot_special > max_size:
            raise InternalError(f"clique larger than the stated bound {max_size}")
        for a in range(pivot_plain + 1):
            ca = c * comb(pivot_plain, a)
            for b in range(pivot_special + 1):
                face = (held_plain + a, held_special + b)
                counts[face] = counts.get(face, 0) + ca * comb(pivot_special, b)
    clusters = (sum(maximal.values()), min(sum(fields(key)) for key in maximal))
    return counts, clusters


def maximal_cliques(adj):
    """The walk face_walk replaced for the clusters, kept as a reference.

    (number of maximal cliques, smallest size among them), by Bron-Kerbosch
    with Tomita's pivot from cand | done.
    """
    count = 0
    smallest = len(adj)

    def expand(size, cand, done):
        nonlocal count, smallest
        if not cand:
            if not done:
                count += 1
                smallest = min(smallest, size)
            return
        best = -1
        rest = cand | done
        while rest:
            low = rest & -rest
            nbrs = adj[low.bit_length() - 1]
            rest ^= low
            k = (cand & nbrs).bit_count()
            if k > best:
                best, pivot_nbrs = k, nbrs
        branch = cand & ~pivot_nbrs
        while branch:
            low = branch & -branch
            nbrs = adj[low.bit_length() - 1]
            branch ^= low
            expand(size + 1, cand & nbrs, done & nbrs)
            cand ^= low
            done |= low

    expand(0, (1 << len(adj)) - 1, 0)
    return count, smallest


def plain_faces(tally):
    """A clique tally with the edge-mask field summed out."""
    faces = {}
    for (j, l, _), c in tally.items():
        faces[(j, l)] = faces.get((j, l), 0) + c
    return faces


def replaced_engines(adj, special_mask, edge_masks, max_size):
    """What clique_tally must return, from the two kernels it replaced.

    The candidate-set tally gives the counts and face_walk the maximal
    pair; face_walk's own counts must be the tally with edge masks summed
    out, its pair must be the one maximal_cliques finds, and the pair must
    not depend on the edge masks.
    """
    tally = candidate_set_tally(adj, special_mask, edge_masks, max_size)
    faces, maximal = face_walk(adj, special_mask, max_size)
    assert faces == plain_faces(tally)
    assert maximal == maximal_cliques(adj)
    return tally, maximal


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
    random_masks = [rng.getrandbits(4) for _ in range(n)]
    maximal = brute_force_maximal(adj)
    assert maximal_cliques(adj) == maximal
    # no edge masks, every vertex masked, and a mix: pivots of either kind
    # or both, and the maximal pair is the same for all three
    for edge_masks in ([0] * n, [1 + m for m in random_masks], random_masks):
        expected = brute_force_tally(adj, special_mask, edge_masks, n)
        assert clique_tally(adj, special_mask, edge_masks, n) == (expected, maximal)
        assert replaced_engines(adj, special_mask, edge_masks, n) == (expected, maximal)


def test_empty_graph():
    # the empty clique is the only face, hence maximal
    assert clique_tally([], 0, [], 0) == ({(0, 0, 0): 1}, (1, 0))
    assert maximal_cliques([]) == (1, 0)
    assert replaced_engines([], 0, [], 0) == ({(0, 0, 0): 1}, (1, 0))


def test_max_size_bound_enforced():
    adj = [2, 1]  # a single edge
    for edge_masks in ([0, 0], [1, 2]):
        with pytest.raises(InternalError, match="^clique larger than the stated bound 1$"):
            clique_tally(adj, 0, edge_masks, 1)
    with pytest.raises(InternalError, match="^clique larger than the stated bound 1$"):
        candidate_set_tally(adj, 0, [0, 0], 1)
    with pytest.raises(InternalError, match="^clique larger than the stated bound 1$"):
        face_walk(adj, 0, 1)


def test_wide_graph_beyond_two_machine_words():
    # 129 isolated vertices: adjacency masks wider than two 64-bit words
    adj = [0] * 129
    expected = ({(0, 0, 0): 1, (1, 0, 0): 129}, (129, 1))
    assert clique_tally(adj, 0, [0] * 129, 129) == expected
    assert maximal_cliques(adj) == (129, 1)
    assert replaced_engines(adj, 0, [0] * 129, 129) == expected
    # the same graph with every vertex edge-masked, one bit each
    edge_masks = [1 << v for v in range(129)]
    counts = {(0, 0, 0): 1, **{(1, 0, 1 << v): 1 for v in range(129)}}
    assert clique_tally(adj, 0, edge_masks, 129) == (counts, (129, 1))


def walks_made(argv, monkeypatch):
    """(kernel, vertex count) of every kernel call one CLI call makes."""
    calls = []
    tally = kernels.clique_tally

    def counted(adj, *args, **kwargs):
        calls.append(("clique_tally", len(adj)))
        return tally(adj, *args, **kwargs)

    monkeypatch.setattr(kernels, "clique_tally", counted)
    assert main(argv) == 0
    return sorted(calls)


def test_fpoly_walks_the_complex_once(capsys, monkeypatch):
    # the A3 complex has 3 + 6 vertices
    assert walks_made(["fpoly", "A3"], monkeypatch) == [("clique_tally", 9)]
    assert "maximal faces: 14 (smallest has size 3)" in capsys.readouterr().out


def test_verify_hf_walks_the_complex_once(capsys, monkeypatch):
    # one walk over the 6-root poset, one over the 9-vertex complex
    assert walks_made(["verify", "hf", "A3"], monkeypatch) == [
        ("clique_tally", 6),
        ("clique_tally", 9),
    ]
    assert "[PASS] hf A3" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The single walk that carried a maximal flag in every key, kept as the
# reference for clique_tally and for each walk it replaced.


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
    maximal = [(j + l, c) for (j, l, _, is_max), c in flagged.items() if is_max]
    expected = (sum(c for _, c in maximal), min(size for size, _ in maximal))
    assert clique_tally(adj, special_mask, edge_masks, max_size) == (unflagged, expected)
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
def test_face_walk_matches_the_two_walks_it_replaced(label):
    complex_ = ClusterComplex(build_root_system(label))
    adj, rank = complex_.adjacency, complex_.rs.rank
    tally = candidate_set_tally(adj, (1 << rank) - 1, [0] * complex_.n_vertices, rank)
    assert face_walk(adj, (1 << rank) - 1, rank) == (plain_faces(tally), maximal_cliques(adj))


def _kernel_inputs(label):
    """(adj, special_mask, edge_masks, max_size) of the complex and the root
    poset of one type, as their constructors pass them."""
    rs = build_root_system(label)
    complex_ = ClusterComplex(rs)
    poset = RootPoset(rs)
    return [
        (complex_.adjacency, (1 << rs.rank) - 1, [0] * complex_.n_vertices, rs.rank),
        (poset.incomparable, poset.simple_mask, poset.edge_masks, rs.rank),
    ]


@pytest.mark.parametrize("label", BUDGET_TYPES)
def test_clique_tally_matches_the_kernels_it_replaced(label):
    for args in _kernel_inputs(label):
        assert clique_tally(*args) == replaced_engines(*args)


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
        args = (poset.incomparable, poset.simple_mask, poset.edge_masks, len(nodes))
        assert_matches_reference(*args)
        assert clique_tally(*args) == replaced_engines(*args)


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
    expected = (brute_force_tally(adj, special_mask, edge_masks, n), brute_force_maximal(adj))
    assert clique_tally(adj, special_mask, edge_masks, n) == expected
    assert maximal_cliques(adj) == expected[1]
    assert replaced_engines(adj, special_mask, edge_masks, n) == expected
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
    assert clique_tally(moved_adj, moved_special, moved_edges, n) == expected
    assert maximal_cliques(moved_adj) == expected[1]
    assert replaced_engines(moved_adj, moved_special, moved_edges, n) == expected
