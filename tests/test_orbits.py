"""The orbit walks `orbit` and `orbits`, and every engine built on them.

Each engine is compared with the hand-written walk it replaced, copied here
as the reference, on every type both can reach.
"""

import itertools
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxcat.poset as poset_module
from coxcat.cluster import _bipartition
from coxcat.errors import CheckFailed, InternalError
from coxcat.exact import GoldenNumber
from coxcat.groups import generate_group, signed_cycle_type
from coxcat.osalgebra import _image, _indices, flat_lattice, hyperplane_map
from coxcat.poset import (
    RootPoset,
    _components,
    _witness,
    check_antichain_lemmas,
    enumerate_antichains,
    generalized_catalan,
)
from coxcat.rootsys import (
    _close_positive_roots,
    _simple_image,
    build_root_system,
    compose,
    orbit,
    orbits,
)
from references import _cycle_type_a, permutation_of_letters, signed_permutation

ROOT = Path(__file__).resolve().parents[1]
KNOWN_LABELS = sorted(runpy.run_path(str(ROOT / "perfbench" / "known_answers.py"))["TYPES"])

GROUP_LABELS = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 6)]
    + ["C3", "C4", "C5", "D4", "D5", "F4", "G2", "H3"]
    + [f"I2({m})" for m in range(5, 13)]
    + ["I2(128)"]
)
# every Coxeter diagram of rank at most 8; I2(m) has one diagram for every m
DIAGRAM_LABELS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "H3", "H4", "I2(5)"]
)


# -- the walks these engines replaced -----------------------------------------


def reference_elements(rs):
    gens = rs.simple_tables
    identity = rs.identity_table()
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = compose(s, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(sorted(seen))


def reference_cycle_lengths(perm):
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def reference_signed_cycle_type(sp):
    n = len(sp)
    seen = [False] * n
    positive, negative = [], []
    for start in range(n):
        if seen[start]:
            continue
        length, sign, x = 0, 1, start
        while not seen[x]:
            seen[x] = True
            target, s = sp[x]
            sign *= s
            x = target
            length += 1
        (positive if sign == 1 else negative).append(length)
    return tuple(sorted(positive, reverse=True)), tuple(sorted(negative, reverse=True))


def reference_label(rs, rep):
    if rs.family == "A":
        return reference_cycle_lengths(permutation_of_letters(rs, rep))
    if rs.family == "B":
        return reference_signed_cycle_type(signed_permutation(rs, rep))
    return None


def reference_classes(rs, elements):
    gens = rs.simple_tables
    remaining = set(elements)
    classes = []
    while remaining:
        seed = min(remaining)
        found = {seed}
        stack = [seed]
        while stack:
            g = stack.pop()
            for s in gens:
                h = compose(s, compose(g, s))
                if h not in found:
                    found.add(h)
                    stack.append(h)
        remaining -= found
        classes.append((min(found), len(found)))
    classes.sort(key=lambda c: (c[1], c[0]))
    return [(rep, size, reference_label(rs, rep)) for rep, size in classes]


def reference_flat_lattice(rs):
    rank_of = {}
    for size in range(rs.rank + 1):
        for J in itertools.combinations(range(rs.rank), size):
            parabolic = frozenset(J)
            mask = sum(1 << x for x, support in enumerate(rs.supports) if support <= parabolic)
            rank_of[mask] = size
    gens = [[1 << y for y in hyperplane_map(rs, s)] for s in rs.simple_tables]
    frontier = list(rank_of)
    while frontier:
        nxt = []
        for mask in frontier:
            for bits in gens:
                image = _image(bits, mask)
                if image not in rank_of:
                    rank_of[image] = rank_of[mask]
                    nxt.append(image)
        frontier = nxt
    masks = sorted(rank_of, key=lambda mask: (rank_of[mask], mask))
    contains = [0] * rs.n_positive
    for i, mask in enumerate(masks):
        for x in _indices(mask):
            contains[x] |= 1 << i
    everything = (1 << len(masks)) - 1
    lower = []
    for mask in masks:
        outside = 0
        for x in range(rs.n_positive):
            if not (mask >> x) & 1:
                outside |= contains[x]
        lower.append(everything & ~outside)
    return tuple(masks), tuple(rank_of[mask] for mask in masks), tuple(lower)


def reference_close_positive_roots(datum):
    n = datum.rank
    zero = GoldenNumber(0) if datum.family == "H" else 0
    one = zero + 1
    simples = []
    for i in range(n):
        coords = [zero] * n
        coords[i] = one
        simples.append(tuple(coords))
    found = set(simples)
    queue = list(simples)
    images = {}
    while queue:
        coords = queue.pop()
        row = tuple(_simple_image(datum.cartan, coords, i) for i in range(n))
        images[coords] = row
        for image in row:
            if image not in found and all(c >= 0 for c in image):
                found.add(image)
                queue.append(image)
    return simples, images


def reference_bipartition(n, edges):
    colour = {0: 0}
    stack = [0]
    neighbours = {i: [] for i in range(n)}
    for (i, j) in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    while stack:
        i = stack.pop()
        for j in neighbours[i]:
            if j not in colour:
                colour[j] = 1 - colour[i]
                stack.append(j)
    if len(colour) != n:
        raise InternalError("Coxeter diagram is not connected")
    plus = frozenset(i for i, c in colour.items() if c == 0)
    return plus, frozenset(range(n)) - plus


def reference_support_connected(edges, support):
    if not support:
        return False
    seen = {min(support)}
    stack = [min(support)]
    while stack:
        i = stack.pop()
        for (a, b) in edges:
            for x, y in ((a, b), (b, a)):
                if x == i and y in support and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen == support


def reference_components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b) in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return [frozenset(g) for g in groups.values()]


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


def edge_subsets(edges):
    for picked in range(1 << len(edges)):
        yield [e for i, e in enumerate(edges) if (picked >> i) & 1]


# -- differential tests --------------------------------------------------------


@pytest.mark.parametrize("label", GROUP_LABELS + ["D6", "H4"])
def test_group_elements_and_classes_match_the_hand_written_walks(label):
    rs = build_root_system(label)
    classes = generate_group(rs)
    elements = reference_elements(rs)
    assert [(c.rep, c.size, c.label) for c in classes] == reference_classes(rs, elements)


@pytest.mark.parametrize("label", GROUP_LABELS + ["E6"])
def test_flat_lattice_matches_the_hand_written_closure(label):
    rs = build_root_system(label)
    lattice = flat_lattice(rs)
    assert (lattice.masks, lattice.ranks, lattice.lower) == reference_flat_lattice(rs)


@pytest.mark.parametrize("label", KNOWN_LABELS + ["A11", "D10"])
def test_root_closure_bipartition_and_supports_match_the_hand_written_walks(label):
    rs = build_root_system(label)
    if rs.cartan is not None:
        assert _close_positive_roots(rs.rank, rs.cartan) == (
            reference_close_positive_roots(rs)
        )
        assert _bipartition(rs.rank, list(rs.edges)) == reference_bipartition(
            rs.rank, list(rs.edges)
        )
    for size in range(rs.rank + 1):
        for support in map(frozenset, itertools.combinations(range(rs.rank), size)):
            assert rs._support_connected(support) == reference_support_connected(
                rs.edges, support
            ), sorted(support)


@pytest.mark.parametrize("label", DIAGRAM_LABELS)
def test_components_and_bipartition_match_on_every_edge_subset(label):
    rs = build_root_system(label)
    n = rs.rank
    for edges in edge_subsets(list(rs.edges)):
        assert _components(n, edges) == reference_components(n, edges)
        try:
            expected = reference_bipartition(n, edges)
        except InternalError:
            with pytest.raises(InternalError, match="not connected"):
                _bipartition(n, edges)
        else:
            assert _bipartition(n, edges) == expected


@pytest.mark.parametrize("label", [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 6)])
def test_cycle_labels_match_on_every_element(label):
    rs = build_root_system(label)
    for g in reference_elements(rs):
        if rs.family == "A":
            assert _cycle_type_a(rs, g) == reference_cycle_lengths(permutation_of_letters(rs, g))
        else:
            sp = signed_permutation(rs, g)
            assert signed_cycle_type(rs, g) == reference_signed_cycle_type(sp)


# the antichain walks are compared where Cat(W) stays small enough to list
WITNESS_LABELS = [
    label for label in KNOWN_LABELS
    if build_root_system(label).crystallographic
    and generalized_catalan(build_root_system(label)) <= 5_000
]


def by_cardinality(antichains):
    out = {}
    for antichain in antichains:
        out.setdefault(len(antichain), []).append(antichain)
    return out


@pytest.mark.parametrize("label", WITNESS_LABELS)
def test_witness_walk_lists_the_clique_walk_antichains_in_order(label):
    poset = RootPoset(build_root_system(label))
    reference = [
        tuple(a for a in range(poset.size) if (mask >> a) & 1)
        for mask in reference_iter_cliques(poset.incomparable)
    ]
    walked = []
    # list.append returns None, so no antichain matches and the walk meets all
    assert _witness(poset, walked.append) is None
    assert len(walked) == len(set(walked)) == len(reference)
    assert by_cardinality(walked) == by_cardinality(reference)


def planted_tally(tally, n, clause):
    """(a): the n-row dropped; (b): one full-type (n-1)-row moved to l = 1."""
    rows = list(tally.counts)
    if clause == "a":
        rows = [row for row in rows if row[0][0] != n]
    else:
        i = next(i for i, ((k, l, _), _) in enumerate(rows) if k == n - 1 and l == 0)
        (k, _, em), c = rows[i]
        rows[i] = ((k, 1, em), c)
    return tally._replace(counts=tuple(sorted(rows)))


# The messages the clique walk gave on these planted failures.
PLANTED_WITNESSES = {
    "A3": ("(0, 1)", "(2,1,11)"),
    "A4": ("(0, 1, 2)", "(3,1,111)"),
    "B3": ("(0, 1)", "(2,1,11)"),
    "B4": ("(0, 1, 2)", "(3,1,111)"),
    "D4": ("(0, 1, 2)", "(3,1,111)"),
    "D5": ("(0, 1, 2, 3)", "(4,1,1111)"),
    "E6": ("(0, 1, 2, 3, 4)", "(5,1,11111)"),
    "E7": ("(0, 1, 2, 3, 4, 5)", "(6,1,111111)"),
    "F4": ("(0, 1, 2)", "(3,1,111)"),
}


@pytest.mark.parametrize("label", WITNESS_LABELS)
def test_planted_lemma_failures_keep_the_clique_walk_witnesses(label, monkeypatch):
    rs = build_root_system(label)
    tally = enumerate_antichains(rs)
    witness_a, key_b = PLANTED_WITNESSES[label]
    expected = {
        "a": f"(a) maximal antichains are not exactly the simples: witness {witness_a}",
        "b": f"(b) full-type iff no simple root fails at (k,l,edges)={key_b}: witness None",
    }
    for clause, message in expected.items():
        broken = planted_tally(tally, rs.rank, clause)
        monkeypatch.setattr(poset_module, "enumerate_antichains", lambda rs_arg: broken)
        with pytest.raises(CheckFailed) as failure:
            check_antichain_lemmas(rs)
        assert str(failure.value) == message


# -- properties of the walks ---------------------------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
permutations = st.integers(0, 24).flatmap(lambda n: st.permutations(range(n)))


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 14))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    return n, edges


def adjacency(n, edges):
    neighbours = [[] for _ in range(n)]
    for (a, b) in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    return neighbours


@PROPERTY
@given(permutations)
def test_the_orbits_of_a_permutation_are_its_cycles(perm):
    found = list(orbits(range(len(perm)), lambda x: [perm[x]]))
    assert sorted(x for cycle in found for x in cycle) == list(range(len(perm)))
    assert [cycle[0] for cycle in found] == sorted(cycle[0] for cycle in found)
    for cycle in found:
        assert cycle[0] == min(cycle)
        # the walk follows the cycle, and the cycle closes on its seed
        assert all(perm[x] == y for x, y in zip(cycle, cycle[1:]))
        assert perm[cycle[-1]] == cycle[0]


@PROPERTY
@given(graphs())
def test_the_orbits_of_a_graph_are_its_union_find_components(graph):
    n, edges = graph
    neighbours = adjacency(n, edges)
    found = list(orbits(range(n), neighbours.__getitem__))
    assert [frozenset(c) for c in found] == reference_components(n, edges)
    for component in found:
        assert all(y in component for x in component for y in neighbours[x])


@PROPERTY
@given(graphs(), st.data())
def test_orbit_lists_the_seeds_first_once_each_and_is_closed(graph, data):
    n, edges = graph
    neighbours = adjacency(n, edges)
    seeds = data.draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else []
    reached = orbit(seeds, neighbours.__getitem__)
    distinct = list(dict.fromkeys(seeds))
    assert reached[: len(distinct)] == distinct
    assert len(set(reached)) == len(reached)
    assert all(y in reached for x in reached for y in neighbours[x])
    components = reference_components(n, edges)
    assert set(reached) == set().union(*(c for c in components if c & set(seeds)))


def test_orbits_yields_the_first_orbit_before_visiting_any_other_element():
    # two 3-cycles; only the first may be walked before the reader takes it
    perm = [1, 2, 0, 4, 5, 3]
    visited = []

    def moves(x):
        visited.append(x)
        return [perm[x]]

    walk = orbits(range(len(perm)), moves)
    assert next(walk) == [0, 1, 2]
    assert sorted(set(visited)) == [0, 1, 2]
    assert list(walk) == [[3, 4, 5]]
    assert sorted(set(visited)) == list(range(6))
