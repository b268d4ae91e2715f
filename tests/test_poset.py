"""Root poset antichains and the N, H, P polynomials."""

import itertools
import re
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from coxcat.errors import CheckFailed, InternalError, UsageError
from coxcat.exact import BiPoly
from coxcat.poset import (
    AntichainTally,
    RootPoset,
    _components,
    _witness,
    check_antichain_lemmas,
    enumerate_antichains,
    generalized_catalan,
    h_polynomial,
    narayana_polynomial,
    p_polynomial_direct,
    p_polynomial_mobius,
)
from coxcat.rootsys import build_root_system
from references import p_polynomial_mobius_by_nodes

CRYSTALLOGRAPHIC_RANK_LE_8 = (
    ["A%d" % n for n in range(1, 9)]
    + ["B%d" % n for n in range(2, 9)]
    + ["C%d" % n for n in range(3, 9)]
    + ["D%d" % n for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# Every crystallographic type with Cat(W) <= Cat(E8), as in test_kernels.
BUDGET_TYPES = CRYSTALLOGRAPHIC_RANK_LE_8 + ["A9"]


def brute_force_antichains(rs):
    """All subsets of positive roots that are pairwise incomparable."""
    def leq(u, v):
        return all(b - a >= 0 for a, b in zip(u, v))

    roots = rs.positive_roots
    out = []
    for size in range(len(roots) + 1):
        for subset in itertools.combinations(range(len(roots)), size):
            if all(
                not leq(roots[a], roots[b]) and not leq(roots[b], roots[a])
                for a, b in itertools.combinations(subset, 2)
            ):
                out.append(subset)
    return out


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "G2", "D4"])
def test_tally_matches_brute_force(label):
    rs = build_root_system(label)
    if rs.n_positive > 12:
        pytest.skip("brute force capped at 12 roots")
    antichains = brute_force_antichains(rs)
    tally = enumerate_antichains(rs)
    assert tally.total == len(antichains)
    by_card = {}
    for subset in antichains:
        by_card[len(subset)] = by_card.get(len(subset), 0) + 1
    assert narayana_polynomial(tally) == BiPoly({(k, 0): c for k, c in by_card.items()})


def test_frozen_small_polynomials():
    a2 = enumerate_antichains(build_root_system("A2"))
    assert narayana_polynomial(a2) == BiPoly({(0, 0): 1, (1, 0): 3, (2, 0): 1})
    assert h_polynomial(a2) == BiPoly(
        {(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 2): 1}
    )
    assert p_polynomial_direct(a2) == BiPoly({(1, 0): 1})

    g2 = enumerate_antichains(build_root_system("G2"))
    assert narayana_polynomial(g2) == BiPoly({(0, 0): 1, (1, 0): 6, (2, 0): 1})
    assert p_polynomial_direct(g2) == BiPoly({(1, 0): 4})

    b3 = enumerate_antichains(build_root_system("B3"))
    assert p_polynomial_direct(b3).coefficient(2, 0) == 3


@pytest.mark.parametrize("label", CRYSTALLOGRAPHIC_RANK_LE_8)
def test_totals_equal_generalized_catalan(label):
    rs = build_root_system(label)
    assert enumerate_antichains(rs).total == generalized_catalan(rs)


def test_e8_total_value():
    assert generalized_catalan(build_root_system("E8")) == 25080


def test_non_integer_catalan_product_is_a_bug():
    # (1 + 2 + 1)/(1 + 1) * (2 + 2 + 1)/(2 + 1) = 10/3
    stub = SimpleNamespace(label="stub", exponents=(1, 2), coxeter_number=2)
    with pytest.raises(InternalError, match="stub: Catalan product 10/3 is not an integer"):
        generalized_catalan(stub)


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "B6",
     "C3", "C4", "C5", "C6", "D4", "D5", "D6", "E6", "G2", "F4"],
)
def test_mobius_inversion_matches_direct(label):
    rs = build_root_system(label)
    tally = enumerate_antichains(rs)
    assert p_polynomial_direct(tally) == p_polynomial_mobius(rs)


@pytest.mark.parametrize("label", CRYSTALLOGRAPHIC_RANK_LE_8)
def test_antichain_lemmas(label):
    rs = build_root_system(label)
    summary = check_antichain_lemmas(rs)
    assert summary["p_top"] == rs.full_reflection_count()


def test_lemma_witness_values():
    assert check_antichain_lemmas(build_root_system("A3"))["p_top"] == 1
    assert check_antichain_lemmas(build_root_system("B3"))["p_top"] == 3
    assert check_antichain_lemmas(build_root_system("G2"))["p_top"] == 4
    assert check_antichain_lemmas(build_root_system("D4"))["p_top"] == 2
    assert check_antichain_lemmas(build_root_system("F4"))["p_top"] == 10


def test_full_poset_is_tallied_once_per_command(monkeypatch):
    import coxcat.poset as poset
    from coxcat.reports import run_check

    enumerate_antichains.cache_clear()
    built = []

    def counting_root_poset(rs_arg, nodes=None):
        built.append(nodes)
        return RootPoset(rs_arg, nodes)

    monkeypatch.setattr(poset, "RootPoset", counting_root_poset)
    for check in ("antichain-lemmas", "p-mobius", "hf"):
        assert run_check(check, "B3").passed
    # one full poset, and each proper parabolic's Cartan submatrix once: the
    # three single nodes share A1's, and the two-node paths are A2 and B2
    assert built.count(None) == 1
    assert len(built) == len(set(built))
    assert sorted(len(nodes) for nodes in built if nodes) == [1, 2, 2]


def test_failed_lemma_builds_the_poset_for_its_witness(monkeypatch):
    import coxcat.poset as poset

    rs = build_root_system("A3")
    true_tally = enumerate_antichains(rs)
    # a second antichain of cardinality n that is not the set of simples
    extra = ((3, 2, 0b11), 1)
    broken = AntichainTally(
        counts=tuple(sorted(true_tally.counts + (extra,))),
        n_edges=true_tally.n_edges,
    )
    monkeypatch.setattr(poset, "enumerate_antichains", lambda rs_arg: broken)
    with pytest.raises(CheckFailed, match=r"^\(a\) maximal antichains .*: witness None$"):
        check_antichain_lemmas(rs)


def planted_top_cardinality(tally, top):
    """The tally with every antichain above cardinality top dropped."""
    return tally._replace(counts=tuple(row for row in tally.counts if row[0][0] <= top))


@pytest.mark.parametrize("label", ["D5", "E6", "E7"])
def test_a_clause_a_witness_ends_the_walk_at_its_cardinality(label, monkeypatch):
    import coxcat.poset as poset

    rs = build_root_system(label)
    true_tally = enumerate_antichains(rs)
    reads = []

    class CountingReads(list):
        def __getitem__(self, b):
            reads.append(b)
            return super().__getitem__(b)

    def counting_root_poset(rs_arg, nodes=None):
        built = RootPoset(rs_arg, nodes)
        built.incomparable = CountingReads(built.incomparable)
        return built

    monkeypatch.setattr(poset, "RootPoset", counting_root_poset)
    for top in (rs.rank - 1, 2):
        # the largest antichains now have cardinality top, and the first of
        # them, the first top simple roots, is the witness
        broken = planted_top_cardinality(true_tally, top)
        monkeypatch.setattr(poset, "enumerate_antichains", lambda rs_arg: broken)
        reads.clear()
        witness = tuple(range(top))
        with pytest.raises(CheckFailed, match=rf"^\(a\) .*: witness {re.escape(str(witness))}$"):
            check_antichain_lemmas(rs)
        # each antichain but the empty one is grown by one read of its new member
        visited = 1 + len(reads)
        assert visited == sum(c for (k, _, _), c in true_tally.counts if k <= top)
        assert visited < generalized_catalan(rs)


@pytest.mark.parametrize("label", BUDGET_TYPES)
def test_cartan_keyed_p_matches_the_node_keyed_table(label):
    rs = build_root_system(label)
    mobius = p_polynomial_mobius(rs)
    reference = p_polynomial_mobius_by_nodes(rs)
    assert mobius == reference
    assert mobius.to_json() == reference.to_json()


# B3: A1, A2 and B2.  D8: the paths A1-A7 and, through the branch node, the
# node-ordered A3 and D4-D7.  E8's 43 proper components have 16 submatrices.
@pytest.mark.parametrize("label, proper", [("B3", 3), ("E8", 16), ("D8", 12)])
def test_p_mobius_tallies_each_proper_cartan_submatrix_once(label, proper, monkeypatch):
    import coxcat.poset as poset

    enumerate_antichains.cache_clear()
    built = []

    def counting_root_poset(rs_arg, nodes=None):
        built.append(nodes)
        return RootPoset(rs_arg, nodes)

    monkeypatch.setattr(poset, "RootPoset", counting_root_poset)
    p_polynomial_mobius(build_root_system(label))
    assert built.count(None) == 1
    assert len(built) - 1 == proper


def test_narayana_and_p_are_palindromic():
    for label in ("A4", "B4", "D5", "F4", "E6"):
        rs = build_root_system(label)
        tally = enumerate_antichains(rs)
        n_poly = narayana_polynomial(tally)
        p_poly = p_polynomial_direct(tally)
        assert n_poly == n_poly.reverse_x(rs.rank)
        assert p_poly == p_poly.reverse_x(rs.rank)


def test_noncrystallographic_poset_rejected():
    with pytest.raises(UsageError, match="H3 has no integer root poset"):
        RootPoset(build_root_system("H3"))
    with pytest.raises(UsageError, match=r"I2\(7\) has no integer root poset"):
        RootPoset(build_root_system("I2(7)"))


def test_maximal_antichain_is_the_set_of_simples():
    for label in ("A3", "B3", "D4", "F4"):
        rs = build_root_system(label)
        poset = RootPoset(rs)
        best = []
        _witness(poset, lambda ac: len(ac) == rs.rank and best.append(ac))
        assert len(best) == 1
        assert {poset.root_ids[a] for a in best[0]} == set(rs.simple_positions)


def test_parabolic_restriction_counts():
    # dropping a leaf node of A3 leaves an A2 poset
    rs = build_root_system("A3")
    sub = RootPoset(rs, nodes=frozenset({0, 1}))
    assert sub.size == 3
    assert AntichainTally.from_poset(sub).total == 5


def test_antichain_total_must_be_catalan(monkeypatch):
    import coxcat.poset as poset

    rs = build_root_system("A3")
    true_tally = enumerate_antichains(rs)
    # one more antichain of sizes 1 and 2, each with one simple root and no
    # full support: every clause but the count still holds
    extra = (((1, 1, 0), 1), ((2, 1, 0), 1))
    broken = AntichainTally(
        counts=tuple(sorted(true_tally.counts + extra)),
        n_edges=true_tally.n_edges,
    )
    monkeypatch.setattr(poset, "enumerate_antichains", lambda rs_arg: broken)
    with pytest.raises(CheckFailed, match=r"^\(g\) 16 antichains, Cat\(W\) = 14$"):
        check_antichain_lemmas(rs)


def narayana_closed_form(family, n, k):
    """Antichains of size k in the root poset (Reiner 1997; Athanasiadis-Reiner 2004)."""
    if family == "A":
        return Fraction(comb(n + 1, k) * comb(n + 1, k + 1), n + 1)
    if family in "BC":
        return Fraction(comb(n, k) ** 2)
    if family == "D":
        correction = comb(n - 1, k) * comb(n - 1, k - 1) if k else 0
        return comb(n, k) ** 2 - Fraction(n, n - 1) * correction
    raise ValueError(family)


@pytest.mark.parametrize(
    "label",
    ["A4", "B4", "C4", "D5", "A10", "A11", "B9", "B10", "C9", "C10", "D9", "D10"],
)
def test_narayana_equals_the_closed_forms(label):
    rs = build_root_system(label)
    tally = enumerate_antichains(rs)
    assert tally.total == generalized_catalan(rs)
    expected = BiPoly(
        {(k, 0): narayana_closed_form(rs.family, rs.rank, k) for k in range(rs.rank + 1)}
    )
    assert narayana_polynomial(tally) == expected


# The comparison the cover closure replaced: every pair of roots of the
# (sub-)poset compared coordinate by coordinate.
def reference_incomparable(poset):
    roots = [poset.rs.positive_roots[j] for j in poset.root_ids]

    def leq(u, v):
        return all(x <= y for x, y in zip(u, v))

    out = [0] * poset.size
    for a in range(poset.size):
        for b in range(a + 1, poset.size):
            if not (leq(roots[a], roots[b]) or leq(roots[b], roots[a])):
                out[a] |= 1 << b
                out[b] |= 1 << a
    return out


@pytest.mark.parametrize("label", BUDGET_TYPES)
def test_incomparability_matches_the_pairwise_reference(label):
    poset = RootPoset(build_root_system(label))
    assert poset.incomparable == reference_incomparable(poset)


def test_e8_parabolic_incomparability_matches_the_pairwise_reference():
    rs = build_root_system("E8")
    edges = list(rs.edges)
    components = set()
    for picked in range(1 << len(edges)):
        subset = [e for i, e in enumerate(edges) if (picked >> i) & 1]
        components.update(_components(rs.rank, subset))
    assert len(components) > rs.rank
    for nodes in components:
        poset = RootPoset(rs, nodes)
        assert poset.incomparable == reference_incomparable(poset), sorted(nodes)


# The sum the integer coefficient lists replaced: every term a product of
# Fraction-valued BiPoly Narayana polynomials.
def reference_p_polynomial_mobius(rs):
    edges = list(rs.edges)
    total = BiPoly()
    for picked in range(1 << len(edges)):
        subset = [e for i, e in enumerate(edges) if (picked >> i) & 1]
        sign = (-1) ** (len(edges) - len(subset))
        product = BiPoly({(0, 0): 1})
        for component in _components(rs.rank, subset):
            nodes = None if len(component) == rs.rank else component
            product = product * narayana_polynomial(enumerate_antichains(rs, nodes))
        total = total + BiPoly({(0, 0): sign}) * product
    return total


@pytest.mark.parametrize("label", CRYSTALLOGRAPHIC_RANK_LE_8)
def test_mobius_sum_matches_the_fraction_reference(label):
    rs = build_root_system(label)
    mobius = p_polynomial_mobius(rs)
    reference = reference_p_polynomial_mobius(rs)
    assert mobius == reference
    # the same exact values, printed the same way
    assert mobius.to_json() == reference.to_json()
