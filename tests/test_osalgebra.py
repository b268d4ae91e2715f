"""Arrangement cohomology characters, the (1-t) quotient, and identities."""

import random
from fractions import Fraction

import pytest

from coxcat.errors import CapacityExceeded, NotDivisible
from coxcat.exact import UniPoly, unipoly_divide_exact
from coxcat.groups import generate_group
from coxcat.osalgebra import (
    OSAlgebra,
    UniformRank2Matroid,
    VectorMatroid,
    build_os_algebra,
    check_B_gprime_lemma,
    check_dihedral,
    check_dimension_identity,
    g_prime_character,
    hyperplane_map,
    os_graded_character,
    quotient_traces,
    reflection_class_indices,
    verify_main_conjecture,
)
from coxcat.rootsys import build_root_system

ORACLE_TYPES = ("A1", "A2", "A3", "B2", "B3", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "H3")


def elementary_symmetric(values):
    coeffs = [1]
    for v in values:
        coeffs = [a + v * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


@pytest.mark.parametrize("label", ORACLE_TYPES + ("D4", "G2", "B4"))
def test_nbc_dimensions_equal_elementary_symmetric(label):
    rs = build_root_system(label)
    algebra = build_os_algebra(rs)
    assert algebra.dims == elementary_symmetric(rs.exponents)


def test_capacity_guard():
    with pytest.raises(CapacityExceeded):
        build_os_algebra(build_root_system("H4"))
    with pytest.raises(CapacityExceeded):
        build_os_algebra(build_root_system("E6"))


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_identity_character_is_poincare_polynomial(label):
    rs = build_root_system(label)
    gc = os_graded_character(rs, generate_group(rs))
    expected = UniPoly.one()
    for e in rs.exponents:
        expected = expected * UniPoly((1, -e))
    assert gc.chars[gc.identity_index()] == expected


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_every_class_character_divisible_by_one_minus_t(label):
    rs = build_root_system(label)
    gc = os_graded_character(rs, generate_group(rs))
    for poly in gc.chars:
        unipoly_divide_exact(poly, UniPoly((1, -1)))  # raises on failure


def test_frozen_g_prime_values():
    rs = build_root_system("A2")
    gc = os_graded_character(rs, generate_group(rs))
    assert g_prime_character(gc)[gc.identity_index()] == -1

    rs = build_root_system("B3")
    gc = os_graded_character(rs, generate_group(rs))
    assert g_prime_character(gc)[gc.identity_index()] == 8

    rs = build_root_system("I2(6)")
    group = generate_group(rs)
    gc = os_graded_character(rs, group)
    values = g_prime_character(gc)
    for idx in reflection_class_indices(rs, group):
        assert values[idx] == 0
        assert gc.chars[idx] == UniPoly((1, -2, 1))


@pytest.mark.parametrize("label", ORACLE_TYPES + ("D4", "G2", "B4"))
def test_main_conjecture_classwise(label):
    rs = build_root_system(label)
    result = verify_main_conjecture(rs)
    assert result["f_count"] == rs.full_reflection_count()


def test_dimension_identity_from_exponents_alone():
    for label in ("A5", "B6", "D6", "E7", "E8", "F4", "H4", "I2(11)"):
        result = check_dimension_identity(build_root_system(label))
        assert result["lhs"] == result["rhs"]


@pytest.mark.parametrize("label", ["B2", "B3", "B4"])
def test_b_gprime_lemma(label):
    result = check_B_gprime_lemma(build_root_system(label))
    assert result["vanishing_checked"] > 0


def test_dihedral_report_even():
    for m in (6, 8):
        report = check_dihedral(build_root_system(f"I2({m})"))
        assert not report["odd"]
        assert len(report["reflections"]) == 2
        for entry in report["reflections"]:
            assert entry["trace0"] == 1
            assert entry["trace1"] == 1
            assert entry["g_prime"] == 0
            assert entry["char"] == UniPoly((1, -2, 1))


def test_dihedral_report_odd():
    # a reflection in the odd dihedral group fixes only its own mirror, so
    # its character is 1 - t: the quotient has degree-1 trace 0 and the
    # t=1 value of the quotient is 1, not 0
    for m in (5, 7):
        report = check_dihedral(build_root_system(f"I2({m})"))
        assert report["odd"]
        assert report["chi_r_regular"] is True
        assert len(report["reflections"]) == 1
        entry = report["reflections"][0]
        assert entry["char"] == UniPoly((1, -1))
        assert entry["trace0"] == 1
        assert entry["trace1"] == 0
        assert entry["g_prime"] == 1


@pytest.mark.parametrize("m", [5, 6])
def test_dihedral_report_builds_group_once(monkeypatch, m):
    import coxcat.osalgebra as osalgebra

    rs = build_root_system(f"I2({m})")
    calls = []

    def counting_generate_group(rs_arg):
        calls.append(rs_arg.label)
        return generate_group(rs_arg)

    monkeypatch.setattr(osalgebra, "generate_group", counting_generate_group)
    report = check_dihedral(rs)
    assert calls == [rs.label]
    monkeypatch.undo()
    assert report["main"] == verify_main_conjecture(rs)


def test_dims_invariant_under_hyperplane_reordering():
    for label in ("A3", "B3"):
        rs = build_root_system(label)
        baseline = build_os_algebra(rs).dims
        rng = random.Random(17)
        vectors = list(rs.positive_roots)
        for _ in range(3):
            rng.shuffle(vectors)
            shuffled = OSAlgebra(VectorMatroid(vectors), len(vectors), rs.rank)
            assert shuffled.dims == baseline


def test_uniform_matroid_dims():
    for m in (5, 6, 9):
        algebra = OSAlgebra(UniformRank2Matroid(m), m, 2)
        assert algebra.dims == (1, m, m - 1)


def test_straightening_commutes_with_action():
    # acting then straightening equals straightening then acting, checked on
    # random independent monomials and random group elements
    rs = build_root_system("B3")
    group = generate_group(rs)
    algebra = build_os_algebra(rs)
    rng = random.Random(23)
    monomials = [m for level in algebra.nbc[1:] for m in level]
    for _ in range(25):
        g = group.elements[rng.randrange(len(group.elements))]
        h = group.elements[rng.randrange(len(group.elements))]
        hmap_g = hyperplane_map(rs, g)
        hmap_h = hyperplane_map(rs, h)
        from coxcat.groups import compose

        hmap_gh = hyperplane_map(rs, compose(g, h))
        mono = monomials[rng.randrange(len(monomials))]
        # act by h, then by g, on the straightened result
        once = algebra.act_on_monomial(hmap_h, mono)
        twice = {}
        for basis, c in once.items():
            for basis2, c2 in algebra.act_on_monomial(hmap_g, basis).items():
                twice[basis2] = twice.get(basis2, 0) + c * c2
        direct = algebra.act_on_monomial(hmap_gh, mono)
        assert {k: v for k, v in twice.items() if v} == direct


def test_traces_are_class_functions():
    rs = build_root_system("A3")
    group = generate_group(rs)
    algebra = build_os_algebra(rs)
    rng = random.Random(5)
    for cls in group.classes:
        base = [algebra.degree_trace(hyperplane_map(rs, cls.rep), k) for k in range(4)]
        # conjugating the representative must not change any trace
        g = group.elements[rng.randrange(len(group.elements))]
        from coxcat.groups import compose, invert

        conj = compose(compose(g, cls.rep), invert(g))
        other = [algebra.degree_trace(hyperplane_map(rs, conj), k) for k in range(4)]
        assert other == base


def test_quotient_traces_match_division():
    rs = build_root_system("B2")
    gc = os_graded_character(rs, generate_group(rs))
    idx = gc.identity_index()
    traces = quotient_traces(gc, idx)
    # identity: (1-t)(1-3t)/(1-t) = 1-3t, so degree traces are 1 and 3
    assert traces[0] == 1
    assert traces[1] == 3


def test_g_prime_rejects_non_divisible_input():
    from dataclasses import replace

    rs = build_root_system("A1")
    gc = os_graded_character(rs, generate_group(rs))
    broken = replace(gc, chars=(UniPoly((1, 1)),) * len(gc.chars))
    with pytest.raises(NotDivisible):
        g_prime_character(broken)
