"""Arrangement cohomology characters, the (1-t) quotient, and identities."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcat.errors import CapacityExceeded, CheckFailed
from coxcat.exact import GoldenNumber, UniPoly
from coxcat.groups import generate_group
from coxcat.osalgebra import (
    OSAlgebra,
    VectorMatroid,
    _hyperplane_matroid,
    build_os_algebra,
    check_B_gprime_lemma,
    check_dihedral,
    check_dimension_identity,
    flat_lattice,
    g_prime_character,
    hyperplane_map,
    nbc_graded_character,
    os_graded_character,
    quotient_traces,
    reflection_class_indices,
    verify_main_conjecture,
)
from coxcat.rootsys import build_root_system, compose, orbit
from coxcat.symfunc import calibrated_bundle, class_value
from references import unipoly_divide_exact

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
    with pytest.raises(CapacityExceeded, match=r"I2\(26\): needs \|hyperplanes\| <= 25$"):
        build_os_algebra(build_root_system("I2(26)"))
    # the largest dihedral arrangement inside the cap
    assert build_os_algebra(build_root_system("I2(25)")).dims == (1, 25, 24)


# The engine the rank oracle replaced: Gauss-Jordan elimination over the
# rationals or Q(phi), re-solved on every query, and a separate oracle for
# the dihedral line arrangements.  Kept here as the differential reference.


def _ref_inverse(x: GoldenNumber) -> GoldenNumber:
    """Inverse in Q(phi): a + b phi times its conjugate (a + b) - b phi is the norm."""
    norm = x.a * x.a + x.a * x.b - x.b * x.b
    return GoldenNumber(Fraction(x.a + x.b, norm), Fraction(-x.b, norm))


class ReferenceVectorMatroid:
    def __init__(self, vectors):
        self.vectors = [tuple(v) for v in vectors]
        self.dim = len(self.vectors[0]) if self.vectors else 0

    def _solve(self, columns, target):
        rows = self.dim
        k = len(columns)
        aug = [
            [self.vectors[c][r] for c in columns] + [self.vectors[target][r]]
            for r in range(rows)
        ]
        pivot_cols = []
        r = 0
        for col in range(k):
            pivot = None
            for rr in range(r, rows):
                if aug[rr][col] != 0:
                    pivot = rr
                    break
            if pivot is None:
                continue
            aug[r], aug[pivot] = aug[pivot], aug[r]
            inv = (
                _ref_inverse(aug[r][col])
                if isinstance(aug[r][col], GoldenNumber)
                else Fraction(1) / aug[r][col]
            )
            aug[r] = [x * inv for x in aug[r]]
            for rr in range(rows):
                if rr != r and aug[rr][col] != 0:
                    f = aug[rr][col]
                    aug[rr] = [a - f * b for a, b in zip(aug[rr], aug[r])]
            pivot_cols.append(col)
            r += 1
        for rr in range(r, rows):
            if aug[rr][k] != 0:
                return None
        coeffs = [self.vectors[0][0] * 0] * k
        for row, col in enumerate(pivot_cols):
            coeffs[col] = aug[row][k]
        return coeffs

    def is_independent(self, subset):
        if not subset:
            return True
        body, last = subset[:-1], subset[-1]
        if not self.is_independent(body):
            return False
        return self._solve(body, last) is None

    def fundamental_circuit(self, base, extra):
        coeffs = self._solve(base, extra)
        if coeffs is None:
            return None
        members = [extra] + [c for c, v in zip(base, coeffs) if v != 0]
        return tuple(sorted(members))


class ReferenceUniformRank2Matroid:
    def __init__(self, n):
        self.n = n

    def is_independent(self, subset):
        return len(subset) <= 2

    def fundamental_circuit(self, base, extra):
        if len(base) < 2:
            return None
        return tuple(sorted((extra,) + tuple(base[:2])))


def _reference_matroid(rs):
    if rs.family == "I":
        return ReferenceUniformRank2Matroid(rs.n_positive)
    return ReferenceVectorMatroid(rs.positive_roots)


def _small_subsets(n, max_size):
    for size in range(max_size + 1):
        yield from itertools.combinations(range(n), size)


def _assert_same_matroid(rs, subsets, bases_and_extras):
    new = build_os_algebra(rs).matroid
    ref = _reference_matroid(rs)
    for subset in subsets:
        assert new.is_independent(subset) == ref.is_independent(subset), subset
    checked = 0
    for base, extra in bases_and_extras:
        if not ref.is_independent(base):
            continue
        got = new.fundamental_circuit(base, extra)
        assert got == ref.fundamental_circuit(base, extra), (base, extra)
        checked += got is not None
    assert checked > 0


@pytest.mark.parametrize("label", ["A3", "A4", "B3", "D4", "G2", "I2(5)", "I2(8)"])
def test_rank_oracle_matches_reference_engine_exhaustively(label):
    rs = build_root_system(label)
    n = rs.n_positive
    _assert_same_matroid(
        rs,
        _small_subsets(n, rs.rank + 1),
        (
            (base, extra)
            for base in itertools.combinations(range(n), rs.rank)
            for extra in range(n)
            if extra not in base
        ),
    )


@pytest.mark.parametrize("label", ["B4", "H3"])
def test_rank_oracle_matches_reference_engine_on_a_sample(label):
    rs = build_root_system(label)
    n = rs.n_positive
    rng = random.Random(31)
    subsets = [
        tuple(sorted(rng.sample(range(n), rng.randint(1, rs.rank + 1))))
        for _ in range(300)
    ]
    pairs = []
    for _ in range(300):
        picked = rng.sample(range(n), rs.rank + 1)
        pairs.append((tuple(sorted(picked[:-1])), picked[-1]))
    _assert_same_matroid(rs, subsets, pairs)


_RANK_AXIOM_TYPES = ("A4", "B4", "H3")


@st.composite
def _subsets_of_one_arrangement(draw):
    label = draw(st.sampled_from(_RANK_AXIOM_TYPES))
    n = build_root_system(label).n_positive
    subset = st.frozensets(st.integers(0, n - 1), max_size=n)
    return label, draw(subset), draw(subset)


def _sorted(s):
    return tuple(sorted(s))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_subsets_of_one_arrangement())
def test_rank_axioms(drawn):
    label, s, t = drawn
    rs = build_root_system(label)
    matroid = VectorMatroid(rs.positive_roots)
    r = matroid.rank
    assert 0 <= r(_sorted(s)) <= min(len(s), rs.rank)
    assert r(_sorted(s & t)) <= r(_sorted(s)) <= r(_sorted(s | t))
    assert r(_sorted(s | t)) + r(_sorted(s & t)) <= r(_sorted(s)) + r(_sorted(t))
    # a greedy basis of s, and the circuit each other member of s closes
    base = ()
    for x in sorted(s):
        if matroid.is_independent(base + (x,)):
            base += (x,)
    assert len(base) == r(_sorted(s))
    for extra in sorted(s - set(base)):
        circuit = matroid.fundamental_circuit(base, extra)
        assert circuit is not None and extra in circuit
        assert not matroid.is_independent(circuit)
        for size in range(len(circuit)):
            for part in itertools.combinations(circuit, size):
                assert matroid.is_independent(part)


# every type inside both the group cap and the 25-hyperplane NBC cap
NBC_TYPES = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 6)]
    + [f"C{n}" for n in range(3, 6)]
    + ["D4", "D5", "F4", "G2", "H3"]
    + [f"I2({m})" for m in range(5, 26)]
)


@pytest.mark.parametrize("label", NBC_TYPES)
def test_fixed_flat_characters_equal_nbc_characters(label):
    rs = build_root_system(label)
    flats = os_graded_character(rs)
    nbc = nbc_graded_character(rs)
    assert flats.chars == nbc.chars
    assert flats.dims == nbc.dims


# every non-dihedral type inside the group budget, a sample of the dihedral
# ones, and E6
FLAT_TYPES = [label for label in NBC_TYPES if not label.startswith("I2")] + [
    "I2(5)", "I2(8)", "I2(25)", "I2(26)", "I2(127)", "I2(128)", "E6",
]


@pytest.mark.parametrize("label", FLAT_TYPES)
def test_orbit_flats_are_the_flats_of_the_rank_oracle(label):
    rs = build_root_system(label)
    lattice = flat_lattice(rs)
    matroid = _hyperplane_matroid(rs)
    N = rs.n_positive
    by_rank = [[] for _ in range(rs.rank + 1)]
    for mask, rank in zip(lattice.masks, lattice.ranks):
        # a greedy basis has the parabolic rank |J|, and every hyperplane
        # outside the flat raises the rank: the flat is closed
        base = ()
        for x in range(N):
            if mask >> x & 1 and matroid.is_independent(base + (x,)):
                base += (x,)
        assert len(base) == rank, (mask, rank)
        for x in range(N):
            if not mask >> x & 1:
                assert matroid.is_independent(base + (x,)), (mask, x)
        by_rank[rank].append(mask)
    # complete: each hyperplane x outside a flat F lies in a flat of the next
    # rank above F, which is then the closure of F and x
    everything = (1 << N) - 1
    assert by_rank[0] == [0] and by_rank[rs.rank] == [everything]
    for k in range(rs.rank):
        for low in by_rank[k]:
            covered = 0
            for high in by_rank[k + 1]:
                if low & ~high == 0:
                    covered |= high
            assert covered == everything, (low, k)


def test_flat_lower_sets_are_containment():
    for label in ("A4", "B4", "H3", "I2(8)"):
        lattice = flat_lattice(build_root_system(label))
        for i, mask in enumerate(lattice.masks):
            expected = sum(
                1 << j for j, other in enumerate(lattice.masks) if other & ~mask == 0
            )
            assert lattice.lower[i] == expected


@pytest.mark.parametrize("n", range(2, 8))
def test_gerst_class_values_equal_fixed_flat_characters(n):
    # the series side, calibrated on S_2-S_4 only, against the arrangement
    # of A_{n-1}: degree n of Gerst on cycle type lam is chi(C_lam)(t)
    bundle = calibrated_bundle(7)
    rs = build_root_system(f"A{n - 1}")
    gc = os_graded_character(rs)
    assert len(gc.classes) == len({cls.label for cls in gc.classes})
    for cls, char in zip(gc.classes, gc.chars):
        assert class_value(bundle, cls.label) == char, cls.label


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_identity_character_is_poincare_polynomial(label):
    rs = build_root_system(label)
    gc = os_graded_character(rs)
    expected = UniPoly.one()
    for e in rs.exponents:
        expected = expected * UniPoly((1, -e))
    assert gc.chars[0] == expected


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_every_class_character_divisible_by_one_minus_t(label):
    rs = build_root_system(label)
    gc = os_graded_character(rs)
    for poly in gc.chars:
        unipoly_divide_exact(poly, UniPoly((1, -1)))  # raises on failure


def test_frozen_g_prime_values():
    rs = build_root_system("A2")
    gc = os_graded_character(rs)
    assert g_prime_character(gc)[0] == -1

    rs = build_root_system("B3")
    gc = os_graded_character(rs)
    assert g_prime_character(gc)[0] == 8

    rs = build_root_system("I2(6)")
    gc = os_graded_character(rs)
    values = g_prime_character(gc)
    for idx in reflection_class_indices(rs, gc.classes):
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
    for m in (6, 8, 26, 128):
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
    for m in (5, 7, 27, 127):
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
    for cached in (generate_group, os_graded_character):
        cached.cache_clear()
    calls = []

    def counting_generate_group(rs_arg):
        calls.append(rs_arg.label)
        return generate_group(rs_arg)

    monkeypatch.setattr(osalgebra, "generate_group", counting_generate_group)
    report = check_dihedral(rs)
    assert calls == [rs.label]
    monkeypatch.undo()
    assert report["main"] == verify_main_conjecture(rs)


def test_verify_all_builds_each_os_algebra_once(monkeypatch):
    import coxcat.osalgebra as osalgebra
    from coxcat.reports import run_all_checks

    for cached in (generate_group, os_graded_character, calibrated_bundle):
        cached.cache_clear()
    built, lattices = [], []

    def counting_build_os_algebra(rs_arg):
        built.append(rs_arg.label)
        return build_os_algebra(rs_arg)

    def counting_flat_lattice(rs_arg):
        lattices.append(rs_arg.label)
        return flat_lattice(rs_arg)

    monkeypatch.setattr(osalgebra, "build_os_algebra", counting_build_os_algebra)
    monkeypatch.setattr(osalgebra, "flat_lattice", counting_flat_lattice)
    assert all(report.passed for report in run_all_checks("B4"))
    # NBC only for the S_2-S_4 calibration oracles; main and b-lemmas share
    # one B4 character, so one flat lattice
    assert sorted(built) == ["A1", "A2", "A3"]
    assert lattices == ["B4"]


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
    # I2(m) is m lines in the plane, the uniform matroid U_{2,m}
    for m in (5, 6, 9):
        algebra = build_os_algebra(build_root_system(f"I2({m})"))
        assert algebra.dims == (1, m, m - 1)


def walked_elements(rs):
    """W, sorted: one walk of the identity under the simple reflections."""
    gens = rs.simple_tables
    return sorted(orbit([rs.identity_table()], lambda g: [compose(s, g) for s in gens]))


def test_straightening_commutes_with_action():
    # acting then straightening equals straightening then acting, checked on
    # random independent monomials and random group elements
    rs = build_root_system("B3")
    elements = walked_elements(rs)
    algebra = build_os_algebra(rs)
    rng = random.Random(23)
    monomials = [m for level in algebra.nbc[1:] for m in level]
    for _ in range(25):
        g = elements[rng.randrange(len(elements))]
        h = elements[rng.randrange(len(elements))]
        hmap_g = hyperplane_map(rs, g)
        hmap_h = hyperplane_map(rs, h)
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
    elements = walked_elements(rs)
    algebra = build_os_algebra(rs)
    rng = random.Random(5)
    for cls in generate_group(rs):
        base = [algebra.degree_trace(hyperplane_map(rs, cls.rep), k) for k in range(4)]
        # conjugating the representative must not change any trace
        g = elements[rng.randrange(len(elements))]
        inverse = tuple(sorted(range(len(g)), key=g.__getitem__))
        conj = compose(compose(g, cls.rep), inverse)
        other = [algebra.degree_trace(hyperplane_map(rs, conj), k) for k in range(4)]
        assert other == base


def test_quotient_traces_match_division():
    rs = build_root_system("B2")
    gc = os_graded_character(rs)
    traces = quotient_traces(gc, 0)
    # identity: (1-t)(1-3t)/(1-t) = 1-3t, so degree traces are 1 and 3
    assert traces[0] == 1
    assert traces[1] == 3


def test_g_prime_rejects_non_divisible_input():
    rs = build_root_system("A1")
    gc = os_graded_character(rs)
    broken = gc._replace(chars=(UniPoly((1, 1)),) * len(gc.chars))
    with pytest.raises(CheckFailed, match="not divisible by 1-t"):
        g_prime_character(broken)


def test_quotient_traces_reject_non_divisible_input():
    rs = build_root_system("A1")
    gc = os_graded_character(rs)
    broken = gc._replace(chars=(UniPoly((1, 1)),) * len(gc.chars))
    with pytest.raises(CheckFailed, match=r"A1 class .*: 1 \+ t not divisible by 1-t"):
        quotient_traces(broken, 0)
