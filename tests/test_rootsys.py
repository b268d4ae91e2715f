"""Root systems: closure, canonical order, exponents, full reflections."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcat.cluster import _bipartition
from coxcat.errors import UsageError
from coxcat.exact import GoldenNumber
from coxcat.groups import generate_group
from coxcat.rootsys import build_root_system, compose, orbit, parse_label

ALL_TABLE_TYPES = (
    ["A%d" % n for n in range(1, 9)]
    + ["B%d" % n for n in range(2, 7)]
    + ["C%d" % n for n in range(3, 7)]
    + ["D%d" % n for n in range(4, 7)]
    + ["E6", "E7", "E8", "F4", "G2", "H3", "H4"]
    + ["I2(%d)" % m for m in range(5, 13)]
)

EXPECTED_FULL = {
    **{f"A{n}": 1 for n in range(1, 9)},
    **{f"B{n}": n for n in range(2, 7)},
    **{f"C{n}": n for n in range(3, 7)},
    **{f"D{n}": n - 2 for n in range(4, 7)},
    "E6": 7,
    "E7": 16,
    "E8": 44,
    "F4": 10,
    "G2": 4,
    "H3": 8,
    "H4": 42,
    **{f"I2({m})": m - 2 for m in range(5, 13)},
}


def test_a2_positive_roots():
    rs = build_root_system("A2")
    # canonical order: by height, then coordinates lexicographically
    assert rs.positive_roots == ((0, 1), (1, 0), (1, 1))


def test_b3_has_nine_positive_roots_matching_exponent_sum():
    rs = build_root_system("B3")
    assert rs.n_positive == 9
    assert rs.exponents == (1, 3, 5)
    assert rs.order == 48


def test_e8_count_and_exponents():
    rs = build_root_system("E8")
    assert rs.n_positive == 120
    assert rs.exponents == (1, 7, 11, 13, 17, 19, 23, 29)


def test_exponent_examples():
    assert build_root_system("A3").exponents == (1, 2, 3)
    assert build_root_system("G2").exponents == (1, 5)
    assert build_root_system("H4").exponents == (1, 11, 19, 29)
    assert build_root_system("I2(7)").exponents == (1, 6)


@pytest.mark.parametrize("label", ALL_TABLE_TYPES)
def test_structural_invariants(label):
    rs = build_root_system(label)
    n, N = rs.rank, rs.n_positive
    assert sum(rs.exponents) == N
    assert rs.coxeter_number == 2 * N // n
    assert rs.exponents[0] == 1
    assert rs.exponents[-1] == rs.coxeter_number - 1
    order = 1
    for e in rs.exponents:
        order *= e + 1
    assert rs.order == order
    # dimension of the root representation: all roots, both signs
    assert n * rs.coxeter_number == 2 * N


@pytest.mark.parametrize("label", ALL_TABLE_TYPES)
def test_full_reflection_count_matches_formula_and_table(label):
    rs = build_root_system(label)
    counted = rs.full_reflection_count()
    assert counted == EXPECTED_FULL[label]
    assert rs.formula_value() == counted


def test_support_connected_everywhere():
    for label in ("A4", "B4", "D5", "E6", "F4", "H3"):
        rs = build_root_system(label)
        for support in rs.supports:
            assert support, "every root has nonempty support"
        # connectivity is enforced during construction; spot-check full supports
        full = frozenset(range(rs.rank))
        assert any(s == full for s in rs.supports)


def test_closure_is_order_independent():
    # rebuild the positive system processing candidates in reversed order
    for label in ("A3", "B3", "D4", "F4", "G2", "H3"):
        rs = build_root_system(label)
        n = rs.rank
        zero = rs.positive_roots[0][0] * 0
        one = zero + 1
        simples = []
        for i in range(n):
            coords = [zero] * n
            coords[i] = one
            simples.append(tuple(coords))
        found = set(simples)
        queue = list(reversed(simples))
        while queue:
            coords = queue.pop(0)  # FIFO instead of LIFO
            for i in reversed(range(n)):
                pairing = sum(
                    (rs.cartan[i][k] * coords[k] for k in range(1, n)),
                    start=rs.cartan[i][0] * coords[0],
                )
                image = tuple(
                    c - pairing * (one if k == i else zero)
                    for k, c in enumerate(coords)
                )
                neg = any(
                    (x.sign() < 0 if isinstance(x, GoldenNumber) else x < 0)
                    for x in image
                )
                if not neg and image not in found:
                    found.add(image)
                    queue.append(image)
        assert found == set(rs.positive_roots)


def test_simple_reflection_tables_are_involutions():
    for label in ("A3", "B3", "F4", "H3", "I2(5)", "I2(8)"):
        rs = build_root_system(label)
        for table in rs.simple_tables:
            assert all(table[table[x]] == x for x in range(2 * rs.n_positive))


def test_simple_reflection_negates_only_its_own_root():
    for label in ("A3", "B4", "G2", "H3", "I2(7)"):
        rs = build_root_system(label)
        N = rs.n_positive
        for i, table in enumerate(rs.simple_tables):
            negated = [j for j in range(N) if table[j] == N + j]
            assert negated == [rs.simple_positions[i]]


# Every reflection conjugated from the simple tables: s_k beta = gamma gives
# s_gamma = s_k s_beta s_k (Humphreys, Reflection Groups and Coxeter Groups,
# 1.2 and 1.14), on a walk up from the simple roots among positive roots.
def conjugated_reflections(rs):
    N = rs.n_positive
    tables = dict(zip(rs.simple_positions, rs.simple_tables))

    def up(x):
        for s in rs.simple_tables:
            y = s[x]
            if y < N and y not in tables:
                tables[y] = tuple(s[tables[x][s[z]]] for z in range(2 * N))
                yield y

    orbit(rs.simple_positions, up)
    return [tables[j] for j in range(N)]


def test_reflection_of_root_simple_case():
    rs = build_root_system("A2")
    for i in range(rs.rank):
        assert reference_reflection_of_root(rs, rs.simple_positions[i]) == rs.simple_tables[i]


def test_reflection_of_highest_root_a2():
    rs = build_root_system("A2")
    j = rs.root_index((1, 1))
    table = conjugated_reflections(rs)[j]
    assert all(table[table[x]] == x for x in range(6))
    negated = [x for x in range(3) if table[x] == 3 + x]
    assert negated == [j]


def test_reflections_are_distinct_per_positive_root():
    for label in ("A3", "B3", "I2(6)", "H3"):
        rs = build_root_system(label)
        tables = set(conjugated_reflections(rs))
        assert len(tables) == rs.n_positive


def test_unsupported_labels_raise():
    for bad in ("Z3", "A0", "B1", "C2", "D3", "E9", "F5", "G3", "H5", "I2(4)", "", "A"):
        with pytest.raises(UsageError, match=r"cannot parse type label|out of range for family|requires m >= 5"):
            build_root_system(bad)


# the documented label bounds: rank range per family, and 5 <= m <= 50,000 for I2(m)
LABEL_RANKS = {"A": (1, 48), "B": (2, 48), "C": (3, 48), "D": (4, 48), "E": (6, 8),
               "F": (4, 4), "G": (2, 2), "H": (3, 4)}
LABEL_LETTERS = "ABCDEFGHIabcdefghi"
# label letters, ASCII digits, an Arabic-Indic three, and what int() or a
# careless parser would also take
LABEL_ALPHABET = LABEL_LETTERS + "0123456789\u0663() _+-"


def canonical_label(family: str, rank: int, m) -> str:
    return f"I2({m})" if family == "I" else f"{family}{rank}"


def near_bound_label(letter: str, n: int, blank: str) -> str:
    """A family letter in either case and a number around its bounds, with blanks."""
    if letter in "Ii":
        return f"{blank}{letter}2({n}){blank}"
    return f"{letter}{blank}{n % 64}"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.text(LABEL_ALPHABET, max_size=10),
        # label-shaped: a family prefix, digits and blanks, then a closing piece
        st.tuples(
            st.sampled_from(list(LABEL_LETTERS) + ["I2(", "i2 (", " I2("]),
            st.text("0123456789 ", min_size=1, max_size=6),
            st.text(LABEL_ALPHABET, max_size=2) | st.just(")"),
        ).map("".join),
        st.builds(
            near_bound_label,
            st.sampled_from(LABEL_LETTERS), st.integers(0, 60_000), st.sampled_from(["", " "]),
        ),
    )
)
def test_a_label_parses_to_a_bounded_triple_or_is_a_usage_error(text):
    try:
        parsed = parse_label(text)
    except UsageError:
        return
    family, rank, m = parsed
    if family == "I":
        assert rank == 2 and 5 <= m <= 50_000
    else:
        lo, hi = LABEL_RANKS[family]
        assert lo <= rank <= hi and m is None
    assert parse_label(canonical_label(*parsed)) == parsed


def test_group_order_matches_generated_group_small_ranks():
    for label in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "G2", "H3", "I2(5)", "I2(9)"):
        rs = build_root_system(label)
        assert sum(c.size for c in generate_group(rs)) == rs.order


def test_h3_coordinates_are_golden():
    rs = build_root_system("H3")
    assert rs.n_positive == 15
    assert any(
        isinstance(c, GoldenNumber) and c.b != 0
        for coords in rs.positive_roots
        for c in coords
    )


def test_golden_coordinates_are_integral():
    for label in ("H3", "H4"):
        rs = build_root_system(label)
        for coords in rs.positive_roots:
            for c in coords:
                assert type(c.a) is int and type(c.b) is int, (label, coords)


def test_i2_datum_only_model():
    rs = build_root_system("I2(9)")
    assert rs.positive_roots is None
    assert rs.n_positive == 9
    assert rs.simple_positions == (0, 8)
    assert rs.coxeter_number == 9
    assert rs.order == 18


# Each diagram's two-colouring (plus part, minus part), node 0 in the plus part.
EXPECTED_BIPARTITION = {
    "A1": ({0}, set()),
    "A2": ({0}, {1}),
    "A3": ({0, 2}, {1}),
    "A4": ({0, 2}, {1, 3}),
    "A5": ({0, 2, 4}, {1, 3}),
    "A6": ({0, 2, 4}, {1, 3, 5}),
    "B2": ({0}, {1}),
    "B3": ({0, 2}, {1}),
    "B4": ({0, 2}, {1, 3}),
    "B5": ({0, 2, 4}, {1, 3}),
    "D4": ({0, 2, 3}, {1}),
    "D5": ({0, 2}, {1, 3, 4}),
    "D6": ({0, 2, 4, 5}, {1, 3}),
    "E6": ({0, 3, 5}, {1, 2, 4}),
    "E7": ({0, 3, 5}, {1, 2, 4, 6}),
    "E8": ({0, 3, 5, 7}, {1, 2, 4, 6}),
    "F4": ({0, 2}, {1, 3}),
    "G2": ({0}, {1}),
    "I2(7)": ({0}, {1}),
}


def test_a_root_system_carries_its_diagram_itself():
    d4 = build_root_system("D4")
    assert d4.edges == ((0, 1), (1, 2), (1, 3))
    assert d4.cartan[3][1] == -1
    i27 = build_root_system("I2(7)")
    assert i27.edges == ((0, 1),)
    assert i27.cartan is None
    for label in ALL_TABLE_TYPES:
        assert not hasattr(build_root_system(label), "datum"), label


@pytest.mark.parametrize("label", sorted(EXPECTED_BIPARTITION))
def test_the_diagram_bipartition_is_unchanged(label):
    rs = build_root_system(label)
    assert _bipartition(rs.rank, rs.edges) == EXPECTED_BIPARTITION[label]


# The engine conjugation replaced: s_beta(u) = u - 2 (u, beta) / (beta, beta) beta
# on coordinates, with the invariant form read off the Cartan matrix and the
# half squared lengths of the simple roots, over the rationals or Q(phi), and
# a closed formula on the dihedral model.  Kept here as the differential
# reference.


def _ref_symmetrizer(family, n):
    """Half squared lengths d_i, making d_i * cartan[i][j] symmetric."""
    d = [Fraction(1)] * n
    if family == "B":
        d[n - 1] = Fraction(1, 2)
    elif family == "C":
        d[n - 1] = Fraction(2)
    elif family == "F":
        d[2] = d[3] = Fraction(1, 2)
    elif family == "G":
        d[1] = Fraction(3)
    elif family == "H":
        d = [1] * n
    return d


def _ref_inverse(x):
    """Inverse in Q(phi): a + b phi times its conjugate (a + b) - b phi is the norm."""
    norm = x.a * x.a + x.a * x.b - x.b * x.b
    return GoldenNumber(Fraction(x.a + x.b, norm), Fraction(-x.b, norm))


def reference_reflection_of_root(rs, j):
    if rs.family == "I":
        m = rs.m
        r = (-j) % m
        return tuple((m - 2 * r - x) % (2 * m) for x in range(2 * m))
    beta = rs.positive_roots[j]
    d = _ref_symmetrizer(rs.family, rs.rank)
    cartan = rs.cartan

    def inner(u, v):
        total = cartan[0][0] * 0
        for a in range(rs.rank):
            for b in range(rs.rank):
                total = total + cartan[a][b] * d[a] * u[a] * v[b]
        return total

    norm = inner(beta, beta)
    N = rs.n_positive
    table = []
    for x in range(2 * N):
        u = rs.positive_roots[x] if x < N else tuple(-c for c in rs.positive_roots[x - N])
        if rs.crystallographic:
            frac = Fraction(2 * inner(u, beta)) / norm
            assert frac.denominator == 1, "non-integral reflection coefficient"
            coeff = frac.numerator
        else:
            coeff = inner(u, beta) * 2 * _ref_inverse(norm)
        image = tuple(u[i] - coeff * beta[i] for i in range(rs.rank))
        table.append(rs.root_index(image))
    return tuple(table)


DIFFERENTIAL_TYPES = (
    ["A%d" % n for n in range(1, 6)]
    + ["B%d" % n for n in range(2, 6)]
    + ["C%d" % n for n in range(3, 6)]
    + ["D4", "D5", "E6", "F4", "G2", "H3"]
    + ["I2(%d)" % m for m in range(5, 21)]
)


@pytest.mark.parametrize("label", DIFFERENTIAL_TYPES)
def test_reflections_match_the_inner_product_reference(label):
    rs = build_root_system(label)
    tables = conjugated_reflections(rs)
    for j in range(rs.n_positive):
        assert tables[j] == reference_reflection_of_root(rs, j), (label, j)


@pytest.mark.parametrize("label", ["E7", "E8", "H4", "I2(40)"])
def test_reflection_tables_are_reflections(label):
    rs = build_root_system(label)
    N = rs.n_positive
    tables = conjugated_reflections(rs)
    for j, t in enumerate(tables):
        assert all(t[t[x]] == x for x in range(2 * N))
        assert t[j] == N + j and t[N + j] == j
        assert [y for y in range(N) if t[y] == N + y] == [j]
        for s in rs.simple_tables:
            # s_k beta is a root whose reflection is s_k s_beta s_k
            image = s[j] if s[j] < N else s[j] - N
            assert tables[image] == tuple(s[t[s[x]]] for x in range(2 * N))


def test_dihedral_reflections_are_the_group_elements_negating_one_root():
    for m in range(5, 41):
        rs = build_root_system("I2(%d)" % m)
        tables = {reference_reflection_of_root(rs, j) for j in range(m)}
        assert len(tables) == m
        assert rs.full_reflection_count() == m - 2
        gens = rs.simple_tables
        elements = orbit([rs.identity_table()], lambda g: [compose(s, g) for s in gens])
        negating_one = {
            g for g in elements if sum(1 for j in range(m) if g[j] == m + j) == 1
        }
        assert negating_one == tables


# The table build the negation fill replaced: all 2N entries of each simple
# reflection's table computed from coordinates and looked up.
def reference_simple_tables(rs):
    cartan = rs.cartan
    n, N = rs.rank, rs.n_positive
    out = []
    for i in range(n):
        table = []
        for x in range(2 * N):
            coords = rs.positive_roots[x] if x < N else tuple(-c for c in rs.positive_roots[x - N])
            pairing = sum(
                (cartan[i][k] * coords[k] for k in range(1, n)),
                start=cartan[i][0] * coords[0],
            )
            image = tuple(c - pairing if k == i else c for k, c in enumerate(coords))
            table.append(rs.root_index(image))
        out.append(tuple(table))
    return tuple(out)


@pytest.mark.parametrize("label", [t for t in ALL_TABLE_TYPES if not t.startswith("I2")])
def test_simple_tables_match_the_full_table_reference(label):
    rs = build_root_system(label)
    assert rs.simple_tables == reference_simple_tables(rs)
