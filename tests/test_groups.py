"""Brute-force group generation, conjugacy classes, root characters."""

import pytest

from coxcat import cluster, groups
from coxcat.cli import main
from coxcat.errors import CapacityExceeded, InternalError, UsageError
from coxcat.exact import centralizer_order, partitions_of
from coxcat.groups import (
    check_B_lemma,
    chi_R,
    generate_group,
    has_positive_short_cycle,
    signed_cycle_type,
)
from coxcat.rootsys import build_root_system, compose, orbit
from references import permutation_of_letters, reference_class_label, signed_permutation


def walked_elements(rs):
    """W, sorted: one walk of the identity under the simple reflections."""
    gens = rs.simple_tables
    return sorted(orbit([rs.identity_table()], lambda g: [compose(s, g) for s in gens]))


def test_a2_group():
    rs = build_root_system("A2")
    classes = generate_group(rs)
    assert len(walked_elements(rs)) == 6
    assert sorted(c.size for c in classes) == [1, 2, 3]
    assert classes[0].rep == rs.identity_table()


def test_class_sizes_fill_the_group():
    for label in ("A3", "B3", "D4", "G2", "H3", "I2(5)", "I2(8)"):
        rs = build_root_system(label)
        assert sum(c.size for c in generate_group(rs)) == len(walked_elements(rs))


def test_composition_and_inverse():
    rs = build_root_system("B2")
    identity = rs.identity_table()
    for g in walked_elements(rs)[:12]:
        inverse = tuple(sorted(range(len(g)), key=g.__getitem__))
        assert compose(g, inverse) == identity
        assert compose(inverse, g) == identity


def reference_compose(g: tuple, h: tuple) -> tuple:
    """The generator composition rootsys.compose replaced, kept as the reference: g after h."""
    return tuple(g[x] for x in h)


# types with |W| * 2N up to 1,000,000, up to I2(500); the group budget also
# admits D6, H4, A7, B6, C6, E6 and I2(1000), each 0.4-1.5 s a build
GROUP_BUDGET_LABELS = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 6)]
    + ["C3", "C4", "C5", "D4", "D5", "F4", "G2", "H3", "I2(5)", "I2(8)", "I2(128)", "I2(500)"]
)


@pytest.mark.parametrize("label", GROUP_BUDGET_LABELS)
def test_group_is_the_same_under_the_reference_composition(label, monkeypatch):
    rs = build_root_system(label)
    classes = generate_group.__wrapped__(rs)
    monkeypatch.setattr(groups, "compose", reference_compose)
    # (rep, size, label) of every class
    assert classes == generate_group.__wrapped__(rs)
    # generation and conjugation by involutions cannot tell g after h from
    # h after g, so the products themselves are compared in both orders
    elements = walked_elements(rs)
    for g in elements[:: max(1, len(elements) // 64)]:
        for s in rs.simple_tables:
            assert compose(g, s) == reference_compose(g, s)
            assert compose(s, g) == reference_compose(s, g)


def test_composing_two_entry_tables_gives_a_tuple():
    # itemgetter with one index would give a bare entry; two give a tuple,
    # also from the bytes rows the cluster complex reads
    assert compose((1, 0), (1, 0)) == (0, 1)
    assert compose((1, 0), (0, 1)) == (1, 0)
    assert compose(b"\x07\x09", (1, 0)) == (9, 7)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "A1"],
        ["os-character", "A1"],
        ["fpoly", "A1"],
        ["verify", "all", "G2"],
        ["verify", "all", "I2(5)"],
    ],
    ids=" ".join,
)
def test_every_table_a_command_composes_has_two_entries_or_more(argv, monkeypatch, capsys):
    shapes = []

    def spy(g, h):
        out = compose(g, h)
        shapes.append((len(g), len(h), type(out)))
        return out

    monkeypatch.setattr(groups, "compose", spy)
    monkeypatch.setattr(cluster, "compose", spy)
    assert main(argv) == 0
    assert shapes
    assert min(min(len_g, len_h) for len_g, len_h, _ in shapes) >= 2
    assert {kind for _, _, kind in shapes} == {tuple}
    if argv[-1] == "A1":
        # A1's reflection tables (2N = 2) and rotation positions (n + N = 2)
        assert min(len_h for _, len_h, _ in shapes) == 2


def test_orders():
    for label, order in (("B3", 48), ("H3", 120), ("I2(7)", 14)):
        assert sum(c.size for c in generate_group(build_root_system(label))) == order


def test_too_large_group_rejected():
    message = r"E7: \|W\| \* 2N = 365783040 exceeds the group budget 4000000"
    with pytest.raises(CapacityExceeded, match=message):
        generate_group(build_root_system("E7"))


def test_chi_r_values():
    rs = build_root_system("A2")
    classes = generate_group(rs)
    values = dict(zip((c.label for c in classes), chi_R(classes)))
    assert values == {(1, 1, 1): 6, (2, 1): 0, (3,): 0}

    rs = build_root_system("A3")
    classes = generate_group(rs)
    values = dict(zip((c.label for c in classes), chi_R(classes)))
    assert values[(1, 1, 1, 1)] == 12
    assert values[(2, 1, 1)] == 2
    assert values[(2, 2)] == 0
    assert values[(3, 1)] == 0
    assert values[(4,)] == 0

    rs = build_root_system("B2")
    assert chi_R(generate_group(rs))[0] == 8


def test_type_a_labels_are_cycle_types_with_correct_class_sizes():
    for n_letters in (2, 3, 4, 5):
        rs = build_root_system(f"A{n_letters - 1}")
        fact = 1
        for i in range(2, n_letters + 1):
            fact *= i
        labels = {c.label: c.size for c in generate_group(rs)}
        assert set(labels) == set(partitions_of(n_letters))
        for lam, size in labels.items():
            assert size == fact // centralizer_order(lam)


def test_letter_permutation_recovery():
    rs = build_root_system("A3")
    seen = set()
    for g in walked_elements(rs):
        perm = permutation_of_letters(rs, g)
        assert sorted(perm) == [0, 1, 2, 3]
        seen.add(perm)
    assert len(seen) == 24, "the letter action is faithful"


def test_signed_cycle_types_b3():
    rs = build_root_system("B3")
    assert signed_cycle_type(rs, rs.identity_table()) == ((1, 1, 1), ())
    flip = rs.simple_tables[2]  # negates one axis
    assert signed_cycle_type(rs, flip) == ((1, 1), (1,))
    swap = rs.simple_tables[0]  # swaps two axes
    assert signed_cycle_type(rs, swap) == ((2, 1), ())


def test_signed_class_sizes_b2():
    sizes = {c.label: c.size for c in generate_group(build_root_system("B2"))}
    assert sizes == {
        ((1, 1), ()): 1,
        ((), (1, 1)): 1,
        ((1,), (1,)): 2,
        ((2,), ()): 2,
        ((), (2,)): 2,
    }


def test_positive_short_cycle_predicate():
    assert has_positive_short_cycle(((1, 1), (1,)))
    assert has_positive_short_cycle(((2,), ()))
    assert not has_positive_short_cycle(((), (2, 1)))
    assert not has_positive_short_cycle(((3,), ()))


@pytest.mark.parametrize("label", ["B2", "B3", "B4"])
def test_b_lemma_exhaustive(label):
    rs = build_root_system(label)
    result = check_B_lemma(rs)
    assert result["classes"] == len(generate_group(rs))


def test_b_lemma_rejects_other_families():
    rs = build_root_system("A3")
    with pytest.raises(UsageError, match=r"^A3: the signed-cycle lemma is about type B$"):
        check_B_lemma(rs)


# -- the one coordinate reader against the two it replaced ---------------------


def reference_coordinates(rs, g):
    """The signed permutation of the coordinates, as the replaced readers gave it."""
    if rs.family == "A":
        return [(y, 1) for y in permutation_of_letters(rs, g)]
    return signed_permutation(rs, g)


@pytest.mark.parametrize("label", [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 6)])
def test_coordinate_reader_matches_the_replaced_readers_on_every_element(label):
    rs = build_root_system(label)
    for g in walked_elements(rs):
        assert groups.signed_coordinates(rs, g) == reference_coordinates(rs, g), g
        assert groups._class_label(rs, g) == reference_class_label(rs, g), g


@pytest.mark.parametrize("label", ["A7", "B6"])
def test_class_table_labels_match_the_replaced_readers(label):
    rs = build_root_system(label)
    classes = generate_group(rs)
    assert [c.label for c in classes] == [reference_class_label(rs, c.rep) for c in classes]


def test_a_sign_flipped_in_the_b_map_is_caught(monkeypatch):
    rs = build_root_system("B3")
    reader = groups.signed_coordinates

    def flipped(rs_arg, g):
        # the image of e_1 with its sign turned
        (target, sign), *rest = reader(rs_arg, g)
        return [(target, -sign), *rest]

    monkeypatch.setattr(groups, "signed_coordinates", flipped)
    assert any(
        groups._class_label(rs, g) != reference_class_label(rs, g) for g in walked_elements(rs)
    )


@pytest.mark.parametrize("label", ["C3", "D4", "E6", "F4", "G2", "H3", "I2(5)"])
def test_signed_cycle_type_refuses_families_other_than_a_and_b(label):
    rs = build_root_system(label)
    with pytest.raises(UsageError, match=r"^signed permutations only exist for type B$"):
        signed_cycle_type(rs, rs.identity_table())


def test_type_a_signed_cycle_type_is_the_cycle_type_with_no_negative_cycles():
    rs = build_root_system("A3")
    for cls in generate_group(rs):
        assert signed_cycle_type(rs, cls.rep) == (cls.label, ())


# every non-dihedral type with |W| * 2N <= 1,000,000, and the dihedral types up
# to I2(128)
GROUP_CAP_TYPES = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 6)]
    + [f"C{n}" for n in range(3, 6)]
    + ["D4", "D5", "F4", "G2", "H3"]
    + [f"I2({m})" for m in range(5, 129)]
)


def test_identity_class_comes_first():
    for label in GROUP_CAP_TYPES:
        rs = build_root_system(label)
        classes = generate_group(rs)
        assert classes[0].rep == rs.identity_table(), label
        assert classes[0].size == 1


def test_a_class_sort_without_the_identity_first_is_an_internal_error(monkeypatch):
    import coxcat.groups as groups

    classes_of = groups._conjugacy_classes
    monkeypatch.setattr(
        groups, "_conjugacy_classes", lambda rs, elements: classes_of(rs, elements)[::-1]
    )
    generate_group.cache_clear()
    with pytest.raises(InternalError, match="B3: class 0 is not the identity"):
        generate_group(build_root_system("B3"))


def test_dihedral_odd_root_action_is_regular():
    for m in (5, 7):
        rs = build_root_system(f"I2({m})")
        classes = generate_group(rs)
        values = chi_R(classes)
        for cls, value in zip(classes, values):
            expected = len(walked_elements(rs)) if cls.rep == rs.identity_table() else 0
            assert value == expected
