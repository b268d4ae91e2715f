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
    permutation_of_letters,
    signed_cycle_type,
)
from coxcat.rootsys import build_root_system, compose


def test_a2_group():
    rs = build_root_system("A2")
    group = generate_group(rs)
    assert len(group.elements) == 6
    assert sorted(c.size for c in group.classes) == [1, 2, 3]
    assert group.classes[0].rep == rs.identity_table()


def test_class_sizes_fill_the_group():
    for label in ("A3", "B3", "D4", "G2", "H3", "I2(5)", "I2(8)"):
        group = generate_group(build_root_system(label))
        assert sum(c.size for c in group.classes) == len(group.elements)


def test_composition_and_inverse():
    rs = build_root_system("B2")
    group = generate_group(rs)
    identity = rs.identity_table()
    for g in group.elements[:12]:
        inverse = tuple(sorted(range(len(g)), key=g.__getitem__))
        assert compose(g, inverse) == identity
        assert compose(inverse, g) == identity


def reference_compose(g: tuple, h: tuple) -> tuple:
    """The generator composition rootsys.compose replaced, kept as the reference: g after h."""
    return tuple(g[x] for x in h)


# types inside the group budget, up to I2(500), whose |W| * 2N is the budget itself
GROUP_BUDGET_LABELS = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 6)]
    + ["C3", "C4", "C5", "D4", "D5", "F4", "G2", "H3", "I2(5)", "I2(8)", "I2(128)", "I2(500)"]
)


@pytest.mark.parametrize("label", GROUP_BUDGET_LABELS)
def test_group_is_the_same_under_the_reference_composition(label, monkeypatch):
    rs = build_root_system(label)
    group = generate_group.__wrapped__(rs)
    monkeypatch.setattr(groups, "compose", reference_compose)
    reference = generate_group.__wrapped__(rs)
    assert group.elements == reference.elements
    # (rep, size, label) of every class
    assert group.classes == reference.classes
    # generation and conjugation by involutions cannot tell g after h from
    # h after g, so the products themselves are compared in both orders
    for g in group.elements[:: max(1, len(group.elements) // 64)]:
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
    assert len(generate_group(build_root_system("B3")).elements) == 48
    assert len(generate_group(build_root_system("H3")).elements) == 120
    assert len(generate_group(build_root_system("I2(7)")).elements) == 14


def test_too_large_group_rejected():
    message = r"E6: \|W\| \* 2N = 3732480 exceeds the group budget 1000000"
    with pytest.raises(CapacityExceeded, match=message):
        generate_group(build_root_system("E6"))


def test_chi_r_values():
    rs = build_root_system("A2")
    group = generate_group(rs)
    values = dict(zip((c.label for c in group.classes), chi_R(rs, group.classes)))
    assert values == {(1, 1, 1): 6, (2, 1): 0, (3,): 0}

    rs = build_root_system("A3")
    group = generate_group(rs)
    values = dict(zip((c.label for c in group.classes), chi_R(rs, group.classes)))
    assert values[(1, 1, 1, 1)] == 12
    assert values[(2, 1, 1)] == 2
    assert values[(2, 2)] == 0
    assert values[(3, 1)] == 0
    assert values[(4,)] == 0

    rs = build_root_system("B2")
    group = generate_group(rs)
    assert chi_R(rs, group.classes)[0] == 8


def test_type_a_labels_are_cycle_types_with_correct_class_sizes():
    for n_letters in (2, 3, 4, 5):
        rs = build_root_system(f"A{n_letters - 1}")
        group = generate_group(rs)
        fact = 1
        for i in range(2, n_letters + 1):
            fact *= i
        labels = {c.label: c.size for c in group.classes}
        assert set(labels) == set(partitions_of(n_letters))
        for lam, size in labels.items():
            assert size == fact // centralizer_order(lam)


def test_letter_permutation_recovery():
    rs = build_root_system("A3")
    group = generate_group(rs)
    seen = set()
    for g in group.elements:
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
    group = generate_group(build_root_system("B2"))
    sizes = {c.label: c.size for c in group.classes}
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
    group = generate_group(rs)
    result = check_B_lemma(rs)
    assert result["classes"] == len(group.classes)


def test_b_lemma_rejects_other_families():
    rs = build_root_system("A3")
    with pytest.raises(UsageError, match=r"^A3: the signed-cycle lemma is about type B$"):
        check_B_lemma(rs)


# every non-dihedral type inside the group budget (|W| * 2N <= 1,000,000), and
# the dihedral types up to I2(128)
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
        group = generate_group(rs)
        assert group.classes[0].rep == rs.identity_table(), label
        assert group.classes[0].size == 1


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
        group = generate_group(rs)
        values = chi_R(rs, group.classes)
        for cls, value in zip(group.classes, values):
            expected = len(group.elements) if cls.rep == rs.identity_table() else 0
            assert value == expected
