"""Check reports: failure paths, the capacity notes, and the ignored --allow-large.

Every passing report is covered by the other modules; here the library
call behind each check is replaced by one that fails, and the rendering,
the JSON report and the exit codes of `verify` and `table` are pinned.
The sensitivity tests at the end instead corrupt one piece of the data a
check reads, and require the check itself to catch it.
"""

import json

import pytest

from coxcat import cluster, groups, osalgebra, poset, reports, symfunc
from coxcat.cli import main
from coxcat.errors import CheckFailed
from coxcat.exact import BiPoly, UniPoly, bipoly_substitute, divide_one_minus_t
from coxcat.reports import run_all_checks
from coxcat.rootsys import RootSystem


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fail(message):
    def fake(*args, **kwargs):
        raise CheckFailed(message)

    return fake


IDENTITY_FAILS = (osalgebra, "check_dimension_identity", _fail("A3: injected identity failure"))
CLASSES_FAIL = (osalgebra, "verify_main_conjecture", _fail("A3: injected class failure"))

# (check, label, patches, text rendering, JSON report): the golden output of
# each failing check, partial details included.
FAILURES = {
    "antichain-lemmas": (
        "antichain-lemmas", "A3",
        [(poset, "check_antichain_lemmas", _fail("A3: injected lemma failure"))],
        "[FAIL] antichain-lemmas A3\n"
        "    witness: A3: injected lemma failure\n",
        {"check": "antichain-lemmas", "details": {}, "status": "fail", "type": "A3",
         "witnesses": ["A3: injected lemma failure"]},
    ),
    "p-mobius": (
        "p-mobius", "A3",
        [(poset, "p_polynomial_mobius", lambda rs: BiPoly({(0, 0): 1, (1, 0): 5}))],
        "[FAIL] p-mobius A3\n"
        "    full_count: 1\n"
        "    p: x + x^2\n"
        "    witness: direct x + x^2 != inclusion-exclusion 1 + 5*x\n",
        {"check": "p-mobius",
         "details": {"full_count": 1, "p": {"terms": [[1, 0, "1/1"], [2, 0, "1/1"]]}},
         "status": "fail", "type": "A3",
         "witnesses": ["direct x + x^2 != inclusion-exclusion 1 + 5*x"]},
    ),
    "hf": (
        "hf", "A3",
        [(cluster, "verify_hf_conjecture", _fail("A3: injected H/F failure"))],
        "[FAIL] hf A3\n"
        "    witness: A3: injected H/F failure\n",
        {"check": "hf", "details": {}, "status": "fail", "type": "A3",
         "witnesses": ["A3: injected H/F failure"]},
    ),
    "hf-difference": (
        "hf", "A3",
        [(cluster, "bipoly_substitute",
          lambda f, n: bipoly_substitute(f, n) + BiPoly({(1, 0): 3, (2, 1): -1}))],
        "[FAIL] hf A3\n"
        "    witness: A3: H != transformed F; difference terms 3*x - x^2y\n",
        {"check": "hf", "details": {}, "status": "fail", "type": "A3",
         "witnesses": ["A3: H != transformed F; difference terms 3*x - x^2y"]},
    ),
    "main-identity": (
        "main", "A3", [IDENTITY_FAILS],
        "[FAIL] main A3\n"
        "    classes: 5\n"
        "    full_count: 1\n"
        "    witness: A3: injected identity failure\n",
        {"check": "main", "details": {"classes": 5, "full_count": 1}, "status": "fail",
         "type": "A3", "witnesses": ["A3: injected identity failure"]},
    ),
    "main-classes": (
        "main", "A3", [CLASSES_FAIL],
        "[FAIL] main A3\n"
        "    identity_lhs: 24\n"
        "    witness: A3: injected class failure\n",
        {"check": "main", "details": {"identity_lhs": 24}, "status": "fail", "type": "A3",
         "witnesses": ["A3: injected class failure"]},
    ),
    "main-both": (
        "main", "A3", [IDENTITY_FAILS, CLASSES_FAIL],
        "[FAIL] main A3\n"
        "    witness: A3: injected identity failure\n"
        "    witness: A3: injected class failure\n",
        {"check": "main", "details": {}, "status": "fail", "type": "A3",
         "witnesses": ["A3: injected identity failure", "A3: injected class failure"]},
    ),
    "b-lemmas": (
        "b-lemmas", "B3",
        [(osalgebra, "check_B_gprime_lemma", _fail("B3: injected G' failure"))],
        "[FAIL] b-lemmas B3\n"
        "    classes: 10\n"
        "    witness: B3: injected G' failure\n",
        {"check": "b-lemmas", "details": {"classes": 10}, "status": "fail", "type": "B3",
         "witnesses": ["B3: injected G' failure"]},
    ),
    "gerst": (
        "gerst", "A3",
        [(symfunc, "verify_type_A_conjecture", _fail("injected type-A failure"))],
        "[FAIL] gerst A3\n"
        "    calibration_degrees: [2, 3, 4]\n"
        "    max_degree: 7\n"
        "    twist: True\n"
        "    witness: injected type-A failure\n",
        {"check": "gerst",
         "details": {"calibration_degrees": [2, 3, 4], "max_degree": 7, "twist": True},
         "status": "fail", "type": "A3", "witnesses": ["injected type-A failure"]},
    ),
    "bonzero": (
        "bonzero", "A3",
        [(symfunc, "verify_bonzero", _fail("injected bonzero failure"))],
        "[FAIL] bonzero A3\n"
        "    max_degree: 7\n"
        "    witness: injected bonzero failure\n",
        {"check": "bonzero", "details": {"max_degree": 7}, "status": "fail", "type": "A3",
         "witnesses": ["injected bonzero failure"]},
    ),
    "formula": (
        "formula", "A3",
        [(reports._TABLE_RULES, "A", lambda n, m: 2)],
        "[FAIL] formula A3\n"
        "    closed_form: 2\n"
        "    counted: 1\n"
        "    formula: 1/1\n"
        "    witness: counted 1 != closed form 2\n",
        {"check": "formula", "details": {"closed_form": 2, "counted": 1, "formula": "1/1"},
         "status": "fail", "type": "A3", "witnesses": ["counted 1 != closed form 2"]},
    ),
}


def _install(monkeypatch, patches):
    for target, name, value in patches:
        if isinstance(target, dict):
            monkeypatch.setitem(target, name, value)
        else:
            monkeypatch.setattr(target, name, value)


@pytest.mark.parametrize("case", FAILURES)
def test_a_failing_check_keeps_its_details_and_witnesses(capsys, monkeypatch, case):
    check, label, patches, text, report = FAILURES[case]
    _install(monkeypatch, patches)

    assert run_cli(capsys, "verify", check, label) == (1, text, "")
    code, out, err = run_cli(capsys, "verify", check, label, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"reports": [report]}

    code, out, err = run_cli(capsys, "verify", "all", label)
    assert (code, err) == (1, "")
    assert text in out
    assert out.count("[FAIL]") == 1
    code, out, _ = run_cli(capsys, "verify", "all", label, "--json")
    assert code == 1
    failing = [r for r in json.loads(out)["reports"] if r["status"] != "pass"]
    assert failing == [report]


def test_table_prints_a_mismatch_and_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(reports._TABLE_RULES, "A", lambda n, m: 2)
    assert run_cli(capsys, "table", "A3", "B3") == (
        1,
        "type  n  h  |W|  exponents  f counted  f formula  match\n"
        "A3    3  4  24   1,2,3      1          1/1        MISMATCH\n"
        "B3    3  6  48   1,3,5      3          3/1        ok\n",
        "",
    )
    code, out, _ = run_cli(capsys, "table", "A3", "B3", "--json")
    assert [row["match"] for row in json.loads(out)["rows"]] == [False, True]
    assert code == 1


@pytest.mark.parametrize(
    "argv", [("verify", "hf", "E7"), ("verify", "all", "A11"), ("fpoly", "E8", "--json")]
)
def test_allow_large_has_no_effect_on_checks(capsys, argv):
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--allow-large") == plain


def test_allow_large_does_not_lift_the_enumeration_budget(capsys):
    code, out, err = run_cli(capsys, "verify", "hf", "D12", "--allow-large")
    assert (code, out) == (2, "")
    assert err.startswith("coxcat: ") and err.count("\n") == 1, err


def test_every_report_is_timed():
    for report in run_all_checks("A13"):
        assert isinstance(report.ms, float) and report.ms >= 0.0, report


@pytest.mark.parametrize("spelling", ["e6", "e 6"])
def test_every_report_names_the_canonical_label(capsys, spelling):
    code, out, _ = run_cli(capsys, "verify", "all", spelling)
    assert code == 0
    heads = [line for line in out.splitlines() if line.startswith("[")]
    assert len(heads) == 8
    assert all(line.startswith("[PASS] ") and line.endswith(" E6") for line in heads), heads
    code, out, _ = run_cli(capsys, "verify", "all", spelling, "--json")
    assert code == 0
    assert [r["type"] for r in json.loads(out)["reports"]] == ["E6"] * 8


# -- sensitivity: one corrupted datum turns each check to FAIL -----------------


def _failing_witnesses(capsys, check, label):
    """The witnesses of `verify check label`, which must fail with exit 1."""
    code, out, err = run_cli(capsys, "verify", check, label, "--json")
    (report,) = json.loads(out)["reports"]
    assert (code, err, report["status"]) == (1, "", "fail"), out
    text_code, text, _ = run_cli(capsys, "verify", check, label)
    assert text_code == 1 and text.startswith(f"[FAIL] {check} {label}\n"), text
    return report["witnesses"]


@pytest.mark.parametrize("label", ["A3", "H3"])
def test_main_catches_a_character_off_by_one_minus_t(capsys, monkeypatch, label):
    original = osalgebra.os_graded_character

    def corrupted(rs):
        gc = original(rs)
        # the first non-identity class the root character sees: chi_R != 0 there
        index = next(i for i, r in enumerate(groups.chi_R(rs, gc.classes)) if i and r)
        chars = list(gc.chars)
        chars[index] = chars[index] + UniPoly((1, -1))
        # still divisible by 1 - t, so only the class-by-class identity can object
        assert divide_one_minus_t(chars[index].coeffs) is not None
        return gc._replace(chars=tuple(chars))

    monkeypatch.setattr(osalgebra, "os_graded_character", corrupted)
    (witness,) = _failing_witnesses(capsys, "main", label)
    assert witness.startswith(f"{label} class ") and " chi_R*chi_G' = " in witness, witness
    assert witness.endswith(" != 0"), witness


def test_b_lemmas_catch_a_class_label_with_its_signs_swapped(capsys, monkeypatch):
    original = groups.generate_group

    def corrupted(rs):
        classes = list(original(rs))
        # the first class whose short-cycle verdict the swap changes
        index, swapped = next(
            (i, (negative, positive))
            for i, c in enumerate(classes)
            for positive, negative in [c.label]
            if groups.has_positive_short_cycle((negative, positive))
            != groups.has_positive_short_cycle(c.label)
        )
        classes[index] = classes[index]._replace(label=swapped)
        return tuple(classes)

    monkeypatch.setattr(groups, "generate_group", corrupted)
    (witness,) = _failing_witnesses(capsys, "b-lemmas", "B3")
    assert witness.startswith("B3 class ") and ", positive 1/2-cycle = " in witness, witness


@pytest.mark.parametrize("label", ["A3", "D4"])
def test_p_mobius_catches_one_antichain_too_many_in_a_parabolic(capsys, monkeypatch, label):
    original = poset.enumerate_antichains

    def corrupted(rs, nodes=None):
        tally = original(rs) if nodes is None else original(rs, nodes)
        if nodes == frozenset({0}):
            # one more antichain of one root in the rank-1 parabolic on node 0
            return tally._replace(counts=tally.counts + (((1, 1, 0), 1),))
        return tally

    monkeypatch.setattr(poset, "enumerate_antichains", corrupted)
    (witness,) = _failing_witnesses(capsys, "p-mobius", label)
    assert witness.startswith("direct ") and " != inclusion-exclusion " in witness, witness


def test_formula_catches_a_full_reflection_count_one_too_high(capsys, monkeypatch):
    original = RootSystem.full_reflection_count
    monkeypatch.setattr(RootSystem, "full_reflection_count", lambda rs: original(rs) + 1)
    assert _failing_witnesses(capsys, "formula", "A3") == [
        "counted 2 != formula value 1/1",
        "counted 2 != closed form 1",
    ]
