"""Command-line interface: output shape, exit codes, and determinism."""

import functools
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import coxcat.cli
from coxcat.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_limited(argv):
    """The CLI in a child process with 1 GB of address space, so a label that
    escapes its bound fails fast instead of exhausting the host."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "coxcat.cli", *argv],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


def test_table_rows(capsys):
    code, out, err = run_cli(
        capsys, "table", "A3", "B3", "E6", "F4", "H3", "I2(12)"
    )
    assert code == 0
    assert err == ""
    by_type = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] != "type":
            by_type[parts[0]] = parts
    for label, expected in [("A3", "1"), ("B3", "3"), ("E6", "7"),
                            ("F4", "10"), ("H3", "8"), ("I2(12)", "10")]:
        row = by_type[label]
        assert expected in row, f"{label}: {row}"
        assert row[-1] == "ok"


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "A3", "E6", "I2(12)", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    lookup = {row["type"]: row for row in rows}
    assert lookup["A3"]["full_counted"] == 1
    assert lookup["E6"]["full_counted"] == 7
    assert lookup["I2(12)"]["full_counted"] == 10
    for row in rows:
        assert row["match"] is True
        assert row["full_formula"] == f"{row['full_counted']}/1"


def test_roots_output(capsys):
    code, out, _ = run_cli(capsys, "roots", "B2")
    assert code == 0
    assert "exponents 1,3" in out
    assert "h=4" in out
    assert "|W|=8" in out
    assert "full reflections 2 (formula 2/1)" in out
    code, out, _ = run_cli(capsys, "roots", "B2", "--json")
    data = json.loads(out)
    assert data["order"] == 8
    assert data["full_reflections"] == 2
    assert data["formula"] == "2/1"
    assert len(data["roots"]) == 4
    heights = [r["height"] for r in data["roots"]]
    assert heights == sorted(heights)


def test_antichains_output(capsys):
    code, out, _ = run_cli(capsys, "antichains", "A2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 5
    code, _, _ = run_cli(capsys, "antichains", "A2")
    assert code == 0


def test_fpoly_runs(capsys):
    code, out, _ = run_cli(capsys, "fpoly", "A2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["maximal_faces"] == 5
    assert data["min_maximal_size"] == 2
    assert data["vertices"] == 5


def test_os_character_output(capsys):
    code, out, _ = run_cli(capsys, "os-character", "B2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [1, 4, 3]
    identity = next(r for r in data["classes"] if r["size"] == 1)
    assert identity["g_prime"] == "-2/1"


@pytest.mark.parametrize("label, classes", [("D5", 18), ("F4", 25)])
def test_main_check_runs_up_to_twenty_five_hyperplanes(capsys, label, classes):
    # D5 (20 hyperplanes) and F4 (24) lie inside the arrangement-character cap
    code, out, _ = run_cli(capsys, "verify", "main", label)
    assert code == 0, out
    assert out.startswith(f"[PASS] main {label}")
    assert f"    classes: {classes}\n" in out


def test_os_character_f4(capsys):
    code, out, err = run_cli(capsys, "os-character", "F4")
    assert code == 0, err
    assert out.startswith("F4: graded dimensions 1, 24, 190, 552, 385\n")


def test_verify_single_checks(capsys):
    for check, label in [("hf", "B3"), ("main", "A3"), ("formula", "E8"),
                         ("p-mobius", "D4"), ("antichain-lemmas", "F4")]:
        code, out, _ = run_cli(capsys, "verify", check, label)
        assert code == 0, f"{check} {label}: {out}"
        assert out.startswith(f"[PASS] {check} {label}")


def test_verify_all_reports_every_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "A2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 8
    assert all(l.startswith("[PASS]") for l in lines)
    for name in ("formula", "antichain-lemmas", "p-mobius", "hf",
                 "main", "b-lemmas", "gerst", "bonzero"):
        assert any(f" {name} " in l for l in lines)


def test_verify_all_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "B2", "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 8
    for rep in reports:
        assert set(rep) == {"check", "type", "status", "details", "witnesses"}
        assert rep["status"] == "pass"
        assert rep["witnesses"] == []
        assert "ms" not in rep


def test_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(3):
        code, out, _ = run_cli(capsys, "verify", "all", "A2", "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "gerst", "--max-degree", "4")
        outputs.add(out)
    assert len(outputs) == 1


def test_vacuous_checks_pass_with_note(capsys):
    code, out, _ = run_cli(capsys, "verify", "b-lemmas", "A3")
    assert code == 0
    assert out.startswith("[PASS]")
    assert "not applicable" in out
    code, out, _ = run_cli(capsys, "verify", "antichain-lemmas", "H3")
    assert code == 0
    assert "not applicable" in out


def test_verify_all_skips_oversized_oracles(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "E7")
    assert code == 0
    assert "outside oracle capacity" in out


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "roots", "Z9")
    assert code == 2
    assert "coxcat:" in err
    code, _, err = run_cli(capsys, "verify", "main", "E8")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "hf", "D12")
    assert code == 2
    code, _, err = run_cli(capsys, "fpoly", "I2(5)")
    assert code == 2  # non-crystallographic


@pytest.mark.parametrize(
    "argv",
    [
        ("antichains", "A13"),
        ("gerst", "--max-degree", "0"),
        ("gerst", "--max-degree", "-1"),
        ("verify", "gerst", "A2", "--max-degree", "0"),
        ("--threads", "4", "table", "A2"),
        ("verify", "all", "Z9"),  # an unknown label is no capacity overrun
        ("antichains", "H3"),
        # labels beyond the rank and dihedral-order bounds
        ("table", "I2(10000000)"),
        ("verify", "all", "A100000"),
        ("table", "A49"),
        ("roots", "B49", "--json"),
        ("table", "C49"),
        ("verify", "all", "D49"),
        ("table", "I2(50001)"),
        ("table", "A" + "9" * 5000),  # too many digits for int()
        # digits other than ASCII ones, which int() would convert
        ("table", "A\u0663"),  # an Arabic-Indic three
        ("table", "I2(\u0665)"),  # an Arabic-Indic five
        # series truncations beyond the degree bound
        ("gerst", "--max-degree", "25"),
        ("verify", "all", "A3", "--max-degree", "100"),
        # degrees int() would convert but that are not plain ASCII digits
        ("gerst", "--max-degree", "\u0663"),  # an Arabic-Indic three
        ("verify", "all", "A3", "--max-degree", "1_0"),
        ("gerst", "--max-degree", " 3 "),
        ("gerst", "--max-degree", "+3"),
    ],
)
def test_out_of_range_requests_exit_two_in_one_line(argv):
    done = _run_limited(argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("coxcat")
    assert done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr


def test_rank_refusals_name_the_range(capsys):
    for label, message in (
        ("A49", "rank 49 out of range for family A (1..48)"),
        ("E9", "rank 9 out of range for family E (6..8)"),
        ("C2", "rank 2 out of range for family C (3..48)"),
    ):
        assert run_cli(capsys, "table", label) == (2, "", f"coxcat: {message}\n")


def test_the_largest_admitted_degree_parses():
    args = build_parser().parse_args(["gerst", "--max-degree", "24"])
    assert args.max_degree == 24


def test_the_degree_range_holds_past_the_int_string_limit(capsys):
    nines = "9" * 700
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for value, message in (
            (nines, f"must be at most 24, got {nines}"),
            ("-" + nines, f"must be at least 1, got -{nines}"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["gerst", "--max-degree", value])
            assert exc.value.code == 2
            assert capsys.readouterr() == (
                "", f"coxcat gerst: error: argument --max-degree: {message}\n"
            )
        args = build_parser().parse_args(["gerst", "--max-degree", "0" * 700 + "5"])
        assert args.max_degree == 5
    finally:
        sys.set_int_max_str_digits(limit)


def test_largest_admitted_labels_run():
    labels = ["A48", "B48", "C48", "D48", "I2(50000)"]
    done = _run_limited(["table", *labels])
    assert (done.returncode, done.stderr) == (0, "")
    rows = done.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == labels
    assert all(row.endswith("ok") for row in rows)


def test_fpoly_allow_large_has_no_effect(capsys):
    # Cat(D11) = 520676 is inside the Catalan budget, and no flag is needed
    code, out, _ = run_cli(capsys, "fpoly", "D11", "--json")
    assert code == 0
    assert json.loads(out)["maximal_faces"] == 520676
    plain = run_cli(capsys, "fpoly", "A3", "--json")
    assert plain[0] == 0
    assert run_cli(capsys, "fpoly", "A3", "--json", "--allow-large") == plain
    # Cat(D12) = 1998724 is over it, with or without the flag
    refused = run_cli(capsys, "fpoly", "D12")
    assert refused[:2] == (2, "")
    assert refused[2].startswith("coxcat: ") and refused[2].count("\n") == 1, refused
    assert run_cli(capsys, "fpoly", "D12", "--allow-large") == refused


def test_antichains_reach_the_catalan_budget(capsys):
    # Cat(D11) = 520676 antichains, refused under the former budget of 250000
    code, out, _ = run_cli(capsys, "antichains", "D11", "--json")
    assert code == 0
    assert json.loads(out)["total"] == 520676


@pytest.mark.parametrize("label", ["E7", "E8", "A9"])
def test_verify_all_runs_enumerations_up_to_the_catalan_budget(capsys, label):
    code, out, _ = run_cli(capsys, "verify", "all", label, "--json")
    assert code == 0
    reports = {r["check"]: r for r in json.loads(out)["reports"]}
    for check in ("antichain-lemmas", "p-mobius", "hf"):
        assert reports[check]["status"] == "pass"
        assert "note" not in reports[check]["details"], (check, reports[check])


def test_verify_all_notes_the_catalan_budget_beyond_it(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "A13", "--json")
    assert code == 0
    reports = {r["check"]: r for r in json.loads(out)["reports"]}
    for check in ("antichain-lemmas", "p-mobius", "hf"):
        note = reports[check]["details"]["note"]
        assert note.startswith("not applicable: outside oracle capacity"), note
        assert "A13: Cat(W) = 2674440 exceeds the enumeration budget 1000000" in note


def test_os_character_runs_past_the_former_root_cap(capsys):
    # I2(129) has 258 roots, refused under the former cap of 256 roots
    code, out, err = run_cli(capsys, "os-character", "I2(129)", "--json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["classes"]) == 66


def test_verify_main_runs_up_to_the_group_budget(capsys):
    # |W| * 2N = 2000 * 2000, the largest dihedral element table admitted
    code, out, err = run_cli(capsys, "verify", "main", "I2(1000)", "--json")
    assert (code, err) == (0, "")
    (report,) = json.loads(out)["reports"]
    assert report["status"] == "pass"
    assert (report["details"]["classes"], report["details"]["full_count"]) == (503, 998)


@pytest.mark.parametrize(
    "check, label, details",
    [
        # |W| * 2N = 51840 * 72 = 3732480, the largest non-dihedral table admitted
        ("main", "E6", {"classes": 25, "full_count": 7, "identity_lhs": 362880}),
        # |W| * 2N = 46080 * 72 = 3317760
        ("b-lemmas", "B6", {"classes": 65, "vanishing_checked": 45}),
    ],
)
def test_group_checks_run_on_the_largest_admitted_types(capsys, check, label, details):
    code, out, err = run_cli(capsys, "verify", check, label, "--json")
    assert (code, err) == (0, "")
    (report,) = json.loads(out)["reports"]
    assert report["status"] == "pass"
    assert report["details"] == details


def test_verify_main_refuses_a_group_over_the_budget(capsys):
    assert run_cli(capsys, "verify", "main", "I2(1001)") == (
        2, "", "coxcat: I2(1001): |W| * 2N = 4008004 exceeds the group budget 4000000\n"
    )


def test_verify_all_notes_the_group_budget_beyond_it(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "A16", "--json")
    assert code == 0
    note = {r["check"]: r for r in json.loads(out)["reports"]}["main"]["details"]["note"]
    entries = math.factorial(17) * 2 * 136
    assert note == (
        "not applicable: outside oracle capacity "
        f"(A16: |W| * 2N = {entries} exceeds the group budget 4000000)"
    )


def test_max_degree_is_plumbed(capsys):
    code, out, _ = run_cli(capsys, "gerst", "--max-degree", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert max(row["degree"] for row in data["degrees"]) == 3
    code, out2, _ = run_cli(capsys, "gerst", "--max-degree", "5", "--json")
    data2 = json.loads(out2)
    assert max(row["degree"] for row in data2["degrees"]) == 5
    # identity class in degree 3 carries (1-t)(1-2t) = 1 - 3t + 2t^2, scaled by 1/z
    deg3 = next(row for row in data["degrees"] if row["degree"] == 3)
    identity = next(r for r in deg3["classes"] if r["class"] == [1, 1, 1])
    assert identity["z"] == 6


def test_gerst_at_degree_twelve(capsys):
    code, out, _ = run_cli(capsys, "gerst", "--max-degree", "12", "--json")
    assert code == 0
    data = json.loads(out)
    assert [c["check"] for c in data["checks"]] == ["gerst", "bonzero"]
    assert all(c["status"] == "pass" for c in data["checks"])
    assert max(row["degree"] for row in data["degrees"]) == 12


def test_gerst_text_output(capsys):
    code, out, _ = run_cli(capsys, "gerst", "--max-degree", "4")
    assert code == 0
    assert "[PASS] gerst -" in out
    assert "[PASS] bonzero -" in out


def test_gerst_runs_its_checks_with_no_root_system(capsys, monkeypatch):
    import coxcat.rootsys as rootsys

    build = rootsys.build_root_system
    built_by_run_check = []

    def recording_build(label):
        # the S_2-S_4 calibration oracles build type-A systems of their own
        if sys._getframe(1).f_code.co_name == "run_check":
            built_by_run_check.append(label)
        return build(label)

    monkeypatch.setattr(rootsys, "build_root_system", recording_build)
    code, out, _ = run_cli(capsys, "gerst", "--max-degree", "3", "--json")
    assert code == 0
    assert built_by_run_check == []
    assert [(c["check"], c["type"]) for c in json.loads(out)["checks"]] == [
        ("gerst", "-"),
        ("bonzero", "-"),
    ]


def test_rationals_never_rendered_as_floats(capsys):
    for argv in (("verify", "all", "B2", "--json"), ("os-character", "I2(6)", "--json"),
                 ("gerst", "--max-degree", "4", "--json")):
        _, out, _ = run_cli(capsys, *argv)
        data = json.loads(out)

        def walk(node):
            assert not isinstance(node, float), node
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(data)


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("label", ["H3", "H4"])
def test_roots_json_prints_golden_heights_as_text(capsys, label):
    code, out, err = run_cli(capsys, "roots", label, "--json")
    assert code == 0
    assert err == ""
    assert out.count("\n") == 1
    data = json.loads(out)
    assert len(data["roots"]) == data["n_positive"]
    _, text, _ = run_cli(capsys, "roots", label)
    text_heights = [line.split("height ")[1] for line in text.splitlines()[2:]]
    assert [r["height"] for r in data["roots"]] == text_heights


SWEEP_COMMANDS = [
    ("table",), ("roots",), ("roots", "--json"), ("antichains",), ("fpoly",),
    ("os-character",), ("verify", "all"),
]
SWEEP_TYPES = ["A1", "B2", "C3", "D4", "G2", "F4", "H3", "H4", "I2(5)", "I2(30)", "E6"]


@pytest.mark.parametrize("label", SWEEP_TYPES)
@pytest.mark.parametrize("command", SWEEP_COMMANDS, ids=" ".join)
def test_no_command_ends_in_a_traceback(capsys, command, label):
    code, _, err = run_cli(capsys, *command, label)
    assert code in (0, 2), (command, label, code)
    if code == 2:
        assert err.startswith("coxcat: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_violation_outside_verify_exits_one_in_one_line(capsys, monkeypatch, json_flag):
    import coxcat.osalgebra

    # a character that 1 - t does not divide has no G' module
    monkeypatch.setattr(coxcat.osalgebra, "divide_one_minus_t", lambda coeffs: None)
    code, out, err = run_cli(capsys, "os-character", "A3", *json_flag)
    assert (code, out) == (1, "")
    assert err.startswith("coxcat: A3 class ") and err.count("\n") == 1, err
    assert err.endswith(" not divisible by 1-t\n"), err


@pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "wrapped"])
def test_each_command_line_builds_its_own_group(capsys, monkeypatch, wrapped):
    import coxcat.groups
    from coxcat.rootsys import build_root_system

    original = coxcat.groups.generate_group
    calls = []
    if wrapped:
        # rebind it the way a tracer does: a wrapper without cache_clear,
        # wherever a coxcat module bound the cached function
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("coxcat") and vars(module).get("generate_group") is original:
                monkeypatch.setattr(module, "generate_group", wrapper)
    built = []
    for _ in range(2):
        assert run_cli(capsys, "verify", "main", "A3", "--json")[0] == 0
        # cache_clear also resets the statistics: one miss is this call's own build
        assert original.cache_info().misses == 1
        built.append(original(build_root_system("A3")))
    assert built[0] is not built[1]
    assert bool(calls) == wrapped


@pytest.mark.parametrize("argv", [("table", "A3"), ("verify", "all", "B4", "--json")], ids=" ".join)
def test_a_reader_that_closed_stdout_gets_exit_141_and_no_traceback(argv):
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "coxcat.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


# one call per command; each `cmd_*` returns (code, payload, lines) and main writes
ONE_CALL_EACH = [
    ("table", "A3", "B3"), ("roots", "H3"), ("antichains", "B3"), ("fpoly", "A3"),
    ("os-character", "A3"), ("gerst", "--max-degree", "4"), ("verify", "all", "A3"),
]


@pytest.mark.parametrize("argv", ONE_CALL_EACH, ids=" ".join)
def test_a_command_writes_nothing_and_main_writes_its_lines(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    args = build_parser().parse_args(list(argv))
    result = args.func(args)
    assert capsys.readouterr() == ("", "")
    returned_code, _, lines = result
    assert returned_code == code
    assert "".join(f"{line}\n" for line in lines) == out
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", ONE_CALL_EACH, ids=" ".join)
def test_a_json_call_formats_no_text(capsys, monkeypatch, argv):
    from coxcat.exact import BiPoly, UniPoly
    from coxcat.reports import VerificationReport

    expected = run_cli(capsys, *argv, "--json")

    def refuse(self):
        raise AssertionError("text formatted under --json")

    for cls, method in [(VerificationReport, "render"), (UniPoly, "__repr__"),
                        (BiPoly, "__repr__")]:
        monkeypatch.setattr(cls, method, refuse)
    assert run_cli(capsys, *argv, "--json") == expected


@pytest.mark.parametrize("command", ["table", "roots", "antichains", "fpoly", "os-character",
                                     "gerst", "verify"])
def test_every_subcommand_takes_json_and_only_fpoly_and_verify_take_allow_large(command):
    parser = build_parser()
    argv = {"table": ["A3"], "gerst": [], "verify": ["all", "A3"]}.get(command, ["A3"])
    assert parser.parse_args([command, *argv, "--json"]).json is True
    assert parser.parse_args([command, *argv]).json is False
    if command in ("fpoly", "verify"):
        assert parser.parse_args([command, *argv, "--allow-large"]).allow_large is True
    else:
        with pytest.raises(SystemExit) as refused:
            parser.parse_args([command, *argv, "--allow-large"])
        assert refused.value.code == 2


def test_shared_options_are_declared_once():
    source = Path(coxcat.cli.__file__).read_text()
    assert source.count('add_argument("--json"') == 1
    assert source.count('"--allow-large",') == 1


# sha256 of stdout and the exit code of each call.  Counts and characters are
# held as int; these pin that each rational among them (the formula column,
# p_top, chi_G') still prints as "num/den"
GOLDEN = {
    "os-character A3": ("76daeaf1c854794a21f98bdbfde6bedef4ee131665d1400668d40a9db3bdcc2b", 0),
    "os-character A3 --json": ("ddfd734ccce7c843d036d046d063c00842f78748fc9f6e13f6752b27eccad577", 0),
    "os-character B4": ("32daedbbbd7eeba69bf9546fb69f672f8bd3be15168bc71accc1c613930cf07b", 0),
    "os-character B4 --json": ("a9e46add0144f04f55e79e60741123467b11dc063b3e9309bd7afd0403b432be", 0),
    "os-character H3": ("779d75b015515ebb9b267e8952e0272646f9432ce1954ca78fad62a011a42c68", 0),
    "os-character H3 --json": ("715600881145dda084697de128f4766a2d5bf368142a655fc3e5d470ab15a7cc", 0),
    "os-character I2(8)": ("9f4b36e31edb62e7b22fe21586a700f2b1a663ec3078c7b4d652d1785e7475ce", 0),
    "os-character I2(8) --json": ("cf1cb281f7ad6715afa35da1dc73b12e254665bff793ea41d2dc89a5e0eb1031", 0),
    "verify all A2": ("99149b608a99a419fd4e6bb64872ccf7a63fe86376771816c36f77749cda5876", 0),
    "verify all A2 --json": ("88b734d4ee13548f3c6fcab3ae4b83d91eca0922ba92f94d4e1320c837ee153f", 0),
    "verify all B3": ("dabbbc7e2ff8fd9f83cbf5cd7f18d6c397925f096540c9b188e71931968bbe07", 0),
    "verify all B3 --json": ("e1e25da63453bdef97847ad4834075b4c2093d1c9557cebc778312b284ef0405", 0),
    "verify all H3": ("3aaab0f8cc8728c4d922452af2c312780acbda3519c037f1a759fee363dd4d51", 0),
    "verify all H3 --json": ("6f16fffa277bb073bd188b64e1808d6fb0706ac5e697e8674ef2217c76a2ced0", 0),
    "antichains B4": ("9cd0a547d744efbc3619eadb1c08a0e789768ef7afdd6d993d5130f7b20bd514", 0),
    "antichains B4 --json": ("2eed8d8bc8c9e5bc7e3640caeec4b018b13683d457a8a8c06b674b189f048a49", 0),
    "fpoly B4": ("6f2923ee678ae182813f6fbf159ffa75bb4d1cf5c4977df5daa15df6fa87d454", 0),
    "fpoly B4 --json": ("7233bad788b0fb508eb4c27031b0210a972a9607c499e8842d0bf9271d6ad99d", 0),
    "antichains D5": ("993e3fdced035ecfab7a31b1a19283fe2b8644d5245bc2dad20578638d0258aa", 0),
    "antichains D5 --json": ("129d577025684a9a9bb3140bbd49135ad330ef5a151ab8701cb9ae7df768787d", 0),
    "fpoly D5": ("546f3833709a911cdfe7238f385a97e3e92ded5cd03a42dd3757a4c8d6eb7d95", 0),
    "fpoly D5 --json": ("5c524945f7e50bfd969de03b14d7ae1aadf7ad7bb123051b0c555b71e7c7fef6", 0),
    "table A3 B3 H3 I2(8)": ("486c4d7ee698472f5893cc6fd4d7d751ae841c93792dc34b7ba2df420bc1d1cd", 0),
    "table A3 B3 H3 I2(8) --json": ("c8656267343dc1a361bcdc2bd608b6e90725f466985ee5cb1420d1a0df0cab17", 0),
    "gerst --max-degree 4": ("13fe47ede09caa74771692c984ed0ac3079b39e3a2f99ee67826cc87776b1c95", 0),
    "gerst --max-degree 4 --json": ("6c1eb077401cda59427326131eb26b296335597e0124744aa900556291a3676e", 0),
}


@pytest.mark.parametrize("call", GOLDEN)
def test_output_matches_its_recorded_digest(capsys, call):
    code, out, err = run_cli(capsys, *call.split())
    assert (hashlib.sha256(out.encode()).hexdigest(), code, err) == (*GOLDEN[call], "")
