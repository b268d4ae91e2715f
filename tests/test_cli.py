"""Command-line interface: output shape, exit codes, and determinism."""

import json

import pytest

from coxcat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, out, _ = run_cli(capsys, "verify", "all", "E6")
    assert code == 0
    assert "outside oracle capacity" in out


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "roots", "Z9")
    assert code == 2
    assert "coxcat:" in err
    code, _, err = run_cli(capsys, "verify", "main", "E8")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "hf", "A7")
    assert code == 2
    code, _, err = run_cli(capsys, "fpoly", "I2(5)")
    assert code == 2  # non-crystallographic


@pytest.mark.parametrize(
    "argv",
    [
        ("antichains", "A9"),
        ("gerst", "--max-degree", "0"),
        ("gerst", "--max-degree", "-1"),
        ("verify", "gerst", "A2", "--max-degree", "0"),
        ("--threads", "4", "table", "A2"),
    ],
)
def test_out_of_range_requests_exit_two_in_one_line(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("coxcat")
    assert captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err


def test_fpoly_allow_large_override(capsys):
    code, _, _ = run_cli(capsys, "fpoly", "A7", "--json")
    assert code == 2
    code, out, _ = run_cli(capsys, "fpoly", "A7", "--allow-large", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["maximal_faces"] == 1430


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


def test_gerst_text_output(capsys):
    code, out, _ = run_cli(capsys, "gerst", "--max-degree", "4")
    assert code == 0
    assert "[PASS] gerst -" in out
    assert "[PASS] bonzero -" in out


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
