"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import known_answers as ka
import run
import tracer
from workloads import WORKLOADS, Call, check_call

ROOT = Path(__file__).resolve().parents[2]
# cheap calls that still reach every layer: rootsys, poset, kernels,
# cluster, groups, osalgebra, symfunc, exact, reports and cli
CHEAP_CALLS = (
    ("antichains", "A3", "--json"),
    ("fpoly", "A3", "--json"),
    ("verify", "main", "A3", "--json"),
    ("verify", "b-lemmas", "B3", "--json"),
    ("gerst", "--max-degree", "3", "--json"),
    ("table", "A3", "H3"),
)


def _workload_call(key):
    return next(c for calls in WORKLOADS.values() for c in calls if c.key == key)


def _cli_stdout(argv) -> bytes:
    from coxcat.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return out.getvalue().encode()


# -- self time ---------------------------------------------------------------


def test_self_times_nested_sibling_and_recursive_spans():
    spans = [
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),  # nested in a
        ("b", 2.0, 3.0, 1),  # recursive: b inside b
        ("c", 5.0, 7.0, 0),  # sibling of the outer b
        ("d", 8.0, 9.5, 0),
        ("e", 8.5, 9.0, 4),  # grandchild: counts against d, not a
    ]
    times = tracer.self_times(spans)
    assert times == pytest.approx({"a": 3.5, "b": 3.0, "c": 2.0, "d": 1.0, "e": 0.5})
    assert sum(times.values()) == pytest.approx(10.0)


def test_recorder_spans_add_up_to_the_outer_span():
    ticks = iter(range(1000))
    recorder = tracer.Recorder(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def fact(n):
        return 1 if n == 0 else n * fact(n - 1) + 0 * counted_leaf()

    counted_leaf = recorder.counted("m.leaf", leaf)
    fact = recorder.spanned("m.fact", fact)
    outer = recorder.spanned("m.outer", lambda: fact(3) + fact(2))
    assert outer() == 8
    assert recorder.counts == {"m.leaf": 5, "m.fact": 7, "m.outer": 1}
    outer_span = recorder.spans[0]
    assert outer_span[3] is None
    times = tracer.self_times(recorder.spans)
    assert sum(times.values()) == pytest.approx(outer_span[2] - outer_span[1])


def test_every_traced_metric_is_named_in_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == tracer.metric_names()
    for metric in bench["per_layer"]:
        assert metric["unit"] == run.metric_unit(metric["name"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


# -- wrappers ----------------------------------------------------------------


def _bindings():
    """Every attribute of every coxcat module and traced class, by identity."""
    import coxcat.cli  # noqa: F401

    owners = list(tracer._coxcat_modules())
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrappers_keep_stdout_and_restore_the_originals():
    plain = [_cli_stdout(argv) for argv in CHEAP_CALLS]
    before = _bindings()
    counts = {}
    for argv, want in zip(CHEAP_CALLS, plain):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, recorder, _, missing = tracer.run_traced(argv)
        assert code == 0
        assert missing == []
        assert out.getvalue().encode() == want
        for name, value in recorder.counts.items():
            counts[name] = counts.get(name, 0) + value
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    # every layer was reached, so every wrapper was in place
    for name in ("kernels.clique_tally", "cluster.ClusterComplex", "groups.generate_group",
                 "osalgebra.VectorMatroid.is_independent", "symfunc.plethysm",
                 "exact.UniPoly.mul", "rootsys.build_root_system", "cli.main"):
        assert counts[name] > 0, name


def test_child_peak_rss_does_not_start_from_the_parents(tmp_path):
    call = _workload_call("antichains E7 --json")
    result = run.Runner(tmp_path, time.perf_counter() + 60).run_call(call, 0, traced=False)
    assert result.rss_mb < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_traced_child_output_is_byte_identical(tmp_path):
    runner = run.Runner(tmp_path, time.perf_counter() + 60)
    call = _workload_call("antichains E7 --json")
    plain = runner.run_call(call, 0, traced=False)
    traced = runner.run_call(call, 1, traced=True)
    assert plain.problems == [] and traced.problems == []
    assert traced.stdout == plain.stdout
    assert traced.trace["counts"]["kernels.clique_tally"] == 1
    assert traced.trace["misses"] == {"rootsys.build_root_system": 1}


# -- known answers -----------------------------------------------------------


def test_tampered_stdout_or_known_answer_fails_the_call(tmp_path):
    call = _workload_call("antichains E7 --json")
    stdout = _cli_stdout(call.argv)
    assert check_call(call, 0, stdout) == []

    payload = json.loads(stdout)
    payload["total"] += 1
    tampered = json.dumps(payload).encode()
    own_digest = {call.key: hashlib.sha256(tampered).hexdigest()}
    problems = check_call(call, 0, tampered, digests=own_digest)
    assert any("total" in p for p in problems)

    assert any("sha256" in p for p in check_call(call, 0, stdout, digests={call.key: "0" * 64}))
    assert any("exit code" in p for p in check_call(call, 1, stdout))
    assert any("unreadable" in p for p in check_call(call, 0, b"not json\n"))

    wrong = Call(call.argv, lambda payload: ["known answer differs"])
    result = run.Runner(tmp_path, time.perf_counter() + 60).run_call(wrong, 0, traced=False)
    assert result.problems == ["known answer differs"]


def test_known_answer_table_is_self_consistent():
    for label, (rank, exponents, h, order, full) in ka.TYPES.items():
        assert len(exponents) == rank
        assert math.prod(e + 1 for e in exponents) == order, label
        assert max(exponents) + 1 == h, label
        assert rank * h * math.prod(e - 1 for e in exponents[1:]) == full * order, label
    for label, cat in ka.CATALAN.items():
        _, exponents, h, _, _ = ka.TYPES[label]
        assert math.prod(h + e + 1 for e in exponents) == cat * math.prod(e + 1 for e in exponents)
    for label, count in ka.POSITIVE_ROOTS.items():
        rank, _, h, _, _ = ka.TYPES[label]
        assert rank * h == 2 * count
    poly = [1]
    for n, want in enumerate(ka.IDENTITY_CLASS_VALUES, start=1):
        assert tuple(poly) == want
        assert ka.FACTORIALS[n - 1] == math.factorial(n)
        poly = [a - n * b for a, b in zip(poly + [0], [0] + poly)]

    def partitions(n, largest):
        return 1 if n == 0 else sum(partitions(n - k, k) for k in range(1, min(n, largest) + 1))

    assert ka.PARTITION_COUNTS == tuple(partitions(n, n) for n in range(1, 10))
    assert set(ka.SEED_DIGESTS) == {c.key for calls in WORKLOADS.values() for c in calls}


# -- the command ---------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == b""
