"""Time-to-verdict benchmark of the coxcat CLI.

Runs one workload of real CLI calls, each in a fresh interpreter, one
after another (a closed loop with one client and one child process at a
time), checks every verdict against the known answers, and prints the
metrics named in BENCHMARK.json.  The last line of stdout is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

With `--trace 0` it times untraced passes and reports the end-to-end
metrics; with `--trace 1` it alternates traced and untraced passes and
reports the per-layer metrics.  The seed only permutes the order of the
calls within each pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import tracer
from workloads import WORKLOADS, Call, check_call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(tracer.__file__).resolve()

SETUP_PROBES = 15
# No call may run past this many seconds after the start of a run, so that
# a hung call cannot hold the run past its 180 s limit.
HARD_LIMIT_S = 150.0
SETUP_PROBE = (
    "import time\n"
    "import coxcat.cli\n"
    "t = time.perf_counter()\n"
    "import coxcat.kernels\n"
    "print(repr(t), coxcat.kernels.USING_COMPILED, coxcat.__file__, sep='\\n')\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def _fork_not_vfork():
    """Passed as preexec_fn, which makes subprocess fork instead of vfork.

    A vforked child starts its ru_maxrss from the parent's peak RSS, which
    here is larger than a coxcat call's; a forked child starts from the
    parent's anonymous memory only, which is smaller.
    """


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class CallResult:
    call: Call
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    problems: List[str]
    trace: Optional[dict] = None


@dataclass
class Pass:
    traced: bool
    results: List[CallResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.results)


class Runner:
    """Spawns the child processes of one benchmark run, one at a time."""

    def __init__(self, scratch: Path, hard_deadline: float):
        self.scratch = scratch
        self.hard_deadline = hard_deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def spawn(self, cmd: Sequence[str]):
        """Run cmd to completion.

        Returns (exit code, stdout, stderr, wall seconds, rusage), or None
        when no time is left.  A child still running at the hard deadline
        is killed.
        """
        timeout = self.hard_deadline - time.perf_counter()
        if timeout <= 0:
            return None
        err_path = self.scratch / "stderr"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT, preexec_fn=_fork_not_vfork)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, stdout, err_path.read_bytes(), wall, usage

    def setup_probe(self) -> Tuple[float, bool]:
        """(seconds from spawn until `import coxcat.cli` finished, USING_COMPILED)."""
        started = time.perf_counter()
        spawned = self.spawn([sys.executable, "-c", SETUP_PROBE])
        if spawned is None or spawned[0] != 0:
            detail = spawned[2].decode(errors="replace") if spawned else "out of time"
            raise BenchError(f"cannot import coxcat.cli from {SRC}:\n{detail}")
        imported_at, using_compiled, module_file = spawned[1].decode().split("\n")[:3]
        if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"coxcat was imported from {module_file}, not from {SRC}")
        return float(imported_at) - started, using_compiled == "True"

    def run_call(self, call: Call, call_id: int, traced: bool) -> CallResult:
        trace_path = self.scratch / f"trace-{call_id}.json"
        if traced:
            cmd = [sys.executable, str(TRACER), str(trace_path), str(call_id), *call.argv]
        else:
            cmd = [sys.executable, "-m", "coxcat.cli", *call.argv]
        spawned = self.spawn(cmd)
        if spawned is None:
            return CallResult(call, 0.0, 0.0, 0.0, b"", ["not run: the run is out of time"])
        code, stdout, stderr, wall, usage = spawned
        problems = check_call(call, code, stdout)
        if code != 0 and stderr:
            problems.append("stderr: " + stderr.decode(errors="replace")[-300:])
        trace = None
        if traced:
            try:
                trace = json.loads(trace_path.read_text())
                trace_path.unlink()
            except (OSError, ValueError) as exc:
                problems.append(f"no trace: {exc}")
        cpu = usage.ru_utime + usage.ru_stime
        rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        return CallResult(call, wall, cpu, rss_mb, stdout, problems, trace)

    def run_pass(self, calls: Sequence[Call], traced: bool, first_id: int) -> Pass:
        done = Pass(traced)
        for offset, call in enumerate(calls):
            done.results.append(self.run_call(call, first_id + offset, traced))
        return done


def pass_layers(one: Pass) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self time per span name and per-layer counters, summed over the pass's calls."""
    self_s: Dict[str, float] = {}
    counters: Dict[str, int] = {}
    for r in one.results:
        if r.trace is None:
            continue
        for name, value in tracer.self_times(r.trace["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + value
        for suffix, key in ((".calls", "counts"), (".misses", "misses")):
            for name, value in r.trace[key].items():
                counters[name + suffix] = counters.get(name + suffix, 0) + value
    return self_s, counters


def layer_metrics(traced: Sequence[Pass], untraced: Sequence[Pass]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics, and problems with them.

    Self times are medians over the traced passes; counters must repeat
    exactly from pass to pass.
    """
    per_pass = [pass_layers(one) for one in traced]
    problems = []
    counters = per_pass[0][1]
    if any(p[1] != counters for p in per_pass[1:]):
        problems.append("per-layer counters differ between traced passes")
    metrics: Dict[str, float] = {}
    for name in tracer.metric_names():
        if name.endswith(".self_s"):
            base = name[: -len(".self_s")]
            metrics[name] = statistics.median(p[0].get(base, 0.0) for p in per_pass)
        elif name != "trace.overhead_s":
            metrics[name] = counters.get(name, 0)
    metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in untraced
    )
    return metrics, problems


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "count" if name.endswith((".calls", ".misses")) else "s"


def source_digest() -> str:
    """sha256 over the program's source files, for runs outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "coxcat").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: int, trace: bool, scratch: Path):
    """Run one benchmark; returns (the lines to print, the result object)."""
    calls = WORKLOADS[name]
    start = time.perf_counter()
    deadline = start + min(seconds, HARD_LIMIT_S)
    runner = Runner(scratch, start + HARD_LIMIT_S)
    _, using_compiled = runner.setup_probe()  # also fills the bytecode caches
    probes = [runner.setup_probe()[0] for _ in range(SETUP_PROBES)] if not trace else []

    rng = random.Random(seed)
    orders: List[List[str]] = []
    passes: List[Pass] = []
    while True:
        order = list(calls)
        rng.shuffle(order)
        orders.append([c.key for c in order])
        began = time.perf_counter()
        # trace mode runs a traced and an untraced pass over each order,
        # alternating which goes first
        kinds = ([True, False] if len(orders) % 2 else [False, True]) if trace else [False]
        for traced in kinds:
            passes.append(runner.run_pass(order, traced, len(passes) * len(calls)))
        now = time.perf_counter()
        if now + (now - began) > deadline:
            break

    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r.problems]
    untraced = [p for p in passes if not p.traced]
    problems: List[str] = []
    samples: Dict[str, List[float]] = {}
    if trace:
        metrics, problems = layer_metrics([p for p in passes if p.traced], untraced)
    else:
        samples = {
            "setup_s": probes,
            "sweep_s": [p.wall_s for p in untraced],
            "cpu_s": [p.cpu_s for p in untraced],
            "peak_rss_mb": [p.peak_rss_mb for p in untraced],
        }
        metrics = {key: statistics.median(values) for key, values in samples.items()}
        metrics["ok_share"] = (len(results) - len(failed)) / len(results)

    provenance = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "orders": orders,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "using_compiled": using_compiled,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    lines = [f"provenance {json.dumps(provenance)}"]
    lines.append(f"{'metric':<48} {'value':>14} {'unit':<6} samples")
    for key, value in metrics.items():
        values = samples.get(key, [])
        spread = f"median of {len(values)}: " + " ".join(f"{v:.4g}" for v in values) if values else ""
        lines.append(f"{key:<48} {value:>14.6g} {metric_unit(key):<6} {spread}")
    if not trace:
        lines.append(f"{'failed_share':<48} {len(failed) / len(results):>14.6g} {'ratio':<6} {len(results)} calls")
    for r in failed[:5]:
        lines.append(f"FAILED `{r.call.key}`: " + "; ".join(r.problems))
    lines.extend(f"PROBLEM {p}" for p in problems)
    missing = sorted({m for r in results if r.trace for m in r.trace["missing"]})
    if missing:
        lines.append("not traced, no such function: " + ", ".join(missing))
    result = {
        "correct": not failed and not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": metric_unit(key)} for key, value in metrics.items()},
    }
    return lines, result


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "coxcat" / "cli.py").is_file():
        print(f"perfbench: no coxcat sources under {SRC}", file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
            lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), Path(scratch))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
