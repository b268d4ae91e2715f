"""Per-layer tracing of coxcat, installed from outside the program.

The wrappers replace public functions of each `coxcat` module where they
are defined and in every coxcat module that bound them with a top-level
`from ... import`.  A spanned function records (name, start, end, parent)
per call; a counted one only counts calls, because it is too hot to span
cheaply, so its time lands in its caller's self time.

Run as a script, it executes one CLI call in this fresh interpreter with
the wrappers installed and writes the call's spans and counters as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json CALL_ID verify all B4 --json
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Dict, List, Sequence, Tuple

SPAN = "span"
COUNT = "count"

# (module under coxcat, attribute path, kind).  A class stands for its
# constructor.  Each module of coxcat is one layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli", "main", SPAN),
    ("reports", "run_check", SPAN),
    ("reports", "run_all_checks", SPAN),
    ("rootsys", "build_root_system", SPAN),
    ("rootsys", "RootSystem.full_reflection_count", SPAN),
    ("poset", "RootPoset", SPAN),
    ("poset", "enumerate_antichains", SPAN),
    ("poset", "p_polynomial_mobius", SPAN),
    ("poset", "check_antichain_lemmas", SPAN),
    ("kernels", "clique_tally", SPAN),
    ("cluster", "ClusterComplex", SPAN),
    ("cluster", "ClusterComplex.f_tally", SPAN),
    ("cluster", "ClusterComplex.maximal_face_count", SPAN),
    ("cluster", "compatibility_degree", COUNT),
    ("cluster", "f_polynomial", SPAN),
    ("cluster", "verify_hf_conjecture", SPAN),
    ("groups", "generate_group", SPAN),
    ("groups", "check_B_lemma", SPAN),
    ("osalgebra", "build_os_algebra", SPAN),
    ("osalgebra", "os_graded_character", SPAN),
    ("osalgebra", "OSAlgebra.degree_trace", SPAN),
    ("osalgebra", "OSAlgebra.straighten", COUNT),
    ("osalgebra", "VectorMatroid.is_independent", COUNT),
    ("osalgebra", "verify_main_conjecture", SPAN),
    ("osalgebra", "check_dimension_identity", SPAN),
    ("osalgebra", "check_B_gprime_lemma", SPAN),
    ("symfunc", "plethysm", SPAN),
    ("symfunc", "calibrate_sigma_t_lie", SPAN),
    ("symfunc", "make_bundle", SPAN),
    ("symfunc", "SymFunc.__mul__", COUNT),
    ("symfunc", "verify_first_derivative_identities", SPAN),
    ("symfunc", "verify_second_derivative_identity", SPAN),
    ("symfunc", "verify_type_A_conjecture", SPAN),
    ("symfunc", "verify_bonzero", SPAN),
    ("exact", "UniPoly.__mul__", COUNT),
)

# lru_cache functions whose cache misses are reported
CACHED = ("rootsys.build_root_system",)


def target_name(module: str, path: str) -> str:
    """Metric prefix of a target: `SymFunc.__mul__` becomes `symfunc.SymFunc.mul`."""
    return ".".join([module] + [part.strip("_") for part in path.split(".")])


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, path, kind in TARGETS:
        name = target_name(module, path)
        if kind == SPAN:
            names.append(f"{name}.self_s")
        names.append(f"{name}.calls")
    names.extend(f"{name}.misses" for name in CACHED)
    names.append("trace.overhead_s")
    return names


class Recorder:
    """Spans and call counts of one process, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []  # [name, start, end, parent index or None]
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    def spanned(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


Patch = Tuple[object, str, object]  # (owner, attribute, original value)


def install(recorder: Recorder) -> Tuple[List[Patch], Dict[str, object], List[str]]:
    """Wrap every target; returns the patches, the cached originals and missing targets."""
    patches: List[Patch] = []
    cached: Dict[str, object] = {}
    missing: List[str] = []
    for module_name, path, kind in TARGETS:
        name = target_name(module_name, path)
        try:
            owner = importlib.import_module(f"coxcat.{module_name}")
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        if isinstance(original, type):
            owner, attr, original = original, "__init__", original.__dict__["__init__"]
        make = recorder.spanned if kind == SPAN else recorder.counted
        wrapper = make(name, original)
        if name in CACHED:
            cached[name] = original
        if isinstance(owner, type):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        else:
            for module in _coxcat_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
    return patches, cached, missing


def uninstall(patches: Sequence[Patch]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def _coxcat_modules():
    return [
        module
        for key, module in sorted(sys.modules.items())
        if module is not None and (key == "coxcat" or key.startswith("coxcat."))
    ]


def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of it covered by its
    child spans; spans are (name, start, end, parent index or None).
    """
    children: List[List[Tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: Dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, children):
        own = (end - start) - _union_length(covered, start, end)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def run_traced(argv: Sequence[str]) -> Tuple[int, Recorder, Dict[str, int], List[str]]:
    """Run one CLI call in this process with the wrappers installed."""
    import coxcat.cli

    recorder = Recorder()
    patches, cached, missing = install(recorder)
    try:
        try:
            code = coxcat.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        misses = {name: fn.cache_info().misses for name, fn in cached.items()}
    finally:
        uninstall(patches)
    return code, recorder, misses, missing


def main(args: List[str]) -> int:
    out_path, call_id, argv = args[0], int(args[1]), args[2:]
    code, recorder, misses, missing = run_traced(argv)
    sys.stdout.flush()
    trace = {
        "call_id": call_id,
        "spans": recorder.spans,
        "counts": recorder.counts,
        "misses": misses,
        "missing": missing,
    }
    with open(out_path, "w") as out:
        json.dump(trace, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
