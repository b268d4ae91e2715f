"""Verification reports: one named check, one type label, one verdict.

`run_check` is the one place a check is named, timed and recorded: it
builds the report, runs the check, turns a `CheckFailed` into a witness
and sets the elapsed milliseconds.  A report passes exactly when its
witness list is empty.  The renderings (text and JSON) are
deterministic; timing is kept on the object for callers but never
written to stdout, so output stays byte-identical across runs.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .errors import CapacityExceeded, CheckFailed, InternalError, UsageError
from .exact import BiPoly, UniPoly, format_rational

# closed forms behind the full-reflection column of the summary table
_TABLE_RULES = {
    "A": lambda n, m: 1,
    "B": lambda n, m: n,
    "C": lambda n, m: n,
    "D": lambda n, m: n - 2,
    "E": lambda n, m: {6: 7, 7: 16, 8: 44}[n],
    "F": lambda n, m: 10,
    "G": lambda n, m: 4,
    "H": lambda n, m: {3: 8, 4: 42}[n],
    "I": lambda n, m: m - 2,
}


def jsonable(value):
    """Recursively convert report payloads to JSON-safe structures.

    Fractions become "num/den" strings; polynomials use their exact
    to_json encodings; tuples become lists.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (UniPoly, BiPoly)):
        return value.to_json()
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, float):
        raise InternalError("floating point values are not allowed in reports")
    return str(value)


class VerificationReport:
    def __init__(
        self,
        check: str,
        type_label: str,
        witnesses: Optional[List[str]] = None,
        ms: float = 0.0,
        details: Optional[Dict[str, object]] = None,
    ):
        self.check = check
        self.type_label = type_label
        self.witnesses = [] if witnesses is None else witnesses
        self.ms = ms
        self.details = {} if details is None else details

    @property
    def passed(self) -> bool:
        return not self.witnesses

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "type": self.type_label,
            "status": self.status,
            "witnesses": [jsonable(w) for w in self.witnesses],
            "details": jsonable(self.details),
        }

    def render(self) -> str:
        head = f"[{'PASS' if self.passed else 'FAIL'}] {self.check} {self.type_label}"
        lines = [head]
        for key in sorted(self.details):
            lines.append(f"    {key}: {_detail_str(self.details[key])}")
        for w in self.witnesses:
            lines.append(f"    witness: {w}")
        return "\n".join(lines)


def _detail_str(value) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (UniPoly, BiPoly)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_detail_str(v) for v in value) + "]"
    return str(value)


def _not_applicable(report: VerificationReport, why: str) -> None:
    report.details["note"] = f"not applicable: {why}"


def run_check(check: str, label: Optional[str] = None, *, max_degree: int = 7) -> VerificationReport:
    """Run one named verification against one type and report the outcome.

    With no label no root system is built, and the report's type is "-".
    A `CheckFailed` raised by the check becomes its witness; preconditions
    (unknown labels, capacity limits) raise instead, so the caller can map
    them to a usage error.
    """
    if check not in _RUNNERS:
        raise UsageError(f"unknown check {check!r}")
    from .rootsys import build_root_system

    started = time.perf_counter()
    rs = None if label is None else build_root_system(label)
    report = VerificationReport(check, "-" if rs is None else rs.label)
    try:
        _RUNNERS[check](rs, report, max_degree)
    except CheckFailed as exc:
        report.witnesses.append(str(exc))
    report.ms = (time.perf_counter() - started) * 1000.0
    return report


def run_all_checks(label: str, *, max_degree: int = 7) -> List[VerificationReport]:
    """All checks in order; capacity overruns become vacuous passes.

    Requesting one specific check beyond capacity is a usage error, but
    `all` simply runs whatever the oracles can reach for the type.
    """
    from .rootsys import build_root_system

    reports = []
    for name in CHECK_NAMES:
        started = time.perf_counter()
        try:
            reports.append(run_check(name, label, max_degree=max_degree))
        except CapacityExceeded as exc:
            report = VerificationReport(name, build_root_system(label).label)
            _not_applicable(report, f"outside oracle capacity ({exc})")
            report.ms = (time.perf_counter() - started) * 1000.0
            reports.append(report)
    return reports


def _run_formula(rs, report, max_degree) -> None:
    counted = rs.full_reflection_count()
    formula = rs.formula_value()
    closed = _TABLE_RULES[rs.family](rs.rank, rs.m)
    report.details.update(counted=counted, formula=formula, closed_form=closed)
    if counted != formula:
        report.witnesses.append(f"counted {counted} != formula value {format_rational(formula)}")
    if counted != closed:
        report.witnesses.append(f"counted {counted} != closed form {closed}")


def _run_antichain_lemmas(rs, report, max_degree) -> None:
    if not rs.crystallographic:
        return _not_applicable(report, "needs integer root coordinates")
    from .poset import check_antichain_lemmas

    summary = check_antichain_lemmas(rs)
    for key in ("total", "narayana", "p_top", "full_count"):
        report.details[key] = summary[key]


def _run_p_mobius(rs, report, max_degree) -> None:
    if not rs.crystallographic:
        return _not_applicable(report, "needs integer root coordinates")
    from .poset import (
        enumerate_antichains,
        h_polynomial,
        p_polynomial_direct,
        p_polynomial_mobius,
    )

    tally = enumerate_antichains(rs)
    direct = p_polynomial_direct(tally)
    mobius = p_polynomial_mobius(rs)
    f_count = rs.full_reflection_count()
    report.details.update(p=direct, full_count=f_count)
    if direct != mobius:
        report.witnesses.append(f"direct {direct!r} != inclusion-exclusion {mobius!r}")
    top = direct.coefficient(rs.rank - 1, 0)
    if top != f_count:
        report.witnesses.append(f"P coefficient of x^(n-1) is {top}, full count is {f_count}")
    h_val = h_polynomial(tally).coefficient(rs.rank - 1, 0)
    if h_val != f_count:
        report.witnesses.append(f"H(n-1, 0) coefficient is {h_val}, full count is {f_count}")


def _run_hf(rs, report, max_degree) -> None:
    if not rs.crystallographic:
        return _not_applicable(report, "needs integer root coordinates")
    from .cluster import verify_hf_conjecture

    summary = verify_hf_conjecture(rs)
    report.details.update(h=summary["h"], f=summary["f"])


def _run_main(rs, report, max_degree) -> None:
    from .osalgebra import check_dimension_identity, verify_main_conjecture

    # the identity and the class-by-class check each give their own witness
    try:
        report.details["identity_lhs"] = check_dimension_identity(rs)["lhs"]
    except CheckFailed as exc:
        report.witnesses.append(str(exc))
    summary = verify_main_conjecture(rs)
    report.details.update(classes=summary["classes"], full_count=summary["f_count"])


def _run_b_lemmas(rs, report, max_degree) -> None:
    if rs.family != "B":
        return _not_applicable(report, "stated for the signed-permutation types B")
    from .groups import check_B_lemma
    from .osalgebra import check_B_gprime_lemma

    report.details["classes"] = check_B_lemma(rs)["classes"]
    report.details["vanishing_checked"] = check_B_gprime_lemma(rs)["vanishing_checked"]


def _run_gerst(rs, report, max_degree) -> None:
    from .symfunc import (
        ORACLE_MAX_N,
        calibrated_bundle,
        class_value,
        verify_first_derivative_identities,
        verify_second_derivative_identity,
        verify_type_A_conjecture,
    )

    details = report.details
    details["max_degree"] = max_degree
    bundle = calibrated_bundle(max_degree + 2)
    details["twist"] = bundle.twist
    details["calibration_degrees"] = list(range(2, ORACLE_MAX_N + 1))
    verify_first_derivative_identities(bundle, max_degree + 1)
    verify_second_derivative_identity(bundle, max_degree)
    for n in range(1, max_degree + 1):
        expected = UniPoly.one()
        for i in range(1, n):
            expected = expected * UniPoly((1, -i))
        got = class_value(bundle, (1,) * n)
        if got != expected:
            report.witnesses.append(
                f"identity class value in degree {n}: {got!r} != {expected!r}"
            )
    verify_type_A_conjecture(bundle, max_degree)
    details["type_a_max_n"] = max_degree


def _run_bonzero(rs, report, max_degree) -> None:
    from .symfunc import calibrated_bundle, verify_bonzero

    report.details["max_degree"] = max_degree
    summary = verify_bonzero(calibrated_bundle(max_degree + 2), max_degree)
    report.details["gerst_at_one_is_p1"] = summary["gerst_at_one_is_p1"]


# The one ordered registry of checks.  A runner fills the report's details
# as it goes, so a failing check keeps what it gathered, and appends the
# witnesses it finds itself; run_check records a CheckFailed as the last one.
_RUNNERS: Dict[str, Callable[..., None]] = {
    "formula": _run_formula,
    "antichain-lemmas": _run_antichain_lemmas,
    "p-mobius": _run_p_mobius,
    "hf": _run_hf,
    "main": _run_main,
    "b-lemmas": _run_b_lemmas,
    "gerst": _run_gerst,
    "bonzero": _run_bonzero,
}
CHECK_NAMES = tuple(_RUNNERS)
