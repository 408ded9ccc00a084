"""Output checks for each verb.

Each checker reads what one ``modfix`` verb call printed and wrote and
returns an ``Outcome``: whether the output is right, why not, the work it
reports (checks or rows) and the verdict that the other backend's run of the
same config must agree with.  Nothing is compared with golden digests: the
digests only show that repeated calls print and write the same bytes.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

FLOAT_SLACK = 1e-9

REPRO_NAMES = (
    "constant-maps-are-contractions", "graph-presets", "square-modular-axioms",
    "banach-example-identity", "kannan-example-cases",
    "linear-map-never-kannan", "piecewise-map-never-banach",
    "banach-rescaling", "kannan-rescaling", "banach-bound-validity",
    "kannan-rate-and-bound", "solver-fixtures",
)

_REPORT_RE = re.compile(r"^(ok  |FAIL) ([\w-]+): (\d+) violation\(s\) "
                        r"(?:in|on) (\d+) (?:checks|edges)")
_BOUNDS_RE = re.compile(r"^bounds: (\d+) rows, (\d+) negative-slack row\(s\)")
_TRACE_RE = re.compile(r"^trace: .* \((\d+) rows\)$", re.M)
_FIXED_RE = re.compile(r"^fixed point: (\(.*?\))", re.M)
_REPRO_OK_RE = re.compile(r"^ok +([\w-]+): ")
_REPRO_MS_RE = re.compile(r" \[\d+ ms\]$", re.M)


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    units: int = 0           # checks (check) or rows (bounds)
    verdict: tuple = ()      # compared across backends


def digest(stdout: str, csv_path=None) -> str:
    """sha256 of stdout (repro's per-check milliseconds removed) and of the
    output CSV, if the call wrote one."""
    h = hashlib.sha256(_REPRO_MS_RE.sub("", stdout).encode())
    if csv_path is not None and Path(csv_path).is_file():
        h.update(Path(csv_path).read_bytes())
    return h.hexdigest()


def check_check(rc: int, stdout: str) -> Outcome:
    reports = [m.groups() for m in map(_REPORT_RE.match, stdout.splitlines())
               if m]
    verdict = tuple((name, status.strip()) for status, name, _, _ in reports)
    units = sum(int(count) for _, _, _, count in reports)
    names = [name for name, _ in verdict]
    if rc != 0 or "result: ok" not in stdout:
        return Outcome(False, f"check failed (exit {rc}): {verdict}", units,
                       verdict)
    if "modular-axioms" not in names or "edge-preservation" not in names \
            or not any(n.endswith("-condition") for n in names):
        return Outcome(False, f"check printed reports {names}", units, verdict)
    return Outcome(True, "", units, verdict)


def _csv_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_solve(rc: int, stdout: str, csv_path, backend: str,
                fixed_point: tuple, tol: Fraction, atol=None) -> Outcome:
    """The known fixed point, exactly on the exact backend and within tol
    on the float backend; within ``atol`` on both when the exact orbit
    cannot land on it."""
    if rc != 0 or "converged: yes" not in stdout:
        return Outcome(False, f"solve did not converge (exit {rc})")
    m = _FIXED_RE.search(stdout)
    if m is None:
        return Outcome(False, "solve printed no fixed point")
    got = ast.literal_eval(m.group(1))
    if backend == "exact" and atol is None:
        match = tuple(Fraction(c) for c in got) == fixed_point
    else:
        match = all(abs(Fraction(c) - p) <= (tol if atol is None else atol)
                    for c, p in zip(got, fixed_point, strict=True))
    if not match:
        return Outcome(False, f"fixed point {got} is not {fixed_point}")
    rows = _TRACE_RE.search(stdout)
    if rows is None or len(_csv_rows(csv_path)) != int(rows.group(1)) + 1:
        return Outcome(False, "trace CSV row count differs from stdout")
    return Outcome(True, verdict=("converged", str(fixed_point)))


def _negative(row, backend: str) -> bool:
    _, _, actual, bound, slack = row
    if backend == "exact":
        return slack.startswith("-")
    a, b, s = float(actual), float(bound), float(slack)
    return s < -FLOAT_SLACK * max(1.0, abs(a), abs(b))


def check_bounds(rc: int, stdout: str, csv_path, backend: str,
                 depth: int) -> Outcome:
    m = _BOUNDS_RE.search(stdout)
    if m is None:
        return Outcome(False, f"bounds printed no summary (exit {rc})")
    rows, negative = int(m.group(1)), int(m.group(2))
    table = _csv_rows(csv_path)[1:]
    if rows != depth * (depth + 1) // 2 or len(table) != rows:
        return Outcome(False, f"{rows} rows printed, {len(table)} written, "
                              f"{depth * (depth + 1) // 2} expected", rows)
    counted = sum(_negative(r, backend) for r in table)
    if counted != negative:
        return Outcome(False, f"stdout says {negative} negative-slack rows, "
                              f"the CSV has {counted}", rows)
    if negative or rc != 0:
        return Outcome(False, f"{negative} negative-slack rows of {rows} "
                              f"(exit {rc})", rows, ("negative", negative))
    return Outcome(True, "", rows, ("negative", 0))


def check_repro(rc: int, stdout: str) -> Outcome:
    lines = stdout.splitlines()
    passed = tuple(m.group(1) for m in map(_REPRO_OK_RE.match, lines) if m)
    if rc != 0 or passed != REPRO_NAMES or not lines \
            or lines[-1] != f"all checks reproduced exactly ({len(REPRO_NAMES)} total)":
        missing = sorted(set(REPRO_NAMES) - set(passed))
        return Outcome(False, f"repro exit {rc}, not reproduced: {missing}")
    return Outcome(True, verdict=("reproduced", len(passed)))
