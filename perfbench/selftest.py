"""Quick self-test of the benchmark harness (about two minutes):

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark at tiny size, in
both trace modes and with two seeds, and asserts that:

* the last line of standard output is the result object with exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
* every metric that BENCHMARK.json names for the mode is emitted with its
  unit and a finite number, and no other metric is;
* the run is correct, and the only failed operations are the known defects;
* the two seeds give the same verdicts and failed operations, and per-layer
  counts of the same size (zero on both or within a factor of two);
* the per-layer counts repeat exactly between the two traced cycles.

Last, it checks that the benchmark exits non-zero without a result in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, workload: str, seed: int, trace: int, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def summary(stdout: str) -> list:
    """The lines that must not depend on the seed."""
    return [line for line in stdout.splitlines()
            if line.startswith(("verdict ", "FAILED "))]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            named = {m["name"]: m["unit"] for m in spec[key]}
            runs = []
            for seed in SEEDS:
                done = bench(ROOT, w["name"], seed, trace, "--size", "tiny")
                where = f"{w['name']} seed {seed} trace {trace}"
                if done.returncode != 0:
                    errors.append(f"{where}: exit {done.returncode}\n{done.stderr}")
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                metrics = result["metrics"]
                if set(result) != RESULT_KEYS:
                    errors.append(f"{where}: result keys {sorted(result)}")
                if set(metrics) != set(named):
                    errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                                  f"{sorted(set(metrics) ^ set(named))}")
                for name, unit in named.items():
                    m = metrics.get(name, {})
                    if m.get("unit") != unit or not isinstance(
                            m.get("value"), (int, float)) \
                            or not math.isfinite(m["value"]):
                        errors.append(f"{where}: {name} = {m} (unit {unit})")
                if not result["correct"] or "UNEXPECTED" in done.stdout:
                    errors.append(f"{where}: not correct\n{done.stdout}")
                if trace and metrics.get("trace.unstable_counts", {}).get("value"):
                    errors.append(f"{where}: counts differ between traced cycles")
                runs.append((summary(done.stdout), metrics))
            if len(runs) == 2:
                (s1, m1), (s2, m2) = runs
                if s1 != s2:
                    errors.append(f"{w['name']} trace {trace}: verdicts or "
                                  f"failures differ between seeds")
                counts = [n for n, unit in named.items() if trace and unit != "s"]
                for name in counts:
                    a, b = m1[name]["value"], m2[name]["value"]
                    if (a == 0) != (b == 0) or a and not 0.5 <= b / a <= 2:
                        errors.append(f"{w['name']}: {name} is {a} with seed "
                                      f"{SEEDS[0]} and {b} with seed {SEEDS[1]}")
            print(f"{w['name']} trace {trace}: done", flush=True)

    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(bare, spec["workloads"][0]["name"], 1, 0)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        errors.append("the benchmark ran without the program's sources")
    shutil.rmtree(bare)

    for e in errors:
        print(f"SELFTEST FAIL {e}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
