"""modfix benchmark: the four CLI verbs on generated configs, timed end to end,
and a separate traced run that times each module from outside.

    python3 perfbench/run.py --workload check-builtin --seed 1 --seconds 40 --trace 0

Every verb call goes through ``modfix.cli.main(argv)`` in this one
single-threaded process and is one operation; its output is checked by
``oracle``.  An operation fails if it raises, exits with an unexpected code
or fails its output check.  The defects listed in ``workloads.KNOWN_DEFECTS``
count as failed operations like any other; ``correct`` is false only when an
operation fails in another way, when a config's verdicts differ between the
two backends, or when repeated calls print or write different bytes.

With ``--trace 0`` the run repeats cycles of the workload until ``--seconds``
have passed (at least two), sets up in a fresh interpreter at even times
through the run (``setup_s``), and prints the end-to-end metrics from the
median of each call's times, rescaled by the reference loop timed around it
(see ``rescaled``).  With ``--trace 1`` it runs one cycle
untraced and two traced, and prints the per-layer metrics of the first
traced cycle, the tracing overhead and the counts that differ between the
two traced cycles.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from reference import REFERENCE_S, reference
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 24
# Weight of the prior slope 1 in rescaled(), as a sum of squared deviations
# of log loop time: about what two calls in opposite spells contribute.
BETA_PRIOR = 0.1
MIN_CYCLES = 2
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


class Runner:
    """Runs operations of one workload and keeps their samples and outcomes."""

    def __init__(self, workload: workloads.Workload, outdir: Path, tiny: bool):
        from modfix import cli
        self.cli = cli
        self.w = workload
        self.tiny = tiny
        self.outdir = outdir
        self.paths = {}
        for name, doc in workload.configs.items():
            self.paths[name] = outdir / f"{name}.json"
            self.paths[name].write_text(json.dumps(doc, indent=1))
        self.attempted = 0
        self.failures = defaultdict(int)   # (label, reason, known reason) -> n
        self.digests = defaultdict(set)    # label -> output digests
        self.verdicts = defaultdict(set)   # (config, verb) -> verdicts
        # (verb, backend) -> config -> [(seconds, units, ref)] of each call,
        # ref the mean time of the reference loop just before and after it
        self.samples = defaultdict(lambda: defaultdict(list))
        self.ref = None
        self.op_seconds = 0.0

    def op(self, verb: str, backend: str, config: str):
        """One verb call; returns its wall time and the work it reports."""
        csv_path = None
        argv = [verb]
        if verb != "repro":
            argv += ["--config", str(self.paths[config]), "--backend", backend]
        if verb in ("solve", "bounds"):
            csv_path = self.outdir / f"{config}-{verb}-{backend}.csv"
            argv += ["--out", str(csv_path)]
        out, err = io.StringIO(), io.StringIO()
        error = None
        gc.collect()   # every call starts from the same heap state
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as e:  # a crash is a failed operation, not the end
            rc, error = None, e
        seconds = perf_counter() - t0
        self.op_seconds += seconds
        before, self.ref = self.ref, reference()
        self.attempted += 1
        stdout = out.getvalue()
        if error is not None:
            outcome = oracle.Outcome(False, _describe(error))
        elif verb == "check":
            outcome = oracle.check_check(rc, stdout)
        elif verb == "solve":
            point, atol = self.w.fixed_points[config]
            tol = Fraction(self.w.configs[config]["solve"]["tol"])
            outcome = oracle.check_solve(rc, stdout, csv_path, backend,
                                         point, tol, atol)
        elif verb == "bounds":
            depth = self.w.configs[config]["solve"]["bounds_depth"]
            outcome = oracle.check_bounds(rc, stdout, csv_path, backend, depth)
        else:
            outcome = oracle.check_repro(rc, stdout)
        label = f"{config or 'embedded'}/{verb}/{backend}"
        self.digests[label].add(oracle.digest(stdout, csv_path))
        if outcome.verdict:
            self.verdicts[(config, verb)].add(outcome.verdict)
        if not outcome.ok:
            reason = outcome.reason + (f"; stderr: {err.getvalue().strip()}"
                                       if err.getvalue() else "")
            known = workloads.known_defect(config, verb, backend)
            known = known.reason if known and known.signature in reason else ""
            self.failures[(label, reason, known)] += 1
        return seconds, outcome.units, (before + self.ref) / 2

    def cycle(self, between=lambda: None) -> float:
        """``rounds`` rounds of every group, interleaved, calling ``between``
        after each pass; returns the wall time of the cycle's calls."""
        before = self.op_seconds
        if self.ref is None:
            self.ref = reference()
        rounds = {g: 1 if self.tiny else g.rounds for g in self.w.groups}
        for r in range(max(rounds.values())):
            for g in self.w.groups:
                if r >= rounds[g]:
                    continue
                for config in g.configs or (None,):
                    self.samples[(g.verb, g.backend)][config].append(
                        self.op(g.verb, g.backend, config))
            between()
        return self.op_seconds - before

    def problems(self) -> list:
        """Failures that are not known defects, plus backend disagreements
        and outputs that changed between identical calls."""
        out = [f"{label}: {reason}" for (label, reason, known) in self.failures
               if not known]
        out += [f"{c}/{v}: verdicts differ between calls or backends: {sorted(vs)}"
                for (c, v), vs in self.verdicts.items() if len(vs) > 1]
        out += [f"{label}: output differs between identical calls"
                for label, ds in self.digests.items() if len(ds) > 1]
        return out


def _describe(error: Exception) -> str:
    frames = [f"{Path(f.filename).stem}.{f.name}"
              for f in traceback.extract_tb(error.__traceback__)
              if Path(f.filename).is_relative_to(SRC)]
    return f"{type(error).__name__}: {error} (in {' -> '.join(frames[-3:])})"


def setup_once(paths) -> float:
    """Seconds of one set-up in a fresh interpreter, which the probe times
    itself; the call waits until the interpreter has ended."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           *map(str, paths)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def rescaled(samples) -> list:
    """Each call's seconds multiplied by (REFERENCE_S / r) ** beta, where r
    is the reference loop's time around the call: the time the call takes
    on the machine while the loop takes REFERENCE_S.

    Raw times fall in two heaps, one per speed spell, and a run spends a
    tenth or most of its time in fast spells, so the median of raw times
    jumps with that share.  Not all work moves with the spells as much as
    the loop does (big-integer arithmetic moves a third as much), so
    ``beta`` is the slope of log time on log r over the call's samples in
    this run, pulled towards 1 by BETA_PRIOR and kept within [0, 1]: a run
    whose loop times hardly vary rescales in full.
    """
    x = [math.log(ref) for *_, ref in samples]
    y = [math.log(seconds) for seconds, *_ in samples]
    mx, my = statistics.fmean(x), statistics.fmean(y)
    sxx = sum((a - mx) ** 2 for a in x)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    beta = min(1.0, max(0.0, (sxy + BETA_PRIOR) / (sxx + BETA_PRIOR)))
    return [seconds * (REFERENCE_S / ref) ** beta
            for seconds, *_, ref in samples]


def tail(values, higher_better=False) -> str:
    """The highest standard percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            ranked = sorted(values, reverse=higher_better)
            return f"p{p:g} = {ranked[math.ceil(p / 100 * n) - 1]:.6g}"
    return "no percentile has 10 samples beyond it"


def end_to_end(runner: Runner, setup: list) -> dict:
    """Each metric from the median of each call's rescaled times: a pass
    over a group's configs takes the sum of its calls' medians, and a rate
    is the work of a pass over that time."""
    result = {}

    def report(name, value, unit, detail):
        print(f"{name} = {value:.6g} {unit}  ({detail})")
        result[name] = {"value": value, "unit": unit}

    def times(config_samples):
        return {c: rescaled(ss) for c, ss in config_samples.items()}

    def median(ts):
        return sum(statistics.median(v) for v in ts.values())

    def detail(ts):
        return "; ".join(f"{c or 'embedded'}: median of n={len(v)}, {tail(v)}"
                         for c, v in ts.items())

    setup = {"set-up": rescaled(setup)}
    report("setup_s", median(setup), "s", detail(setup))
    for backend in ("exact", "float"):
        for verb, unit in (("check", "checks/s"), ("bounds", "rows/s")):
            samples = runner.samples[(verb, backend)]
            units = sum(statistics.median(u for _, u, _ in ss)
                        for ss in samples.values())
            ts = times(samples)
            report(f"{verb}_{backend}_{unit.split('/')[0]}_per_s",
                   units / median(ts), unit,
                   f"{units:g} per pass; {detail(ts)}")
        ts = times(runner.samples[("solve", backend)])
        report(f"solve_{backend}_s", median(ts), "s", detail(ts))
    ts = times(runner.samples[("repro", "exact")])
    report("repro_s", median(ts), "s", detail(ts))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report("peak_rss_mb", rss, "MB", "ru_maxrss of this process")
    return result


def per_layer(tr: Tracer) -> dict:
    t, n, c = tr.seconds, tr.ncalls, tr.counts
    ratio = lambda a, b: a / b if b else 0.0
    m = {
        "config.load_config_s": (t("config.load_config"), "s"),
        "sampling.sample_build_s": (t("sampling.build_point_sample",
                                      "sampling.build_pair_sample",
                                      "sampling.build_coeff_sample"), "s"),
        "sampling.points": (c["sampling.points"], "count"),
        "sampling.pairs": (c["sampling.pairs"], "count"),
        "modular.axioms_s": (t("modular.check_modular_axioms",
                               "modular.check_convexity"), "s"),
        "modular.eval_modular_calls": (n("modular.eval_modular"), "count"),
        "modular.eval_modular_s": (t("modular.eval_modular"), "s"),
        "modular.rho_gap_calls": (n("modular.rho_gap"), "count"),
        "expr.eval_expr_calls": (n("expr.eval_expr"), "count"),
        "expr.eval_expr_s": (t("expr.eval_expr"), "s"),
        "graphs.edge_tests": (c["graphs.edge_tests"], "count"),
        "graphs.edge_hit_ratio": (ratio(c["graphs.edge_hits"],
                                        c["graphs.edge_tests"]), "ratio"),
        "graphs.edge_s": (t("graphs.edge"), "s"),
        "graphs.witness_s": (t("graphs.is_weakly_connected_on",
                               "graphs.check_star_condition",
                               "graphs.find_undirected_path"), "s"),
        "contractions.condition_s": (t("contractions.check_banach_condition",
                                       "contractions.check_kannan_condition"), "s"),
        "contractions.edge_preservation_s": (
            t("contractions.check_edge_preservation"), "s"),
        "contractions.map_calls": (c["contractions.map_calls"], "count"),
        "contractions.map_distinct_points": (
            c["contractions.map_distinct_points"], "count"),
        "contractions.map_reuse_ratio": (
            ratio(c["contractions.map_distinct_points"],
                  c["contractions.map_calls"]), "ratio"),
        "solver.solve_s": (t("solver.solve_banach", "solver.solve_kannan"), "s"),
        "solver.cf_check_s": (t("solver.check_cf_membership"), "s"),
        "solver.cf_pairs": (c["solver.cf_pairs"], "count"),
        "solver.iterations": (c["solver.iterations"], "count"),
        "solver.peak_bits": (c["solver.peak_bits"], "bits"),
        "solver.snap_proposals": (n("solver.simplest_rational_in"), "count"),
        "backend.violates_calls": (n("backend.violates"), "count"),
        "backend.format_s": (t("backend.format"), "s"),
        "cli.csv_write_s": (t("cli.write_csv"), "s"),
        "cli.csv_rows": (c["cli.csv_rows"], "count"),
        "cli.csv_bytes": (c["cli.csv_bytes"], "bytes"),
    }
    for name in oracle.REPRO_NAMES:
        m[f"repro.{name}_s"] = (t(f"repro.{name}"), "s")
    for layer, s in tr.layer_self_seconds().items():
        m[f"{layer}.self_s"] = (s, "s")
    return m


def run(args) -> int:
    if not (SRC / "modfix" / "__init__.py").is_file():
        print(f"error: no modfix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tiny = args.size == "tiny"
    w = workloads.build(args.workload, args.seed, args.size)
    outdir = ROOT / ".bench_run" / w.name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    runner = Runner(w, outdir, tiny)
    print(f"workload {w.name}, seed {args.seed}, size {args.size}: {w.why}")
    print("samples.seed: " + ", ".join(
        f"{c}={doc['samples']['seed']}" for c, doc in w.configs.items()))

    if not args.trace:
        paths = list(runner.paths.values())
        setup_once(paths)        # the first set-up may write bytecode
        setup = []
        start = perf_counter()
        deadline = start + args.seconds

        def probe():
            """One set-up whenever the run passes the next of SETUP_REPEATS
            even steps of --seconds."""
            due = start + len(setup) * args.seconds / SETUP_REPEATS
            if len(setup) < SETUP_REPEATS and perf_counter() >= due:
                r0 = reference()
                seconds = setup_once(paths)
                setup.append((seconds, (r0 + reference()) / 2))

        cycles = []
        while len(cycles) < MIN_CYCLES or \
                perf_counter() + statistics.mean(cycles) <= deadline:
            t0 = perf_counter()
            runner.cycle(probe)
            cycles.append(perf_counter() - t0)
        while len(setup) < 3:
            probe()
        print(f"{len(cycles)} cycles in {sum(cycles):.1f} s, "
              f"{runner.attempted} operations")
        (outdir / "samples.json").write_text(json.dumps({
            "setup": setup,
            "calls": [[verb, backend, config, times]
                      for (verb, backend), cs in runner.samples.items()
                      for config, times in cs.items()]}))
        metrics = end_to_end(runner, setup)
    else:
        untraced = runner.cycle()
        traced, tracers = [], []
        for _ in range(2):
            tr = Tracer()
            tr.install()
            try:
                traced.append(runner.cycle())
            finally:
                tr.uninstall()
            tracers.append(tr)
        first, second = (per_layer(tr) for tr in tracers)
        unstable = [k for k, (v, unit) in first.items()
                    if unit != "s" and v != second[k][0]]
        first["trace.overhead_s"] = (statistics.mean(traced) - untraced, "s")
        first["trace.spans"] = (len(tracers[0].span_start), "count")
        first["trace.unstable_counts"] = (len(unstable), "count")
        tracers[0].write(outdir / "spans.bin")
        print(f"untraced cycle {untraced:.3f} s, traced cycles "
              + ", ".join(f"{s:.3f} s" for s in traced))
        for name in unstable:
            print(f"FLAG count differs between traced cycles: {name} "
                  f"{first[name][0]} vs {second[name][0]}")
        for name, (value, unit) in first.items():
            print(f"{name} = {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in first.items()}

    for (label, reason, known), count in sorted(runner.failures.items()):
        tag = f"known defect: {known}" if known else "UNEXPECTED"
        print(f"FAILED {count}x {label}: {reason} [{tag}]")
    for (config, verb), vs in sorted(runner.verdicts.items(), key=str):
        print(f"verdict {config or 'embedded'}/{verb}: {sorted(vs)}")
    for label, ds in sorted(runner.digests.items()):
        print(f"digest {label}: {' '.join(sorted(d[:16] for d in ds))}")
    problems = runner.problems()
    for p in problems:
        print(f"PROBLEM {p}")
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": sum(runner.failures.values()),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny shrinks the samples and runs one round of "
                        "each group per cycle (self-test)")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
