"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds chosen public functions of ``modfix`` in every
module that holds them (``rho_gap`` is bound in modular, contractions,
solver, cli and repro), the two ``Backend`` methods on the class, the
``repro.REPRO_CHECKS`` entries, and, through ``load_config``, each config's
map and graph predicate.  Every wrapped call is a span (name, start, end,
parent) kept in compact arrays; a recursive call inside an open span of the
same function is not a new span, so counts are of outermost calls.
``uninstall`` restores every binding.

A layer's self time is the time of its spans minus the time of their child
spans; time outside every span of an operation belongs to the root span
``cli.main``.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("config", "sampling", "modular", "expr", "graphs", "contractions",
          "solver", "backend", "cli", "repro")

# (module, attribute, span name); the layer is the span name's prefix.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("config", "load_config", "config.load_config"),
    ("cli", "build_point_sample", "sampling.build_point_sample"),
    ("cli", "build_pair_sample", "sampling.build_pair_sample"),
    ("cli", "build_coeff_sample", "sampling.build_coeff_sample"),
    ("modular", "check_modular_axioms", "modular.check_modular_axioms"),
    ("modular", "check_convexity", "modular.check_convexity"),
    ("modular", "eval_modular", "modular.eval_modular"),
    ("modular", "rho_gap", "modular.rho_gap"),
    ("expr", "eval_expr", "expr.eval_expr"),
    ("graphs", "is_weakly_connected_on", "graphs.is_weakly_connected_on"),
    ("graphs", "check_star_condition", "graphs.check_star_condition"),
    ("graphs", "find_undirected_path", "graphs.find_undirected_path"),
    ("contractions", "check_edge_preservation",
     "contractions.check_edge_preservation"),
    ("contractions", "check_banach_condition",
     "contractions.check_banach_condition"),
    ("contractions", "check_kannan_condition",
     "contractions.check_kannan_condition"),
    ("solver", "solve_banach", "solver.solve_banach"),
    ("solver", "solve_kannan", "solver.solve_kannan"),
    ("solver", "check_cf_membership", "solver.check_cf_membership"),
    ("solver", "picard_orbit", "solver.picard_orbit"),
    ("solver", "simplest_rational_in", "solver.simplest_rational_in"),
    ("cli", "_write_csv", "cli.write_csv"),
)

METHODS = (("violates", "backend.violates"), ("format", "backend.format"))


def _bits(points) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for p in points for c in p if isinstance(c, Fraction)),
               default=0)


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.layer_of = []                 # name id -> layer index
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.open = []                     # span ids of open spans
        self.child = []                    # child time of each open span
        self.total = []                    # name id -> inclusive seconds
        self.calls = []                    # name id -> outermost calls
        self.self_s = [0.0] * len(LAYERS)
        self.counts = Counter()
        self._restore = []

    def _name_id(self, name: str) -> int:
        if name in self.ids:
            return self.ids[name]
        self.ids[name] = len(self.names)
        self.names.append(name)
        self.layer_of.append(LAYERS.index(name.split(".")[0]))
        self.total.append(0.0)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name: str, post=None):
        """A traced stand-in for ``fn``; ``post(result, args)`` records counts
        from a call that returned."""
        nid = self._name_id(name)
        layer = self.layer_of[nid]
        active = False

        def traced(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            sid = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self.open[-1] if self.open else -1)
            self.span_end.append(0.0)
            self.open.append(sid)
            self.child.append(0.0)
            t0 = perf_counter()
            self.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active = False
                self.span_end[sid] = t1
                self.open.pop()
                dur = t1 - t0
                self.self_s[layer] += dur - self.child.pop()
                if self.child:
                    self.child[-1] += dur
                self.total[nid] += dur
                self.calls[nid] += 1
            if post is not None:
                post(result, args)
            return result

        return traced

    # -- counts recorded from results ------------------------------------

    def _post(self, name: str):
        c = self.counts
        if name == "config.load_config":
            return lambda cfg, args: self._instrument_config(cfg)
        if name == "sampling.build_point_sample":
            return lambda r, args: c.update({"sampling.points": len(r)})
        if name == "sampling.build_pair_sample":
            return lambda r, args: c.update({"sampling.pairs": len(r)})
        if name == "solver.check_cf_membership":
            return lambda r, args: c.update({"solver.cf_pairs": r.pairs_checked})
        if name == "solver.picard_orbit":
            return lambda r, args: self._peak_bits(r.points)
        if name in ("solver.solve_banach", "solver.solve_kannan"):
            def post(cert, args):
                c["solver.iterations"] += cert.iterations
                self._peak_bits(cert.trace.points + [cert.fixed_point])
            return post
        if name == "cli.write_csv":
            def post(r, args):
                path, _, rows, _ = args
                c["cli.csv_rows"] += len(rows)
                c["cli.csv_bytes"] += os.path.getsize(path)
            return post
        return None

    def _peak_bits(self, points):
        self.counts["solver.peak_bits"] = max(self.counts["solver.peak_bits"],
                                              _bits(points))

    def _instrument_config(self, cfg):
        """Count the config's map calls and distinct points, and time its
        graph predicate."""
        from modfix.contractions import SelfMap
        from modfix.graphs import SpaceGraph
        c = self.counts
        seen = set()
        inner = cfg.map

        def counted(x):
            c["contractions.map_calls"] += 1
            if x not in seen:
                seen.add(x)
                c["contractions.map_distinct_points"] += 1
            return inner(x)

        cfg.map = SelfMap(self.wrap(counted, "contractions.map"),
                          inner.description)
        if cfg.graph.predicate is not None:
            pred = cfg.graph.predicate

            def tested(x, y):
                hit = pred(x, y)
                c["graphs.edge_tests"] += 1
                c["graphs.edge_hits"] += bool(hit)
                return hit

            cfg.graph = SpaceGraph(cfg.graph.kind, self.wrap(tested, "graphs.edge"))

    # -- installing and removing -----------------------------------------

    def install(self):
        from modfix.backend import Backend
        mods = {n: m for n, m in sys.modules.items()
                if n == "modfix" or n.startswith("modfix.")}
        for modname, attr, name in TARGETS:
            orig = getattr(mods[f"modfix.{modname}"], attr)
            traced = self.wrap(orig, name, self._post(name))
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, traced)
        for attr, name in METHODS:
            orig = Backend.__dict__[attr]
            self._restore.append((Backend, attr, orig))
            setattr(Backend, attr, self.wrap(orig, name))
        repro = mods["modfix.repro"]
        self._restore.append((repro, "REPRO_CHECKS", repro.REPRO_CHECKS))
        repro.REPRO_CHECKS = [(n, self.wrap(fn, f"repro.{n}"))
                              for n, fn in repro.REPRO_CHECKS]

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def seconds(self, *names) -> float:
        return sum(self.total[self.ids[n]] for n in names if n in self.ids)

    def ncalls(self, name) -> int:
        return self.calls[self.ids[name]] if name in self.ids else 0

    def layer_self_seconds(self) -> dict:
        return dict(zip(LAYERS, self.self_s))

    def write(self, path) -> None:
        """Write the spans: a JSON header, then the four arrays in order."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": [["name", "H"], ["start", "d"], ["end", "d"],
                             ["parent", "l"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent):
                arr.tofile(fh)
