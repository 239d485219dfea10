"""Per-layer tracing from outside the package.

:class:`Tracer` rebinds every public, non-generator function of the six
``probecut`` layer modules, in every ``probecut`` module namespace (and
module-level dispatch dict) that holds it, to a wrapper that records one
span per call: function id, start, end, parent span and an outcome flag.
Spans live in compact arrays in memory; :func:`layer_metrics` turns them
into the per-layer metrics after the run, and :meth:`Tracer.dump` writes
them out.  Generator functions (``iter_bits``, ``seed_sets``, ...) are
left alone: timing their creation would say nothing, so their work counts
as self time of the caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("graph", "colouring", "solvers", "oracles", "reductions", "cli")
ROOT_SPAN = "bench.op"

# dcut case labels, plus the first word of the mmc/pmc trace
CASE_LABELS = (
    "mono-probe", "p4-dominating", "cograph-1comp", "cograph-2comp",
    "multi-comp.type-a", "multi-comp.type-b", "multi-comp.dominating-pair",
    "degenerate", "seed", "no-seed",
)


def case_label(trace: list[str]) -> str:
    """Metric-name form of a solver's final case label."""
    return trace[-1].split(" ")[0].replace("/", ".") if trace else "none"


class Tracer:
    """Span recorder for one traced run; :meth:`install` and
    :meth:`uninstall` switch the rebinding on and off."""

    def __init__(self):
        self.names: list[str] = [ROOT_SPAN]
        self.layers: list[str] = ["bench"]
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self.stack = [-1]
        self.reports: list[tuple[str, bool, int, str]] = []
        self._patches: list[tuple[dict, str, object]] = []
        self._build()

    def _outcome(self, qualname: str):
        """Flag recorder for the functions whose ratios are reported."""
        if qualname == "graph.find_induced":
            return lambda r: r is not None
        if qualname == "colouring.process_masks":
            return lambda r: r is None
        if qualname == "colouring.validate_colouring":
            from probecut.colouring import CutCertificate
            return lambda r: isinstance(r, CutCertificate)
        if qualname.startswith("solvers.solve_"):
            def note(report, name=qualname):
                label = case_label(report.case_trace)
                self.reports.append((name, report.answer, report.branches_explored, label))
                return report.answer
            return note
        return None

    def _wrap(self, fn, fid: int, outcome):
        fids, parents, starts, ends, flags, stack = (
            self.fid, self.parent, self.start, self.end, self.flag, self.stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            flags.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                flags[i] = -1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if outcome is not None:
                flags[i] = bool(outcome(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def root(self, run):
        """Wrap one operation so its span is the root of its calls."""
        return self._wrap(run, 0, None)

    def _build(self) -> None:
        self._modules = [importlib.import_module(f"probecut.{m}") for m in LAYERS]
        self._modules.append(importlib.import_module("probecut"))
        self._wrapped: dict[int, object] = {}
        for layer, mod in zip(LAYERS, self._modules):
            for name, obj in vars(mod).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                qualname = f"{layer}.{name}"
                self.names.append(qualname)
                self.layers.append(layer)
                self._wrapped[id(obj)] = self._wrap(
                    obj, len(self.names) - 1, self._outcome(qualname)
                )

    def install(self) -> None:
        for mod in self._modules:
            namespaces = [vars(mod)] + [
                v for k, v in vars(mod).items()
                if isinstance(v, dict) and not k.startswith("__")
            ]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if id(value) in self._wrapped:
                        self._patches.append((ns, key, value))
                        ns[key] = self._wrapped[id(value)]

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            header = {
                "names": self.names,
                "layers": self.layers,
                "count": len(self.fid),
                "arrays": ["fid:i", "parent:i", "start:d", "end:d", "flag:b"],
                "byteorder": sys.byteorder,
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fid, self.parent, self.start, self.end, self.flag):
                arr.tofile(fh)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}

    def add(names, unit):
        for name in names:
            units[name] = unit

    add(["cli.self_s", "cli.parse_instance.busy_s"], "s")
    add(["cli.main.calls", "cli.crosscheck.skipped"], "count")
    add(["graph.self_s", "graph.find_induced.busy_s", "graph.build_graph.busy_s",
         "graph.verify_probe_certificate.busy_s", "graph.random_probe_hfree.busy_s",
         "graph.is_p4_free.busy_s"], "s")
    add(["graph.find_induced.calls", "graph.build_graph.calls", "graph.is_p4_free.calls",
         "graph.random_probe_hfree.calls", "graph.random_probe_hfree.attempts"], "count")
    add(["graph.find_induced.hit_ratio", "graph.random_probe_hfree.accept_ratio"], "ratio")
    add(["colouring.self_s", "colouring.process_masks.busy_s",
         "colouring.local_masks_valid.busy_s", "colouring.validate_colouring.busy_s",
         "colouring.complete_independent_max_cut.busy_s",
         "colouring.complete_independent_perfect.busy_s"], "s")
    add(["colouring.process_masks.calls", "colouring.local_masks_valid.calls",
         "colouring.validate_colouring.calls",
         "colouring.complete_independent_max_cut.calls",
         "colouring.complete_independent_perfect.calls"], "count")
    add(["colouring.process_masks.reject_ratio",
         "colouring.validate_colouring.accept_ratio"], "ratio")
    add(["solvers.self_s"], "s")
    for solver in ("solve_dcut", "solve_mmc", "solve_pmc"):
        add([f"solvers.{solver}.calls"], "count")
        add([f"solvers.{solver}.busy_s", f"solvers.{solver}.self_s"], "s")
    add(["solvers.branches_explored", "solvers.closure_calls", "solvers.answers_yes"], "count")
    add(["solvers.closure_per_branch"], "ratio")
    add([f"solvers.case.{label}" for label in CASE_LABELS], "count")
    add(["oracles.self_s", "oracles.backtrack_dcut.busy_s"], "s")
    add(["oracles.backtrack_dcut.calls"], "count")
    add([f"oracles.brute_{p}.busy_s" for p in ("dcut", "mmc", "pmc", "sat")], "s")
    add(["reductions.self_s"] + [
        f"reductions.{f}.busy_s"
        for f in ("moshi_double", "subdivide4", "sat_to_4p1", "random_sat_instance")
    ], "s")
    add([f"share.{layer}" for layer in LAYERS + ("unattributed",)], "ratio")
    add(["trace.wall_s"], "s")
    add(["trace.spans", "latency_samples"], "count")
    add(["trace.ops_per_s_untraced", "trace.ops_per_s_traced"], "1/s")
    add(["trace.overhead_frac", "fail_frac"], "ratio")
    return units


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer values from the recorded spans of traced runs that took
    ``wall_s`` seconds in all; every name of :func:`metric_units` that the
    spans can give is filled, the rest stays 0."""
    fid, parent, start, end, flag = (
        tracer.fid, tracer.parent, tracer.start, tracer.end, tracer.flag
    )
    names, layers = tracer.names, tracer.layers
    count = len(fid)
    child = array("d", bytes(8 * count))
    dur = array("d", (end[i] - start[i] for i in range(count)))
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]

    calls = [0] * len(names)
    busy = [0.0] * len(names)
    self_t = [0.0] * len(names)
    positive = [0] * len(names)
    for i in range(count):
        f = fid[i]
        calls[f] += 1
        busy[f] += dur[i]
        self_t[f] += dur[i] - child[i]
        positive[f] += flag[i] == 1

    # process_masks calls made under a solver, and find_induced calls made
    # by the generator; parents precede children, so one pass suffices
    solver_fids = {f for f, layer in enumerate(layers) if layer == "solvers"}
    under_solver = array("b", bytes(count))
    pm = names.index("colouring.process_masks")
    fi = names.index("graph.find_induced")
    gen = names.index("graph.random_probe_hfree")
    closure_calls = attempts = 0
    for i in range(count):
        p = parent[i]
        if p >= 0 and (under_solver[p] or fid[p] in solver_fids):
            under_solver[i] = 1
            closure_calls += fid[i] == pm
        attempts += fid[i] == fi and p >= 0 and fid[p] == gen

    m = dict.fromkeys(metric_units(), 0.0)
    by_name = {name: k for k, name in enumerate(names)}

    def ratio(num, den):
        return num / den if den else 0.0

    for qual in ("cli.main", "graph.find_induced", "graph.build_graph", "graph.is_p4_free",
                 "graph.random_probe_hfree", "colouring.process_masks",
                 "colouring.local_masks_valid", "colouring.validate_colouring",
                 "colouring.complete_independent_max_cut",
                 "colouring.complete_independent_perfect", "solvers.solve_dcut",
                 "solvers.solve_mmc", "solvers.solve_pmc", "oracles.backtrack_dcut"):
        m[f"{qual}.calls"] = calls[by_name[qual]]
    for qual in list(m):
        if qual.endswith(".busy_s") and qual[:-7] in by_name:
            m[qual] = busy[by_name[qual[:-7]]]
    for solver in ("solve_dcut", "solve_mmc", "solve_pmc"):
        m[f"solvers.{solver}.self_s"] = self_t[by_name[f"solvers.{solver}"]]
    for layer in LAYERS:
        total = sum(self_t[f] for f, lay in enumerate(layers) if lay == layer)
        m[f"{layer}.self_s"] = total
        m[f"share.{layer}"] = ratio(total, wall_s)
    m["share.unattributed"] = 1.0 - sum(m[f"share.{layer}"] for layer in LAYERS)

    fi_k, pm_k, vc_k = by_name["graph.find_induced"], pm, by_name["colouring.validate_colouring"]
    m["graph.find_induced.hit_ratio"] = ratio(positive[fi_k], calls[fi_k])
    m["colouring.process_masks.reject_ratio"] = ratio(positive[pm_k], calls[pm_k])
    m["colouring.validate_colouring.accept_ratio"] = ratio(positive[vc_k], calls[vc_k])
    m["graph.random_probe_hfree.attempts"] = attempts
    accepted = sum(1 for i in range(count) if fid[i] == gen and flag[i] == 0)
    m["graph.random_probe_hfree.accept_ratio"] = ratio(accepted, attempts)

    branches = sum(r[2] for r in tracer.reports)
    m["solvers.branches_explored"] = branches
    m["solvers.closure_calls"] = closure_calls
    m["solvers.closure_per_branch"] = ratio(closure_calls, branches)
    m["solvers.answers_yes"] = sum(1 for r in tracer.reports if r[1])
    for report in tracer.reports:
        key = f"solvers.case.{report[3]}"
        if key in m:
            m[key] += 1
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = count
    return m
