"""Spans and counters recorded from outside the hestonis package.

The tracer replaces public functions of the package's modules with wrappers
that record a span (name, start, end, parent, thread, attributes) around each
call, then restores the originals. Nothing under ``src/`` is edited: every
span sits at the call boundary the estimator runner (``bench``) uses, so the
per-layer numbers describe the same code path the untraced run takes.

Spans opened on a worker thread with nothing open on that thread take as
parent the innermost span open on the thread that installed the tracer; the
chunk threads of one estimator cell therefore hang under that cell's span.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

import numpy as np

#: Spans that only group other work; time inside them but outside every
#: other span is "unattributed".
CONTAINERS = frozenset({
    "workload.price",
    "bench.run_table",
    "bench.run_appendix_table",
    "bench.run_estimator",
    "bench.run_appendix_estimator",
})

#: Drift pipeline entry points; a DriftFactory.build that calls none of them
#: was served from the factory cache.
PIPELINES = frozenset({
    "drift_bs.bs_beta",
    "drift_bs.bs_fully_adaptive",
    "drift_ldp.ldp_optimum",
    "drift_mdp.mdp_log_drift",
    "drift_mdp.mdp_price_drift",
    "drift_mdp.mdp_small_time_drift",
    "drift_mdp.mdp_large_time_drift",
    "varopt.solve",
})

_SIM_MODES = {"deterministic": "deterministic", "adaptive": "adaptive",
              "per_step_adaptive": "per_step"}

_SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "thread", "attrs")


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._by_id: dict[int, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[list] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        # per-cell observations, keyed by "payoff:kind@strike"
        self.weights: dict[str, dict[int, tuple]] = defaultdict(dict)
        self.hits: Counter = Counter()
        self.evaluated: Counter = Counter()
        self.batch_bytes = 0

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            parent = self._home_stack[-1][0] if self._home_stack else None
        rec = [next(self._ids), name, time.perf_counter_ns(), 0, parent,
               threading.get_ident(), attrs or {}]
        self._by_id[rec[0]] = rec
        stack.append(rec)
        if name in PIPELINES:
            self.count("pipeline_calls")
        return rec

    def close(self, rec: list) -> None:
        rec[3] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(rec)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def cell_of(self, rec: list) -> str | None:
        """The estimator cell a span runs under, from its chain of parents."""
        while rec is not None:
            cell = rec[6].get("cell")
            if cell is not None:
                return cell
            rec = self._by_id.get(rec[4])
        return None

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, attrs=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``attrs(args, kwargs)`` gives the span's attributes; ``after(rec,
        args, kwargs, result)`` runs once the span is closed.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name, attrs(args, kwargs) if attrs else None)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracer.count(key)
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self) -> "Tracer":
        from hestonis import bench, drift_bs, payoff, sim, varopt

        def cell_attrs(args, kwargs):
            kind, spec = args[0], args[1]
            return {"cell": f"{spec.kind.value}:{kind.value}@{spec.strike:g}"}

        def appendix_attrs(args, kwargs):
            kind, strike = args[0], args[1]
            return {"cell": f"arithmetic_asian_call:{kind.value}@{strike:g}"}

        self.wrap(bench, "run_table", "bench.run_table")
        self.wrap(bench, "run_appendix_table", "bench.run_appendix_table")
        self.wrap(bench, "run_estimator", "bench.run_estimator", attrs=cell_attrs)
        self.wrap(bench, "run_appendix_estimator", "bench.run_appendix_estimator",
                  attrs=appendix_attrs)
        self.wrap(bench.DriftFactory, "build", "bench.DriftFactory.build",
                  attrs=self._build_attrs, after=self._after_build)

        self.wrap(sim, "normal_increments", "sim.normal_increments")
        self.wrap(sim, "simulate_p", "sim.simulate_p",
                  attrs=lambda a, k: {"mode": "none"}, after=self._after_batch)
        self.wrap(sim, "antithetic_pairs", "sim.antithetic_pairs",
                  attrs=lambda a, k: {"mode": "none"}, after=self._after_batch)
        self.wrap(sim, "simulate_q", "sim.simulate_q",
                  attrs=lambda a, k: {"mode": _SIM_MODES[_arg(a, k, 4, "drift").mode.value]},
                  after=self._after_q)
        self.wrap(payoff, "evaluate", "payoff.evaluate", after=self._after_payoff)

        self.wrap(drift_bs, "bs_fully_adaptive_step", "drift_bs.a2_step")
        self.wrap(bench, "bs_beta", "drift_bs.bs_beta")
        self.wrap(bench, "bs_fully_adaptive", "drift_bs.bs_fully_adaptive")
        self.wrap(bench, "ldp_optimum", "drift_ldp.ldp_optimum")
        for fn in ("mdp_log_drift", "mdp_price_drift", "mdp_small_time_drift",
                   "mdp_large_time_drift"):
            self.wrap(bench, fn, f"drift_mdp.{fn}")
        self.wrap(varopt, "solve", "varopt.solve")
        self.count_calls(varopt.VariationalProblem, "value", "varopt.evals")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- observations on results --------------------------------------------

    def _build_attrs(self, args, kwargs) -> dict:
        return {"kind": _arg(args, kwargs, 1, "kind").value,
                "pipeline_calls_before": self.counts["pipeline_calls"]}

    def _after_build(self, rec, args, kwargs, result) -> None:
        self.count("bench.builds")
        if self.counts["pipeline_calls"] == rec[6]["pipeline_calls_before"]:
            self.count("bench.factory_hits")

    def _after_batch(self, rec, args, kwargs, batch) -> None:
        n_paths, n_steps = batch.dw.shape
        self.count("sim.path_steps", n_paths * n_steps)
        self.count("sim.chunks")
        if n_paths == 25_000:
            arrays = (batch.x, batch.v, batch.v_raw, batch.dw, batch.dw_perp,
                      batch.log_inv_weight)
            size = sum(a.nbytes for a in arrays if a is not None)
            with self._lock:
                self.batch_bytes = max(self.batch_bytes, size)

    def _after_q(self, rec, args, kwargs, batch) -> None:
        self._after_batch(rec, args, kwargs, batch)
        cell = self.cell_of(rec)
        lw = batch.log_inv_weight
        top = float(lw.max())
        e = np.exp(lw - top)
        chunk = _arg(args, kwargs, 3, "rng").stream_offset
        stats = (lw.size, top, float(e.sum()), float((e * e).sum()))
        with self._lock:
            self.weights[cell][chunk] = stats

    def _after_payoff(self, rec, args, kwargs, g) -> None:
        cell = self.cell_of(rec)
        with self._lock:
            self.hits[cell] += int(np.count_nonzero(g > 0.0))
            self.evaluated[cell] += int(g.size)

    def weight_health(self, cell: str) -> tuple[float, float]:
        """(ESS fraction, largest weight share) of a cell, merged in chunk order."""
        parts = [self.weights[cell][c] for c in sorted(self.weights[cell])]
        if not parts:
            return float("nan"), float("nan")
        top = max(p[1] for p in parts)
        n = sum(p[0] for p in parts)
        s1 = sum(p[2] * np.exp(p[1] - top) for p in parts)
        s2 = sum(p[3] * np.exp(2.0 * (p[1] - top)) for p in parts)
        return float(s1 * s1 / (n * s2)), float(1.0 / s1)

    def span_records(self) -> list[dict]:
        return [dict(zip(_SPAN_FIELDS, rec)) for rec in sorted(self.spans)]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(tracer: Tracer, headline: str, weighted_wall_s: float) -> dict:
    """Per-layer numbers of one traced call.

    ``headline`` is the cell key ("payoff:kind@strike") whose payoff and
    weight statistics are reported; ``weighted_wall_s`` is the sum over the
    call's price runs of wall time times worker threads.
    """
    spans = tracer.spans
    dur = defaultdict(float)
    calls = Counter()
    child_same_thread = defaultdict(int)
    by_id = {rec[0]: rec for rec in spans}
    for rec in spans:
        dur[rec[1]] += (rec[3] - rec[2]) * 1e-9
        calls[rec[1]] += 1
        parent = by_id.get(rec[4])
        if parent is not None and parent[5] == rec[5]:
            child_same_thread[parent[0]] += rec[3] - rec[2]

    evolve = dict.fromkeys(("none", "deterministic", "adaptive", "per_step"), 0.0)
    for rec in spans:
        if rec[1] in ("sim.simulate_p", "sim.simulate_q", "sim.antithetic_pairs"):
            evolve[rec[6]["mode"]] += (rec[3] - rec[2] - child_same_thread[rec[0]]) * 1e-9
    evolve_total = sum(evolve.values())
    path_steps = tracer.counts["sim.path_steps"]

    busy_ns = 0
    layer_intervals = []
    by_thread = defaultdict(list)
    for rec in spans:
        if rec[1] not in CONTAINERS:
            by_thread[rec[5]].append((rec[2], rec[3]))
            layer_intervals.append((rec[2], rec[3]))
    for intervals in by_thread.values():
        busy_ns += _union_ns(intervals)
    root_ns = sum(rec[3] - rec[2] for rec in spans if rec[1] == "workload.price")

    ess, max_share = tracer.weight_health(headline)
    evaluated = tracer.evaluated[headline]
    builds = tracer.counts["bench.builds"]
    return {
        "sim.normals_s": (dur["sim.normal_increments"], "s"),
        "sim.evolve_s.none": (evolve["none"], "s"),
        "sim.evolve_s.deterministic": (evolve["deterministic"], "s"),
        "sim.evolve_s.adaptive": (evolve["adaptive"], "s"),
        "sim.evolve_s.per_step": (evolve["per_step"], "s"),
        "sim.ns_per_path_step": (evolve_total * 1e9 / path_steps if path_steps else 0.0, "ns"),
        "sim.path_steps": (path_steps, "count"),
        "sim.chunks": (tracer.counts["sim.chunks"], "count"),
        "sim.batch_mb": (tracer.batch_bytes / 1e6, "MB"),
        "payoff.evaluate_s": (dur["payoff.evaluate"], "s"),
        "payoff.hit_frac": (tracer.hits[headline] / evaluated if evaluated else 0.0, "fraction"),
        "measure.ess_frac": (ess, "fraction"),
        "measure.max_w_share": (max_share, "fraction"),
        "drift_bs.a2_step_s": (dur["drift_bs.a2_step"], "s"),
        "drift_bs.a2_step_calls": (calls["drift_bs.a2_step"], "count"),
        "drift_ldp.optimum_s": (dur["drift_ldp.ldp_optimum"], "s"),
        "drift_ldp.optimum_calls": (calls["drift_ldp.ldp_optimum"], "count"),
        "drift_mdp.build_s": (sum(v for k, v in dur.items() if k.startswith("drift_mdp.")), "s"),
        "varopt.solve_s": (dur["varopt.solve"], "s"),
        "varopt.evals": (tracer.counts["varopt.evals"], "count"),
        "bench.drift_build_s": (dur["bench.DriftFactory.build"], "s"),
        "bench.factory_hit_frac": (tracer.counts["bench.factory_hits"] / builds if builds else 0.0,
                                   "fraction"),
        "bench.worker_util": (busy_ns * 1e-9 / weighted_wall_s, "fraction"),
        "bench.unattributed_s": ((root_ns - _union_ns(layer_intervals)) * 1e-9, "s"),
    }
