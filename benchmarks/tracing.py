"""Spans around relayflow's layer boundaries, for the traced run.

The tracer replaces public functions of each layer with thin wrappers
that record one span per call: name, start, end, parent span and the
workload run it belongs to.  Spans stay in memory until the run ends.
Only public names are wrapped; private helpers such as the interior
point's active-set polish show up through the path counts read from
``LpResult.message`` instead.

A function imported by name into another module is a separate binding,
so every binding a call can go through is patched.  ``lp`` imports the
simplex lazily from its module, so the module attribute is enough there.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

import numpy as np

# (module, attribute, span name)
BINDINGS = (
    ("relayflow", "spawn_scenario", "network.spawn_scenario"),
    ("relayflow", "ascend", "ascent.ascend"),
    ("relayflow.dynamics", "ascend", "ascent.ascend"),
    ("relayflow", "run_simulation", "dynamics.run_simulation"),
    ("relayflow.dynamics", "step_task", "dynamics.step_task"),
    ("relayflow.dynamics", "step_relay", "dynamics.step_relay"),
    ("relayflow.ascent", "gradient_from_duals", "ascent.gradient_from_duals"),
    ("relayflow.dynamics", "gradient_from_duals", "ascent.gradient_from_duals"),
    ("relayflow.ascent", "gradient_factor_matrix", "capacity.gradient_factor_matrix"),
    ("relayflow", "build_instance", "mcfp.build_instance"),
    ("relayflow.ascent", "build_instance", "mcfp.build_instance"),
    ("relayflow.dynamics", "build_instance", "mcfp.build_instance"),
    ("relayflow.mcfp", "capacity_matrix", "capacity.capacity_matrix"),
    ("relayflow", "solve_mcfp", "mcfp.solve_mcfp"),
    ("relayflow.ascent", "solve_mcfp", "mcfp.solve_mcfp"),
    ("relayflow.dynamics", "solve_mcfp", "mcfp.solve_mcfp"),
    ("relayflow.mcfp", "build_lp", "mcfp.build_lp"),
    ("relayflow.mcfp", "solve", "lp.solve"),
    ("relayflow.mcfp", "verify_solution", "mcfp.verify_solution"),
    ("relayflow.mcfp", "check_kkt", "mcfp.check_kkt"),
    ("relayflow.simplex", "solve_simplex", "simplex.solve_simplex"),
)

# per-mille percentiles tried for a tail, highest first
_TAIL_LADDER = (999, 990, 950, 900, 500)


def lp_path(message: str) -> str:
    """Engine path that finished a solve, from ``LpResult.message``."""
    return message if message in ("converged", "polished", "simplex") else "other"


def _lp_info(result):
    return {"iters": int(result.iterations), "path": lp_path(str(result.message))}


def _build_lp_info(out):
    lp = out[0]
    return {
        "vars": lp.num_vars,
        "rows": lp.num_ineq + lp.num_eq,
        "nnz": int(lp.a_ub.nnz + lp.a_eq.nnz),
    }


def _ascend_info(trace):
    return {"iters": trace.iterations}


_INFO = {
    "lp.solve": _lp_info,
    "mcfp.build_lp": _build_lp_info,
    "ascent.ascend": _ascend_info,
}


class Tracer:
    """In-memory span log; ``run`` labels the spans of the current item run."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, run id, info]
        self.spans: list = []
        self.run = "setup"
        self.missing: list = []
        self._stack: list = []

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[5] = info(result)
            return result

        return wrapper

    def to_json(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r, "info": i}
            for n, s, e, p, r, i in self.spans
        ]


@contextmanager
def patched(tracer: Tracer):
    """Route every binding in ``BINDINGS`` through ``tracer`` while active.

    A binding the library no longer has is skipped and listed in
    ``tracer.missing``; its layer then reports zeros.
    """
    saved = []
    wrappers = {}
    try:
        for mod_name, attr, span in BINDINGS:
            try:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
            except (ImportError, AttributeError):
                tracer.missing.append(f"{mod_name}.{attr}")
                continue
            if id(orig) not in wrappers:
                wrappers[id(orig)] = tracer.wrap(span, orig, _INFO.get(span))
            saved.append((mod, attr, orig))
            setattr(mod, attr, wrappers[id(orig)])
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples beyond it.

    With fewer than twenty samples no percentile qualifies and the
    median is returned as the tail.
    """
    n = len(samples)
    if n == 0:
        return 50.0, 0.0
    for q in _TAIL_LADDER:
        if n * (1000 - q) >= 10_000:
            break
    return q / 10.0, float(np.percentile(samples, q / 10.0))


def layer_metrics(spans: list, dt: float) -> dict:
    """Per-layer metrics of one traced run, per pass over the workload's items.

    Counts and self times are summed per item run, the median is taken
    over the repetitions of each item, and the medians are summed over
    items, which mirrors how ``wall_s`` is formed.  Percentiles pool
    every sample of the run.  Self time is a span's duration minus the
    time its child spans cover.
    """
    self_s = [end - start for _, start, end, _, _, _ in spans]
    children = defaultdict(list)
    for idx, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            self_s[parent] -= end - start
            children[parent].append(idx)

    per_run = defaultdict(Counter)
    solve_ms, tick_ms, tick_solve_s = [], [], []
    dims = defaultdict(list)
    for idx, (name, start, end, _, run, info) in enumerate(spans):
        c = per_run[run]
        c[f"{name}.calls"] += 1
        c[f"{name}.self_s"] += self_s[idx]
        if "#" not in run:  # set-up, not a timed item run
            continue
        if name == "lp.solve":
            c["lp.ipm_iters"] += info["iters"]
            c[f"lp.path.{info['path']}"] += 1
        elif name == "ascent.ascend":
            c["ascent.iterations"] += info["iters"]
        elif name == "mcfp.build_lp":
            for key, val in info.items():
                dims[key].append(val)
        elif name == "mcfp.solve_mcfp":
            solve_ms.append(1e3 * (end - start))
        elif name == "dynamics.run_simulation":
            # a tick runs from one solve's start to the next; the last ends with the run
            solves = [spans[k] for k in children[idx] if spans[k][0] == "mcfp.solve_mcfp"]
            marks = [s[1] for s in solves] + [end]
            tick_ms.extend(1e3 * np.diff(marks))
            tick_solve_s.extend(s[2] - s[1] for s in solves)

    reps = defaultdict(list)
    for run, counts in per_run.items():
        item, mark, _ = run.rpartition("#")
        if mark:
            reps[item].append(counts)
    per_pass = Counter()
    for runs in reps.values():
        for key in set().union(*runs):
            per_pass[key] += median(r.get(key, 0) for r in runs)

    solve_pct, solve_tail = tail(solve_ms)
    tick_pct, tick_tail = tail(tick_ms)
    lp_calls = per_pass["lp.solve.calls"]
    out = {
        "lp.solve.calls": lp_calls,
        "lp.solve.self_s": per_pass["lp.solve.self_s"],
        "lp.ipm_iters": per_pass["lp.ipm_iters"],
        "simplex.solve_simplex.calls": per_pass["simplex.solve_simplex.calls"],
        "simplex.solve_simplex.self_s": per_pass["simplex.solve_simplex.self_s"],
        "simplex.fallback_ratio": per_pass["simplex.solve_simplex.calls"] / lp_calls if lp_calls else 0.0,
        "mcfp.solve_mcfp.calls": per_pass["mcfp.solve_mcfp.calls"],
        "mcfp.solve_mcfp.ms_p50": float(np.median(solve_ms)) if solve_ms else 0.0,
        "mcfp.solve_mcfp.ms_tail": solve_tail,
        "mcfp.solve_mcfp.tail_pct": solve_pct,
        "mcfp.solve_mcfp.samples": len(solve_ms),
        "mcfp.solve_mcfp.self_s": per_pass["mcfp.solve_mcfp.self_s"],
        "mcfp.build_instance.self_s": per_pass["mcfp.build_instance.self_s"],
        "mcfp.build_lp.calls": per_pass["mcfp.build_lp.calls"],
        "mcfp.build_lp.self_s": per_pass["mcfp.build_lp.self_s"],
        "mcfp.verify_solution.self_s": per_pass["mcfp.verify_solution.self_s"],
        "mcfp.check_kkt.self_s": per_pass["mcfp.check_kkt.self_s"],
        "mcfp.lp_vars": float(np.mean(dims["vars"])) if dims["vars"] else 0.0,
        "mcfp.lp_rows": float(np.mean(dims["rows"])) if dims["rows"] else 0.0,
        "mcfp.lp_nnz": float(np.mean(dims["nnz"])) if dims["nnz"] else 0.0,
        "ascent.iterations": per_pass["ascent.iterations"],
        "ascent.self_s": per_pass["ascent.ascend.self_s"],
        "ascent.gradient_from_duals.self_s": per_pass["ascent.gradient_from_duals.self_s"],
        "dynamics.ticks": len(tick_ms),
        "dynamics.tick_ms_p50": float(np.median(tick_ms)) if tick_ms else 0.0,
        "dynamics.tick_ms_tail": tick_tail,
        "dynamics.tick_tail_pct": tick_pct,
        "dynamics.ticks_over_dt": (
            sum(s > dt for s in tick_solve_s) / len(tick_solve_s) if tick_solve_s else 0.0
        ),
        "dynamics.step_task.self_s": per_pass["dynamics.step_task.self_s"],
        "dynamics.step_relay.self_s": per_pass["dynamics.step_relay.self_s"],
        "dynamics.self_s": per_pass["dynamics.run_simulation.self_s"],
        "capacity.capacity_matrix.self_s": per_pass["capacity.capacity_matrix.self_s"],
        "capacity.gradient_factor_matrix.self_s": per_pass["capacity.gradient_factor_matrix.self_s"],
        "network.spawn_scenario.self_s": per_run["setup"]["network.spawn_scenario.self_s"],
    }
    for path in ("converged", "polished", "simplex", "other"):
        out[f"lp.path.{path}"] = per_pass[f"lp.path.{path}"]
    return {key: float(val) for key, val in out.items()}


def item_counts(spans: list) -> dict:
    """lp.solve and simplex calls in the first run of each item, the base of its fallback ratio."""
    counts = defaultdict(Counter)
    for name, _, _, _, run, _ in spans:
        item, _, rep = run.rpartition("#")
        if rep == "0" and name in ("lp.solve", "simplex.solve_simplex"):
            counts[item][name] += 1
    return {item: dict(c) for item, c in counts.items()}
