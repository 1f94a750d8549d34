"""The benchmark's workloads, their timed loop and their output checks.

Each workload is a fixed list of items built from the seed; one pass
over the list is the workload's fixed work.  The timed loop always
finishes the first pass, then repeats the items that still fit in the
time budget, and ``wall_s`` sums the median time of each item, so a
run that fits more repetitions reports the same quantity with less
noise.

Every solve goes through ``solve_mcfp``, which verifies it; a solve
that raises is counted as failed and its item is not repeated.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Optional

import numpy as np

import relayflow as rf

DT = 0.2  # tick of the mobile mission; sim_realtime_x counts every solve-and-step as one tick

# fixed small-team layouts, identical to the CLI presets; positions in km
FIXTURES = {
    "pair": ([[-1.0, 0.0], [1.0, 0.0]], [[0.3, 0.4]]),
    "square4": ([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]], [[0.6, 0.4], [1.5, 1.7]]),
    "outlier4": ([[0.0, 0.0], [0.8, 0.0], [0.0, 0.8], [3.2, 0.6]], [[0.5, 0.5], [1.4, 0.4]]),
}

# team5x4-ascent: the task layout of the CLI's team5x4 preset, relay starts drawn from the seed
TEAM_SPAWN_SEED = 0
TEAM_STARTS = 2
TEAM_ITERS = 30

# mobile-lockstep: the demos/mobile_team.py mission; motion seeds from the seed
MOBILE_SPAWN_SEED = 21
MOBILE_ACCESS_POINT = 0
MOBILE_MISSIONS = 12
MOBILE_DURATION = 20.0

# large-cold: the CLI's team25x10 preset.  The seed does not change it:
# other spawns of this size either stall the interior point for minutes
# or differ threefold in utility (see README.md).
LARGE_SPAWN_SEED = 0

# output checks
PHI_RTOL = 1e-6  # the solver's verification tolerance, relative to 1 + |phi|
POS_ATOL = 1e-4  # km, on final relay positions


@dataclass
class Outcome:
    """What one run of an item produced."""

    solves: int  # verified solves attempted
    failed: int  # solves (or missing inputs) that failed
    phi: Optional[float] = None  # contribution to the utility; None when the item has none
    sim_seconds: float = 0.0  # simulated time covered; 0 keeps the item out of sim_realtime_x
    solved: list = field(default_factory=list)  # (scenario, weights, phi) to cross-check with HiGHS
    record: dict = field(default_factory=dict)  # compared with reference.json on the default seed
    converged: Optional[bool] = None  # default-config ascents, which must converge, report it here


@dataclass
class Item:
    name: str
    run: Callable  # (opts) -> Outcome


@dataclass
class Workload:
    items: list
    combine: Callable  # utility from the items' phis


def _positions(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _ascent_outcome(scenario, weights, trace, must_converge) -> Outcome:
    last = trace.records[-1]
    return Outcome(
        solves=trace.iterations,
        failed=0,
        sim_seconds=trace.iterations * DT,
        phi=trace.final_phi,
        solved=[(scenario.with_relay_positions(last.relay_positions), weights, trace.final_phi)],
        record={"phi": trace.final_phi, "final_relay_positions": _positions(trace.final_relay_positions)},
        converged=trace.converged if must_converge else None,
    )


def _ascent_item(name, scenario, weights, config=None, must_converge=False) -> Item:
    def run(opts):
        try:
            trace = rf.ascend(scenario, weights, config, opts)
        except rf.AscentError as exc:
            done = exc.partial_trace.iterations if exc.partial_trace is not None else 0
            return Outcome(solves=done + 1, failed=1, phi=math.nan)
        return _ascent_outcome(scenario, weights, trace, must_converge)

    return Item(name, run)


def fixtures_converge(seed: int) -> Workload:
    """Default-config ascents to convergence; the layouts ignore the seed."""
    model = rf.CapacityModel()
    items = []
    for name, (tasks, relays) in FIXTURES.items():
        scenario = rf.Scenario(np.array(tasks), np.array(relays), model, rf.default_commodities(len(tasks)))
        weights = rf.weight_preset("adhoc", len(scenario.commodities))
        items.append(_ascent_item(name, scenario, weights, must_converge=True))
    return Workload(items, sum)


def team5x4_ascent(seed: int) -> Workload:
    """Fixed-iteration ascents of team5x4 from relay starts drawn from the seed."""
    base = rf.spawn_scenario(rf.ScenarioConfig(5, 4, rng_seed=TEAM_SPAWN_SEED))
    weights = rf.weight_preset("adhoc", len(base.commodities))
    side = rf.area_side(base.num_task)
    # tol must be positive; this one never stops the loop early
    config = rf.AscentConfig(max_iters=TEAM_ITERS, tol=1e-300)
    items = []
    for j in range(TEAM_STARTS):
        relays = np.random.default_rng([seed, j]).uniform(0.0, side, size=(base.num_relay, 2))
        items.append(_ascent_item(f"start{j}", base.with_relay_positions(relays), weights, config))
    return Workload(items, lambda phis: float(np.mean(phis)))


def mobile_lockstep(seed: int) -> Workload:
    """The mobile-team mission: one placement ascent, then lockstep runs.

    The placement is recomputed on every pass, exactly as
    ``run_simulation(..., pre_optimize=True)`` would, but timed apart
    from the missions.  Motion seeds for seed s are
    ``1 + s * MOBILE_MISSIONS + j``, so seed 0 starts with the demo's
    motion seed 1.
    """
    scenario = rf.spawn_scenario(rf.ScenarioConfig(5, 2, rng_seed=MOBILE_SPAWN_SEED))
    weights = rf.weight_preset(f"ap:{MOBILE_ACCESS_POINT}", len(scenario.commodities))
    placed = {}

    def place(opts):
        try:
            trace = rf.ascend(scenario, weights, None, opts)
        except rf.AscentError as exc:
            placed.pop("scenario", None)
            done = exc.partial_trace.iterations if exc.partial_trace is not None else 0
            return Outcome(solves=done + 1, failed=1)
        placed["scenario"] = scenario.with_relay_positions(trace.final_relay_positions)
        out = _ascent_outcome(scenario, weights, trace, must_converge=True)
        out.phi, out.sim_seconds = None, 0.0
        return out

    def mission(motion_seed):
        cfg = rf.MotionConfig(
            duration=MOBILE_DURATION, dt=DT, rng_seed=motion_seed, pinned_tasks=(MOBILE_ACCESS_POINT,)
        )

        def run(opts):
            start = placed.get("scenario")
            if start is None:
                return Outcome(solves=0, failed=1, phi=math.nan)
            try:
                timeline = rf.run_simulation(start, weights, cfg, pre_optimize=False, opts=opts)
            except rf.SimulationError as exc:
                done = exc.partial_timeline.num_snapshots if exc.partial_timeline is not None else 0
                return Outcome(solves=done + 1, failed=1, phi=math.nan)
            last = timeline.states[-1]
            end = rf.Scenario(last.task_positions, last.relay_positions, start.capacity_model, start.commodities)
            phis = timeline.phi_series()
            return Outcome(
                solves=timeline.num_snapshots,
                failed=0,
                phi=float(phis.mean()),
                sim_seconds=cfg.num_steps * cfg.dt,
                solved=[(end, weights, last.phi)],
                record={
                    "phi": float(phis.mean()),
                    "phi_series": phis.tolist(),
                    "final_relay_positions": _positions(last.relay_positions),
                },
            )

        return Item(f"motion{motion_seed}", run)

    first = 1 + seed * MOBILE_MISSIONS
    items = [Item("placement", place)]
    items += [mission(first + j) for j in range(MOBILE_MISSIONS)]
    return Workload(items, lambda phis: float(np.mean(phis)))


def large_cold(seed: int) -> Workload:
    """One cold verified solve of the team25x10 preset."""
    scenario = rf.spawn_scenario(rf.ScenarioConfig(25, 10, rng_seed=LARGE_SPAWN_SEED))
    weights = rf.weight_preset("adhoc", len(scenario.commodities))

    def run(opts):
        try:
            sol = rf.solve_mcfp(rf.build_instance(scenario, weights), opts)
        except rf.McfpSolveError:
            return Outcome(solves=1, failed=1, phi=math.nan)
        return Outcome(
            solves=1,
            failed=0,
            phi=sol.phi,
            sim_seconds=DT,
            solved=[(scenario, weights, sol.phi)],
            record={"phi": sol.phi},
        )

    return Workload([Item("team25x10", run)], lambda phis: float(phis[0]))


BY_NAME = {
    "fixtures-converge": fixtures_converge,
    "team5x4-ascent": team5x4_ascent,
    "mobile-lockstep": mobile_lockstep,
    "large-cold": large_cold,
}


def build(name: str, seed: int) -> Workload:
    return BY_NAME[name](seed)


@dataclass
class TimedRun:
    times: dict  # item name -> seconds of each successful repetition
    first: dict  # item name -> Outcome of its first run
    attempted: int
    failed: int
    peak_rss_mb: float


def run_timed(workload: Workload, seconds: float, opts=None, tracer=None) -> TimedRun:
    """Run one full pass over the items, then repeat what fits in ``seconds``.

    After the first pass an item is started again only if its last
    run, added to the time spent so far, stays within ``seconds``; the
    loop ends when no item fits.  A failed item is not repeated.
    ``tracer.run`` labels the spans of each item run.
    """
    times = {item.name: [] for item in workload.items}
    last = {}  # item name -> seconds of its latest run
    first, dead = {}, set()
    attempted = failed = 0
    start = time.perf_counter()
    rep = 0
    while True:
        ran = False
        for item in workload.items:
            if item.name in dead:
                continue
            if rep and time.perf_counter() - start + last[item.name] > seconds:
                continue
            ran = True
            if tracer is not None:
                tracer.run = f"{item.name}#{rep}"
            t0 = time.perf_counter()
            out = item.run(opts)
            elapsed = time.perf_counter() - t0
            last[item.name] = elapsed
            attempted += out.solves
            failed += out.failed
            first.setdefault(item.name, out)
            if out.failed:
                dead.add(item.name)
            else:
                times[item.name].append(elapsed)
        if not ran:
            return _finish(times, first, attempted, failed, tracer)
        rep += 1


def _finish(times, first, attempted, failed, tracer) -> TimedRun:
    if tracer is not None:
        tracer.run = "checks"
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kilobytes on Linux
    return TimedRun(times, first, attempted, failed, rss_kb / 1024.0)


def summarize(workload: Workload, run: TimedRun) -> dict:
    """End-to-end figures of a timed run (setup_s is added by the caller)."""
    med = {name: median(ts) for name, ts in run.times.items() if ts}
    complete = len(med) == len(workload.items)
    sim_items = [name for name, out in run.first.items() if out.sim_seconds > 0 and name in med]
    sim_wall = sum(med[name] for name in sim_items)
    phis = [out.phi for out in run.first.values() if out.phi is not None]
    utility = float(workload.combine(phis)) if phis else math.nan
    return {
        "wall_s": sum(med.values()) if complete else math.nan,
        "utility": utility,
        "sim_realtime_x": (
            sum(run.first[name].sim_seconds for name in sim_items) / sim_wall if complete and sim_wall else math.nan
        ),
        "peak_rss_mb": run.peak_rss_mb,
        "item_median_s": med,
        "item_samples": {name: len(ts) for name, ts in run.times.items()},
    }


def outputs(workload: Workload, run: TimedRun, utility: float) -> dict:
    """The values compared with reference.json."""
    return {
        "utility": utility,
        "items": {item.name: run.first[item.name].record for item in workload.items if item.name in run.first},
    }


def _close(value, ref, rtol=None, atol=None) -> bool:
    a = np.asarray(value, dtype=float)
    b = np.asarray(ref, dtype=float)
    if a.shape != b.shape or not np.all(np.isfinite(a)):
        return False
    tol = atol if atol is not None else rtol * (1.0 + np.abs(b))
    return bool(np.all(np.abs(a - b) <= tol))


def compare_reference(found: dict, ref: dict) -> list:
    """(check name, passed) for every value the reference records."""
    checks = [("reference.utility", _close(found.get("utility", math.nan), ref["utility"], rtol=PHI_RTOL))]
    for name, ref_rec in ref["items"].items():
        rec = found["items"].get(name, {})
        for key, ref_val in ref_rec.items():
            if key not in rec:
                checks.append((f"reference.{name}.{key}", False))
            elif key == "final_relay_positions":
                checks.append((f"reference.{name}.{key}", _close(rec[key], ref_val, atol=POS_ATOL)))
            else:
                checks.append((f"reference.{name}.{key}", _close(rec[key], ref_val, rtol=PHI_RTOL)))
    return checks


def highs_checks(run: TimedRun) -> list:
    """Re-solve every final solved configuration with HiGHS and compare phi."""
    checks = []
    for name, out in run.first.items():
        for k, (scenario, weights, phi) in enumerate(out.solved):
            lp, _ = rf.build_lp(rf.build_instance(scenario, weights))
            res = rf.scipy_linprog_solve(lp)
            ok = res.optimal and abs(res.objective - phi) <= PHI_RTOL * (1.0 + abs(res.objective))
            checks.append((f"highs.{name}.{k}", bool(ok)))
    return checks


def invariant_checks(workload: Workload, run: TimedRun) -> list:
    checks = [(f"ran.{item.name}", bool(run.times[item.name])) for item in workload.items]
    checks += [
        (f"converged.{name}", bool(out.converged))
        for name, out in run.first.items()
        if out.converged is not None
    ]
    return checks


def evaluate(workload: Workload, seconds: float, opts=None, tracer=None, reference=None) -> dict:
    """Timed run plus output checks; every failure is counted, none raises.

    The HiGHS cross-check runs on untraced runs only, after the timed
    region.  ``reference`` is the workload's entry of reference.json
    when the seed is the default one, else None.
    """
    run = run_timed(workload, seconds, opts, tracer)
    summary = summarize(workload, run)
    found = outputs(workload, run, summary["utility"])
    checks = invariant_checks(workload, run)
    if tracer is None:
        checks += highs_checks(run)
    if reference is not None:
        checks += compare_reference(found, reference)
    attempted = run.attempted + len(checks)
    failed = run.failed + sum(not ok for _, ok in checks)
    return {
        **summary,
        "outputs": found,
        "checks": dict(checks),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
    }
