"""Command line entry point for reproducible experiments.

Subcommands: ``spawn`` (write a scenario file), ``solve`` (one flow
solve with verification), ``ascend`` (static relay placement),
``simulate`` (mobile team run), ``bench`` (solver timing over team
sizes), ``gradcheck`` (dual gradient vs finite differences).  Every
command writes a ``manifest.json`` capturing the configuration, seeds
and timings needed to replay the run.

Exit codes, the same for every command: 0 success, 2 input error, 3
solver failure, 4 verification failure, 5 gradient check failure.
Commands raise their failures; :func:`main` maps each to its code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ascent import AscentConfig, AscentError, ascend, finite_difference_phi, gradient_from_duals
from .capacity import CapacityModel
from .dynamics import MotionConfig, SimulationError, run_simulation
from .lp import blas_thread_controls
from .mcfp import (
    McfpSolveError,
    build_instance,
    flow_solution_to_dict,
    solve_mcfp,
    verify_solution,
)
from .network import (
    Scenario,
    ScenarioConfig,
    default_commodities,
    load_scenario,
    save_scenario,
    spawn_scenario,
    weight_preset,
)
from .svg import save_line_chart

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_GRADCHECK = 5

# fixed small-team layouts for quick starts; positions in km
_LAYOUTS = {
    "pair": (np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([[0.3, 0.4]])),
    "square4": (
        np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]),
        np.array([[0.6, 0.4], [1.5, 1.7]]),
    ),
    "outlier4": (
        np.array([[0.0, 0.0], [0.8, 0.0], [0.0, 0.8], [3.2, 0.6]]),
        np.array([[0.5, 0.5], [1.4, 0.4]]),
    ),
}
_SPAWNED_PRESETS = {"team5x4": (5, 4), "team25x10": (25, 10)}
# gradcheck skips a configuration as degenerate when a 1e-7 km nudge of the
# relays moves a shadow price by more than this share of the largest one
_STABLE_MU_RTOL = 1e-3


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace, outputs, timings):
    manifest = {
        "command": command,
        "argv": args.argv,
        "parameters": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func", "argv")
        },
        "outputs": outputs,
        "version": __version__,
        "deterministic": True,  # constant; kept for readers of older manifests
        "blas_pinned": [ctl.name for ctl in blas_thread_controls()],
        "timings_s": timings,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, default=str) + "\n", encoding="utf-8"
    )


def _out_dir(args) -> Path:
    """Create ``--out``; each command calls this only once its inputs are
    accepted, so a rejected command line leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_inputs(args):
    scenario, file_weights = load_scenario(args.scenario)
    if args.weights is not None:
        weights = weight_preset(args.weights, len(scenario.commodities))
    else:
        weights = file_weights
    return scenario, weights


def cmd_spawn(args) -> int:
    if args.preset in _LAYOUTS:
        tasks, relays = _LAYOUTS[args.preset]
        scenario = Scenario(tasks, relays, CapacityModel(), default_commodities(len(tasks)))
    elif args.preset is not None and args.preset not in _SPAWNED_PRESETS:
        raise ValueError(f"unknown preset {args.preset!r}")
    else:
        default = (args.num_task, args.num_relay)
        num_task, num_relay = _SPAWNED_PRESETS.get(args.preset, default)
        scenario = spawn_scenario(ScenarioConfig(num_task, num_relay, args.density, args.seed))
    weights = weight_preset(args.weights or "adhoc", len(scenario.commodities))
    out = _out_dir(args)
    path = out / "scenario.json"
    save_scenario(path, scenario, weights)
    _write_manifest(out, "spawn", args, {"scenario": str(path)}, {})
    print(f"wrote {path} ({scenario.num_task} task, {scenario.num_relay} relay agents)")
    return EXIT_OK


def cmd_solve(args) -> int:
    scenario, weights = _load_inputs(args)
    inst = build_instance(scenario, weights)
    t0 = time.perf_counter()
    sol = solve_mcfp(inst)
    solve_s = time.perf_counter() - t0
    report = verify_solution(inst, sol)

    out = _out_dir(args)
    sol_path = out / "solution.json"
    sol_path.write_text(json.dumps(flow_solution_to_dict(sol), indent=2) + "\n", encoding="utf-8")
    lines = [
        f"utility: {sol.phi!r}",
        f"status: {sol.status}",
        f"relative duality gap: {sol.gap:.3e}",
        f"primal residual: {report.primal_residual:.3e}",
        f"dual residual: {report.dual_residual:.3e}",
        f"capacity complementarity: {report.complementarity:.3e}",
        f"largest price on a slack link: {report.slack_mu_max:.3e}",
        f"verification: {'PASS' if report.passed else 'FAIL'} (tol {report.tol:.1e})",
    ]
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    _write_manifest(
        out, "solve", args,
        {"solution": str(sol_path), "report": str(out / "report.txt")},
        {"solve": solve_s},
    )
    return EXIT_OK


def cmd_ascend(args) -> int:
    scenario, weights = _load_inputs(args)
    cfg = AscentConfig(
        alpha0=args.alpha,
        decay=args.decay,
        tol=args.tol,
        max_iters=args.max_iters,
        backtracking=args.backtracking,
    )
    t0 = time.perf_counter()
    try:
        trace = ascend(scenario, weights, cfg)
        failure = None
    except AscentError as exc:  # written below; main reports the failure
        trace, failure = exc.partial_trace, exc
    run_s = time.perf_counter() - t0

    out = _out_dir(args)
    outputs = {}
    if trace is not None and trace.records:
        trace.save(csv_path=out / "trace.csv", json_path=out / "trace.json")
        outputs = {"trace_csv": str(out / "trace.csv"), "trace_json": str(out / "trace.json")}
        final = scenario.with_relay_positions(trace.final_relay_positions)
        save_scenario(out / "final_scenario.json", final, weights)
        outputs["final_scenario"] = str(out / "final_scenario.json")
        if args.svg:
            save_line_chart(
                out / "utility.svg",
                [rec.iteration for rec in trace.records],
                [rec.phi for rec in trace.records],
                title="team utility per refinement iteration",
                x_label="iteration",
                y_label="utility",
            )
            outputs["svg"] = str(out / "utility.svg")
        print(
            f"iterations: {trace.iterations}  utility: {trace.initial_phi:.6f} -> "
            f"{trace.final_phi:.6f}  converged: {trace.converged}"
        )
    _write_manifest(out, "ascend", args, outputs, {"run": run_s})
    if failure is not None:
        raise failure
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario, weights = _load_inputs(args)
    cfg = MotionConfig(
        dt=args.dt,
        accel_std=args.accel_std,
        v_max=args.vmax,
        box_size=args.box,
        duration=args.duration,
        rng_seed=args.seed,
        pinned_tasks=tuple(args.pin_task or ()),
    )
    t0 = time.perf_counter()
    try:
        timeline = run_simulation(scenario, weights, cfg, pre_optimize=not args.no_pre_optimize)
        failure = None
    except (SimulationError, AscentError) as exc:  # written below; main reports the failure
        timeline, failure = getattr(exc, "partial_timeline", None), exc
    run_s = time.perf_counter() - t0

    out = _out_dir(args)
    outputs = {}
    if timeline is not None and timeline.states:
        timeline.save(csv_path=out / "timeline.csv", json_path=out / "timeline.json")
        outputs = {
            "timeline_csv": str(out / "timeline.csv"),
            "timeline_json": str(out / "timeline.json"),
        }
        if args.svg:
            save_line_chart(
                out / "utility.svg",
                timeline.times(),
                timeline.phi_series(),
                title="team utility over time",
                x_label="time (s)",
                y_label="utility",
            )
            outputs["svg"] = str(out / "utility.svg")
        print(f"snapshots: {timeline.num_snapshots}  final utility: {timeline.states[-1].phi:.6f}")
    _write_manifest(out, "simulate", args, outputs, {"run": run_s})
    if failure is not None:
        raise failure
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse sizes {args.sizes!r}") from None
    if not sizes or args.repeats < 1:
        raise ValueError("need at least one size and one repeat")

    rows = []
    for num_task in sizes:
        num_relay = num_task // 2
        samples = []
        for rep in range(args.repeats):
            cfg = ScenarioConfig(num_task, num_relay, rng_seed=args.seed + rep)
            scenario = spawn_scenario(cfg)
            weights = np.ones(len(scenario.commodities))
            inst = build_instance(scenario, weights)
            t0 = time.perf_counter()
            solve_mcfp(inst)
            samples.append(time.perf_counter() - t0)
        samples = np.asarray(samples)
        mean_s = float(samples.mean())
        std_s = float(samples.std(ddof=1)) if len(samples) > 1 else 0.0
        rows.append((num_task, mean_s, std_s))
        print(f"size {num_task:3d}: {mean_s:.4f} s +- {std_s:.4f} s over {args.repeats} solves")

    out = _out_dir(args)
    csv_path = out / "bench.csv"
    lines = ["size,mean_s,std_s"] + [f"{a},{m!r},{s!r}" for a, m, s in rows]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(out, "bench", args, {"bench_csv": str(csv_path)}, {})
    return EXIT_OK


def _stable_solution(scenario, weights):
    """Solve at ``scenario``; None if nudging the relays moves the shadow prices."""
    base = solve_mcfp(build_instance(scenario, weights))
    rng = np.random.default_rng(0)
    nudged = scenario.with_relay_positions(
        scenario.relay_positions + rng.normal(0.0, 1e-7, scenario.relay_positions.shape)
    )
    other = solve_mcfp(build_instance(nudged, weights))
    scale = 1.0 + float(np.max(np.abs(base.mu)))
    return base if float(np.max(np.abs(base.mu - other.mu))) <= _STABLE_MU_RTOL * scale else None


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ValueError("need at least one trial")
    for flag, value in (("--h", args.h), ("--threshold", args.threshold)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and positive, got {value!r}")
    scenario, weights = _load_inputs(args)
    if scenario.num_relay == 0:
        raise ValueError("scenario has no relay agents to differentiate")

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    skipped = 0
    checked = 0
    for _ in range(args.trials):
        offset = rng.normal(0.0, 0.15, scenario.relay_positions.shape)
        candidate = scenario.with_relay_positions(scenario.relay_positions + offset)
        sol = _stable_solution(candidate, weights)
        if sol is None:
            skipped += 1
            continue
        g_dual = gradient_from_duals(sol, candidate)
        g_fd = finite_difference_phi(candidate, weights, h=args.h)
        denom = max(float(np.max(np.abs(g_fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(g_dual - g_fd))) / denom)
        checked += 1

    lines = [
        f"configurations checked: {checked}",
        f"configurations skipped as degenerate: {skipped}",
        f"max relative error: {worst:.3e}",
        f"threshold: {args.threshold:.1e}",
        f"result: {'PASS' if worst <= args.threshold and checked else 'FAIL'}",
    ]
    out = _out_dir(args)
    (out / "gradcheck.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    _write_manifest(out, "gradcheck", args, {"report": str(out / "gradcheck.txt")}, {})
    return EXIT_OK if (worst <= args.threshold and checked) else EXIT_GRADCHECK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relayflow",
        description="relay placement by shadow-price ascent on flow utilities",
    )
    parser.add_argument("--version", action="version", version=f"relayflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--scenario", required=True)
    inputs.add_argument("--weights", help="adhoc | ap:<j> | subset:<i,j,...> (default: file weights)")

    p = sub.add_parser("spawn", help="write a scenario JSON file")
    p.add_argument("--num-task", type=int, default=5)
    p.add_argument("--num-relay", type=int, default=2)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", help=f"named layout: {', '.join([*_LAYOUTS, *_SPAWNED_PRESETS])}")
    p.add_argument("--weights", help="weight preset stored in the file (default adhoc)")
    p.set_defaults(func=cmd_spawn)

    p = sub.add_parser("solve", parents=[inputs], help="solve one flow problem and verify it")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("ascend", parents=[inputs], help="optimize relay positions for a static team")
    p.add_argument("--alpha", type=float, default=0.4)
    p.add_argument("--decay", type=float, default=0.97)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--backtracking", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_ascend)

    p = sub.add_parser("simulate", parents=[inputs], help="run the mobile-team simulation")
    p.add_argument("--dt", type=float, default=0.2)
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument("--vmax", type=float, default=0.09)
    p.add_argument("--accel-std", type=float, default=0.01)
    p.add_argument("--box", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pin-task", type=int, action="append", help="task index held fixed (repeatable)")
    p.add_argument("--no-pre-optimize", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="time the flow solver across team sizes")
    p.add_argument("--sizes", default="2,5,10")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", parents=[inputs], help="compare dual gradients to finite differences")
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    for p in sub.choices.values():
        p.add_argument("--out", required=True)
    return parser


def _solver_failure_code(exc: Exception) -> int:
    """4 when the engine returned a point that failed verification, 3 when it
    reached no optimum; an ascent or a simulation failure carries the
    flow-solve failure as its cause."""
    solve_error = exc if isinstance(exc, McfpSolveError) else exc.__cause__
    return EXIT_VERIFY if getattr(solve_error, "report", None) is not None else EXIT_SOLVER


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code) if exc.code is not None else EXIT_INPUT
    args.argv = sys.argv[1:] if argv is None else list(argv)  # for the manifest
    try:
        return args.func(args)
    except ValueError as exc:  # includes ScenarioFormatError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (McfpSolveError, AscentError, SimulationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return _solver_failure_code(exc)


if __name__ == "__main__":
    sys.exit(main())
