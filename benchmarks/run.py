"""Run one relayflow benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload fixtures-converge --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  The parent process never imports relayflow, and
numpy only after its children have ended, to record the environment.
It starts set-up-only child processes before and after one untraced
child that runs the workload for ``--seconds`` and checks its outputs;
the median of all their set-up times is ``setup_s``.  With
``--trace 1`` a second, traced child follows and the printed metrics
are the per-layer ones.  Human-readable lines come first; the last
line of standard output is one JSON object.  A full record, with the
environment, goes to ``benchmarks/out/``.

Exit codes: 0 success, 1 failed output check or child failure, 2
unusable checkout or arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spec

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "benchmarks" / "out"
REFERENCE = ROOT / "benchmarks" / "reference.json"  # outputs of seed 0, recorded at the commit that added the benchmark
# set-up-only children before and after the untraced child, which adds one
# more sample; spreading them over the run keeps one slow stretch of the
# host from moving the median
SETUP_BEFORE, SETUP_AFTER = 3, 2
DEADLINE_S = 170.0  # every child must end within this many seconds of the start


def _clock() -> float:
    # system-wide, so a child can measure from the moment its parent spawned it
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: child processes
    p.add_argument("--phase", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    p.add_argument("--spans", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    return args


# ---------------------------------------------------------------------------
# child process
# ---------------------------------------------------------------------------


def _child(args) -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import relayflow

    if not Path(relayflow.__file__).resolve().is_relative_to(src):
        print(f"relayflow imported from {relayflow.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.spans else None
    if tracer is not None:
        with tracing.patched(tracer):
            return _measure(args, workloads, tracer, tracing)
    return _measure(args, workloads, None, tracing)


def _measure(args, workloads, tracer, tracing) -> int:
    workload = workloads.build(args.workload, args.seed)
    setup_s = _clock() - args.spawned_at
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = None
    if args.seed == 0 and tracer is None:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    record = {"setup_s": setup_s, **workloads.evaluate(workload, args.seconds, tracer=tracer, reference=reference)}
    if tracer is not None:
        record["per_layer"] = tracing.layer_metrics(tracer.spans, workloads.DT)
        record["per_item"] = tracing.item_counts(tracer.spans)
        record["missing_bindings"] = tracer.missing
        Path(args.spans).write_text(json.dumps(tracer.to_json()))
    print(json.dumps(_finite(record)))
    return 0


def _finite(obj):
    """JSON has no NaN: non-finite numbers become null."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# parent process
# ---------------------------------------------------------------------------


class ChildError(RuntimeError):
    pass


def _spawn(args, phase, deadline, spans=None) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--phase", phase,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - _clock()
    if timeout <= 0:
        raise ChildError("time limit reached before the child started")
    cmd += ["--spawned-at", repr(_clock())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildError(f"{phase} child exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{phase} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: deps.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 only prints its configuration
        blas = {"name": "unknown"}
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _line(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"{name:40s} {shown:>14s} {unit}{'  ' + note if note else ''}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "relayflow" / "__init__.py").is_file():
        print(f"no relayflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.phase is not None:
        return _child(args)

    deadline = _clock() + DEADLINE_S
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    spans_path = OUT_DIR / f"spans_{stem}.json"
    try:
        setups = [_spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_BEFORE)]
        plain = _spawn(args, "measure", deadline)
        setups += [_spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_AFTER)]
        traced = _spawn(args, "measure", deadline, spans=spans_path) if args.trace else None
    except (ChildError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    setups.append(plain["setup_s"])
    attempted, failed = plain["attempted"], plain["failed"]
    checks = dict(plain["checks"])
    end_to_end = {
        "setup_s": median(setups),
        "wall_s": plain["wall_s"],
        "utility": plain["utility"],
        "sim_realtime_x": plain["sim_realtime_x"],
        "peak_rss_mb": plain["peak_rss_mb"],
        "verified_ratio": 1.0 - failed / attempted,
    }
    per_layer = None
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        checks.update({f"traced.{k}": v for k, v in traced["checks"].items()})
        # the tolerance of the reference check, workloads.PHI_RTOL
        same = plain["utility"] is not None and traced["utility"] is not None and (
            abs(traced["utility"] - plain["utility"]) <= 1e-6 * (1.0 + abs(plain["utility"]))
        )
        checks["traced.utility_matches_untraced"] = same
        attempted += 1
        failed += not same
        per_layer = dict(traced["per_layer"])
        per_layer["trace.overhead_ratio"] = (
            traced["wall_s"] / plain["wall_s"] if traced["wall_s"] and plain["wall_s"] else None
        )
    correct = failed == 0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "setup_samples_s": setups,
        "untraced": plain,
        "traced": traced,
        "environment": _environment(),
    }
    out_path = OUT_DIR / f"BENCH_{stem}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"relayflow benchmark: {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, out in plain["outputs"]["items"].items():
        if "phi" in out:
            _line(f"phi[{name}]", out["phi"], "phi")
    for name, n in plain["item_samples"].items():
        _line(f"samples[{name}]", n, "count")
    _line("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} solves and checks")
    for name, unit in spec.END_TO_END.items():
        _line(name, end_to_end[name], unit)
    if per_layer is not None:
        for name, unit in spec.PER_LAYER.items():
            _line(name, per_layer[name], unit)
        print(
            f"simplex fallback: {per_layer['simplex.solve_simplex.calls']:.0f} of "
            f"{per_layer['lp.solve.calls']:.0f} lp.solve calls per pass; solve tail is "
            f"p{per_layer['mcfp.solve_mcfp.tail_pct']:g} of {per_layer['mcfp.solve_mcfp.samples']:.0f} samples"
        )
        for item, counts in traced["per_item"].items():
            print(
                f"  {item}: {counts.get('simplex.solve_simplex', 0)} simplex fallbacks "
                f"in {counts.get('lp.solve', 0)} lp.solve calls"
            )
    for name, ok in checks.items():
        if not ok:
            print(f"CHECK FAILED: {name}")
    print(f"record: {out_path.relative_to(ROOT)}")

    shown = spec.PER_LAYER if args.trace else spec.END_TO_END
    source = per_layer if args.trace else end_to_end
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in shown.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
