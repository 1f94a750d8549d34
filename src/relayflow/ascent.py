"""Shadow-price ascent over relay positions.

Each round solves the flow problem at the current configuration, reads
the capacity-row shadow prices, and assembles a climb direction for
every relay: edges whose capacity the optimum is straining pull the
relay along the capacity gradient of that edge.  Relays step along the
direction with a geometrically decaying step size until the utility
stops changing.

The direction for relay i is

    sum_j (mu[i, j] + mu[j, i]) * grad_{x_i} rate(x_i, x_j)

which is a direction of local increase of the team utility because the
duals measure the sensitivity of the optimal value to each capacity
bound.  At configurations where the optimal duals are not unique, which
duals the formula sees depends on how the solve ended: the interior
point's converged exit returns centered duals, while a solve that
stalls into the simplex endgame returns the duals of an optimal vertex.
On the benchmark's seed-0 fixture ascents the simplex finishes 128 of
892 solves, 125 of them on ``square4``.  The flow LP of every team of
more than six agents is re-solved warm on the ascent's own engine (see
:mod:`relayflow.lp`), whose duals are of the optimal vertex the re-solve
ends at, which can differ from the vertex a cold solve finds.  Either
way the direction need not be the steepest one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .capacity import gradient_factor_matrix
from .lp import SolverOptions, run_options
from .mcfp import FlowSolution, McfpSolveError, build_instance, solve_mcfp
from .network import Scenario, validate_weights

# step halvings tried per iteration when backtracking
_MAX_HALVINGS = 20


@dataclass(frozen=True)
class AscentConfig:
    """Step schedule and stopping rule for the ascent loop.

    ``backtracking`` is off by default, matching the plain fixed
    schedule; switching it on halves the step until the utility does
    not decrease (at most 20 times), which makes the recorded utility
    nondecreasing.
    """

    alpha0: float = 0.4
    decay: float = 0.97
    tol: float = 1e-5
    max_iters: int = 500
    backtracking: bool = False

    def __post_init__(self) -> None:
        for name in ("alpha0", "tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must lie in (0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class AscentRecord:
    # declaration order is the key order of trace.json records; construct by keyword
    iteration: int
    phi: float
    alpha: float  # step size applied after this solve
    relay_positions: np.ndarray  # positions the solve was run at
    gradient: np.ndarray


def _xy_header(agent: str, positions: np.ndarray) -> list[str]:
    """CSV column names ``<agent><i>_x, <agent><i>_y`` of an (n, 2) position array."""
    return [f"{agent}{i}_{axis}" for i in range(len(positions)) for axis in "xy"]


def _xy_cells(positions: np.ndarray) -> list[str]:
    """CSV cells of an (n, 2) position array, in the order of :func:`_xy_header`."""
    return [repr(float(v)) for v in positions.ravel()]


def _record_json(record) -> dict:
    """A record's fields in declaration order, arrays as nested lists."""
    values = ((f.name, getattr(record, f.name)) for f in fields(record))
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values}


class _RunLog:
    """Per-step log of an ascent or a simulation, written as CSV and JSON."""

    def save(self, csv_path=None, json_path=None) -> None:
        if csv_path is not None:
            Path(csv_path).write_text(self.to_csv(), encoding="utf-8")
        if json_path is not None:
            text = json.dumps(self.to_json_dict(), indent=2) + "\n"
            Path(json_path).write_text(text, encoding="utf-8")


@dataclass
class AscentTrace(_RunLog):
    records: list
    final_relay_positions: np.ndarray
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def initial_phi(self) -> float:
        return self.records[0].phi

    @property
    def final_phi(self) -> float:
        return self.records[-1].phi

    def phi_series(self) -> np.ndarray:
        return np.array([rec.phi for rec in self.records])

    def to_csv(self) -> str:
        cols = ["iteration", "phi", "alpha", *_xy_header("relay", self.final_relay_positions)]
        rows = [
            [str(rec.iteration), repr(rec.phi), repr(rec.alpha), *_xy_cells(rec.relay_positions)]
            for rec in self.records
        ]
        return "\n".join(map(",".join, [cols, *rows])) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "final_relay_positions": self.final_relay_positions.tolist(),
            "records": [_record_json(rec) for rec in self.records],
        }


class AscentError(RuntimeError):
    """Solver failure mid-ascent; carries the trace gathered so far."""

    def __init__(self, message: str, partial_trace: Optional[AscentTrace] = None):
        super().__init__(message)
        self.partial_trace = partial_trace


def gradient_from_duals(sol: FlowSolution, scenario: Scenario) -> np.ndarray:
    """Climb direction per relay from the capacity shadow prices."""
    pts = scenario.positions()
    factors = gradient_factor_matrix(scenario.capacity_model, pts)
    weights = (sol.mu + sol.mu.T) * factors
    diff = pts[:, None, :] - pts[None, :, :]
    directions = np.einsum("ij,ijd->id", weights, diff)
    return directions[scenario.num_task :]


def team_utility(
    scenario: Scenario, weights, opts: Optional[SolverOptions] = None
) -> float:
    """Optimal flow utility of a configuration (one solve)."""
    return solve_mcfp(build_instance(scenario, weights), opts).phi


def finite_difference_phi(
    scenario: Scenario,
    weights,
    h: float = 1e-4,
    opts: Optional[SolverOptions] = None,
) -> np.ndarray:
    """Central-difference estimate of the utility gradient per relay.

    Costs two solves per relay coordinate; serves as the independent
    check of :func:`gradient_from_duals`.  Without an engine in ``opts``,
    the solves share a :class:`relayflow.lp.WarmEngine` of their own.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and positive, got {h}")
    w = validate_weights(weights, len(scenario.commodities))
    opts = run_options(opts)
    out = np.zeros_like(scenario.relay_positions)
    for rel in range(scenario.num_relay):
        for dim in range(2):
            for sign in (1.0, -1.0):
                bumped = scenario.relay_positions.copy()
                bumped[rel, dim] += sign * h
                out[rel, dim] += sign * team_utility(
                    scenario.with_relay_positions(bumped), w, opts
                )
    return out / (2.0 * h)


def ascend(
    scenario: Scenario,
    weights,
    config: Optional[AscentConfig] = None,
    opts: Optional[SolverOptions] = None,
) -> AscentTrace:
    """Run the ascent loop and return the per-iteration trace.

    Task positions never move.  Every iteration records the utility and
    the configuration it was evaluated at, then steps the relays, so
    the last recorded utility belongs to the configuration just before
    the final step.  The loop stops when the utility change between
    consecutive solves drops below ``config.tol``, or at
    ``config.max_iters``.  Without an engine in ``opts``, the ascent
    solves with a :class:`relayflow.lp.WarmEngine` of its own.
    """
    cfg = config if config is not None else AscentConfig()
    w = validate_weights(weights, len(scenario.commodities))
    opts = run_options(opts)

    relay_pos = scenario.relay_positions.copy()
    records: list[AscentRecord] = []
    alpha = cfg.alpha0
    phi_prev = -np.inf
    delta_phi = np.inf
    cached_sol: Optional[FlowSolution] = None

    while abs(delta_phi) >= cfg.tol and len(records) < cfg.max_iters:
        iteration = len(records)
        current = scenario.with_relay_positions(relay_pos)
        try:
            sol = cached_sol if cached_sol is not None else solve_mcfp(
                build_instance(current, w), opts
            )
            cached_sol = None
            direction = gradient_from_duals(sol, current)
            records.append(
                AscentRecord(
                    iteration=iteration,
                    phi=sol.phi,
                    alpha=alpha,
                    relay_positions=relay_pos.copy(),
                    gradient=direction.copy(),
                )
            )
            if cfg.backtracking:
                step = alpha
                for _ in range(_MAX_HALVINGS + 1):
                    candidate = relay_pos + step * direction
                    trial_sol = solve_mcfp(
                        build_instance(scenario.with_relay_positions(candidate), w), opts
                    )
                    if trial_sol.phi >= sol.phi:
                        relay_pos, cached_sol = candidate, trial_sol
                        break
                    step *= 0.5
                else:  # no improving step found: stay put, the loop will stop
                    cached_sol = sol
            else:
                relay_pos = relay_pos + alpha * direction
        except McfpSolveError as exc:
            trace = AscentTrace(records, relay_pos.copy(), converged=False)
            raise AscentError(f"solve failed at iteration {iteration}: {exc}", trace) from exc

        delta_phi = sol.phi - phi_prev
        phi_prev = sol.phi
        alpha *= cfg.decay

    return AscentTrace(
        records=records,
        final_relay_positions=relay_pos,
        converged=abs(delta_phi) < cfg.tol,
    )
