"""Mobile-team simulation: drifting task agents, chasing relay agents.

Task agents follow a random-acceleration model inside a square box,
bouncing off its walls; relay agents chase the shadow-price climb
direction under a hard speed cap.  The simulation runs in lockstep:
every tick solves the flow problem at the tick's exact snapshot before
anything moves, so a run is fully reproducible from its seed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ascent import _record_json, _RunLog, _xy_cells, _xy_header, ascend, gradient_from_duals
from .lp import SolverOptions, run_options
from .mcfp import McfpSolveError, build_instance, solve_mcfp
from .network import Scenario, area_side, validate_weights


@dataclass(frozen=True)
class MotionConfig:
    """Random-acceleration motion parameters.

    ``accel_std`` is the acceleration noise level ``a`` in km/s^2, read
    as the per-component variance of the sampled acceleration
    (components drawn from N(0, a), standard deviation sqrt(a)).
    ``v_max`` caps relay speed in km/s.
    ``box_size`` is the side of the navigation square for task agents;
    when omitted it defaults to the spawn-area rule sqrt(num_task).
    ``pinned_tasks`` lists task agents that do not move at all, such as
    a fixed access point.
    """

    dt: float = 0.2
    accel_std: float = 0.01
    v_max: float = 0.09
    box_size: Optional[float] = None
    duration: float = 20.0
    rng_seed: int = 0
    pinned_tasks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("dt", "accel_std", "v_max", "box_size", "duration"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        for name in ("v_max", "accel_std", "duration"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.box_size is not None and self.box_size <= 0:
            raise ValueError("box_size must be positive")
        if any(operator.index(index) < 0 for index in self.pinned_tasks):
            raise ValueError("pinned task indices cannot be negative")

    @property
    def accel_sigma(self) -> float:
        return float(np.sqrt(self.accel_std))

    @property
    def num_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass(frozen=True)
class SimState:
    # declaration order is the key order of timeline.json snapshots; construct by keyword
    time: float
    phi: float
    task_positions: np.ndarray
    task_velocities: np.ndarray
    relay_positions: np.ndarray
    directions: np.ndarray


@dataclass
class SimTimeline(_RunLog):
    states: list
    box_side: float

    @property
    def num_snapshots(self) -> int:
        return len(self.states)

    def phi_series(self) -> np.ndarray:
        return np.array([st.phi for st in self.states])

    def times(self) -> np.ndarray:
        return np.array([st.time for st in self.states])

    def to_csv(self) -> str:
        cols = ["tick", "time_s", "phi"]
        if self.states:
            first = self.states[0]
            cols += _xy_header("task", first.task_positions)
            cols += _xy_header("relay", first.relay_positions)
        rows = [
            [str(tick), repr(st.time), repr(st.phi), *_xy_cells(st.task_positions),
             *_xy_cells(st.relay_positions)]
            for tick, st in enumerate(self.states)
        ]
        return "\n".join(map(",".join, [cols, *rows])) + "\n"

    def to_json_dict(self) -> dict:
        return {
            # constant keys, kept so readers of older timeline files
            # need no change
            "mode": "lockstep",
            "deterministic": True,
            "box_side": self.box_side,
            "snapshots": [_record_json(st) for st in self.states],
        }


class SimulationError(RuntimeError):
    """Solver failure mid-run; carries the timeline gathered so far."""

    def __init__(self, message: str, partial_timeline: Optional[SimTimeline] = None):
        super().__init__(message)
        self.partial_timeline = partial_timeline


def step_task(
    positions: np.ndarray,
    velocities: np.ndarray,
    cfg: MotionConfig,
    rng: np.random.Generator,
    box_side: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One motion tick: sample accelerations, integrate, bounce off walls."""
    num = positions.shape[0]
    accel = rng.normal(0.0, cfg.accel_sigma, size=(num, 2))
    pinned = np.zeros(num, dtype=bool)
    if cfg.pinned_tasks:
        pinned[list(cfg.pinned_tasks)] = True
    accel[pinned] = 0.0

    new_vel = velocities + accel * cfg.dt
    new_pos = positions + velocities * cfg.dt + 0.5 * accel * cfg.dt**2
    new_vel[pinned] = 0.0
    new_pos[pinned] = positions[pinned]

    # mirror every coordinate across whichever wall it crossed, again while
    # a step overshoots the whole box; pinned tasks start inside and stay
    crossed = (new_pos < 0.0) | (new_pos > box_side)
    while crossed.any():
        new_pos = np.where(new_pos < 0.0, -new_pos, np.where(crossed, 2.0 * box_side - new_pos, new_pos))
        new_vel = np.where(crossed, -new_vel, new_vel)
        crossed = (new_pos < 0.0) | (new_pos > box_side)
    return new_pos, new_vel


def step_relay(positions: np.ndarray, directions: np.ndarray, cfg: MotionConfig) -> np.ndarray:
    """Move each relay along its direction at speed min(|d|, v_max)."""
    out = positions.copy()
    for i in range(positions.shape[0]):
        norm = float(np.linalg.norm(directions[i]))
        if norm == 0.0:
            continue
        speed = min(norm, cfg.v_max)
        out[i] = positions[i] + speed * (directions[i] / norm) * cfg.dt
    return out


def run_simulation(
    scenario: Scenario,
    weights,
    cfg: MotionConfig,
    pre_optimize: bool = True,
    opts: Optional[SolverOptions] = None,
) -> SimTimeline:
    """Simulate a mobile team for ``cfg.duration`` seconds.

    Relays start from positions optimized for the initial task layout
    (``pre_optimize``, by a default-config ascent), then every tick they
    chase the latest climb direction while task agents drift.  A run of T seconds at step dt
    yields round(T/dt) + 1 snapshots including the initial one.  Without
    an engine in ``opts``, the run solves with a
    :class:`relayflow.lp.WarmEngine` of its own, which the placement
    ascent shares: a team of more than six agents, whatever its LP size,
    re-solves one HiGHS model from its last basis at every step and
    tick, and only a smaller team's LPs go to the in-repo interior point.
    """
    w = validate_weights(weights, len(scenario.commodities))
    box_side = cfg.box_size if cfg.box_size is not None else area_side(scenario.num_task)
    if np.any(scenario.task_positions < 0) or np.any(scenario.task_positions > box_side):
        raise ValueError("task agents must start inside the navigation box")
    if cfg.pinned_tasks and max(cfg.pinned_tasks) >= scenario.num_task:
        raise ValueError("pinned task index out of range")
    opts = run_options(opts)

    if pre_optimize and scenario.num_relay:
        trace = ascend(scenario, w, opts=opts)
        scenario = scenario.with_relay_positions(trace.final_relay_positions)

    rng = np.random.default_rng(cfg.rng_seed)
    task_pos = scenario.task_positions.copy()
    task_vel = np.zeros_like(task_pos)
    relay_pos = scenario.relay_positions.copy()
    states: list[SimState] = []

    for tick in range(cfg.num_steps + 1):
        current = Scenario(
            task_pos, relay_pos, scenario.capacity_model, scenario.commodities
        )
        try:
            sol = solve_mcfp(build_instance(current, w), opts)
        except McfpSolveError as exc:
            timeline = SimTimeline(states, box_side)
            raise SimulationError(f"solve failed at tick {tick}: {exc}", timeline) from exc
        directions = gradient_from_duals(sol, current)
        states.append(
            SimState(
                time=tick * cfg.dt,
                phi=sol.phi,
                task_positions=task_pos.copy(),
                task_velocities=task_vel.copy(),
                relay_positions=relay_pos.copy(),
                directions=directions.copy(),
            )
        )
        if tick == cfg.num_steps:
            break
        task_pos, task_vel = step_task(task_pos, task_vel, cfg, rng, box_side)
        relay_pos = step_relay(relay_pos, directions, cfg)

    return SimTimeline(states, box_side)
