"""Scenario definitions: agent sets, commodity structure, utility weights.

A scenario holds two groups of agents.  Task agents exchange
information and their positions are exogenous; relay agents only
forward flow and are the ones the optimizer moves.  Agents are indexed
task-first: tasks 0..K-1, relays K..K+I-1.

Each commodity is named after the task agent that consumes it (its
sink); by default every other task agent is a source for it.  Utility
weights select which commodities count and how much.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .capacity import CapacityModel


@dataclass(frozen=True)
class CommoditySpec:
    """One information flow: ``sources`` inject it, ``sink`` consumes it."""

    sink: int
    sources: tuple[int, ...]

    def __post_init__(self) -> None:
        sources = tuple(sorted(set(operator.index(i) for i in self.sources)))
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "sink", operator.index(self.sink))
        if not sources:
            raise ValueError("commodity needs at least one source")
        if self.sink in sources:
            raise ValueError(f"sink {self.sink} cannot also be a source")
        if self.sink < 0 or any(i < 0 for i in sources):
            raise ValueError("agent indices must be nonnegative")


@dataclass(frozen=True)
class Scenario:
    task_positions: np.ndarray
    relay_positions: np.ndarray
    capacity_model: CapacityModel
    commodities: tuple[CommoditySpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        tasks = np.atleast_2d(np.asarray(self.task_positions, dtype=float))
        relays = np.asarray(self.relay_positions, dtype=float)
        # (T, 2), or one task as (2,)
        if tasks.ndim != 2 or tasks.shape[0] < 1 or tasks.shape[1] != 2:
            raise ValueError(f"need at least one task agent with 2-d positions, got {tasks.shape}")
        # (R, 2), one relay as (2,), or none; reshape(-1, 2) would read a
        # row of four numbers as two relays
        if relays.size == 0 or relays.shape == (2,):
            relays = relays.reshape(-1, 2)
        elif relays.ndim != 2 or relays.shape[1] != 2:
            raise ValueError(f"relay positions must have shape (R, 2), got {relays.shape}")
        if not (np.all(np.isfinite(tasks)) and np.all(np.isfinite(relays))):
            raise ValueError("agent positions must be finite")
        object.__setattr__(self, "task_positions", tasks)
        object.__setattr__(self, "relay_positions", relays)
        object.__setattr__(self, "commodities", tuple(self.commodities))
        for c in self.commodities:
            members = {c.sink, *c.sources}
            if max(members) >= self.num_task:
                raise ValueError(f"commodity {c} references a non-task agent")

    @property
    def num_task(self) -> int:
        return self.task_positions.shape[0]

    @property
    def num_relay(self) -> int:
        return self.relay_positions.shape[0]

    @property
    def num_agents(self) -> int:
        return self.num_task + self.num_relay

    def positions(self) -> np.ndarray:
        """All agent positions stacked task-first, shape (N, 2)."""
        return np.vstack([self.task_positions, self.relay_positions.reshape(-1, 2)])

    def with_relay_positions(self, new_positions: np.ndarray) -> "Scenario":
        moved = replace(self, relay_positions=new_positions)
        if moved.relay_positions.shape != self.relay_positions.shape:
            raise ValueError(
                f"expected shape {self.relay_positions.shape}, got {moved.relay_positions.shape}"
            )
        return moved


@dataclass(frozen=True)
class ScenarioConfig:
    num_task: int
    num_relay: int
    density: float = 1.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_task", "num_relay", "rng_seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.num_task < 1:
            raise ValueError("need at least one task agent")
        if self.num_relay < 0:
            raise ValueError("relay count cannot be negative")
        if not (math.isfinite(self.density) and self.density > 0.0):
            raise ValueError(f"density must be finite and positive, got {self.density!r}")


def default_commodities(num_task: int) -> tuple[CommoditySpec, ...]:
    """One commodity per task agent k, sourced by every other task agent."""
    if num_task < 2:
        raise ValueError("default commodities need at least two task agents")
    everyone = range(num_task)
    return tuple(
        CommoditySpec(sink=k, sources=tuple(i for i in everyone if i != k))
        for k in everyone
    )


def area_side(num_task: int, density: float = 1.0) -> float:
    """Side length of the spawn square keeping task-agent density fixed."""
    return math.sqrt(num_task / density)


def spawn_scenario(cfg: ScenarioConfig, model: CapacityModel | None = None) -> Scenario:
    """Sample a random scenario on the square [0, L]^2, L = sqrt(K / density).

    Task positions are drawn before relay positions, so a fixed seed
    pins the whole scenario.  Commodities default to one per task agent
    when there are at least two of them.
    """
    model = model if model is not None else CapacityModel()
    rng = np.random.default_rng(cfg.rng_seed)
    side = area_side(cfg.num_task, cfg.density)
    tasks = rng.uniform(0.0, side, size=(cfg.num_task, 2))
    relays = rng.uniform(0.0, side, size=(cfg.num_relay, 2))
    commodities = default_commodities(cfg.num_task) if cfg.num_task >= 2 else ()
    return Scenario(tasks, relays, model, commodities)


def validate_weights(weights, num_commodities: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != num_commodities:
        raise ValueError(f"expected {num_commodities} weights, got {w.shape[0]}")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    return w


def weight_preset(kind: str, num_commodities: int) -> np.ndarray:
    """Build a weight vector from a preset string.

    ``adhoc``          all commodities weighted 1.
    ``ap:<j>``         only commodity j (the access point) weighted 1.
    ``subset:<i,j,..>`` the listed commodities weighted 1, rest 0.

    Indices are 0-based.
    """
    kind = kind.strip()
    if kind == "adhoc":
        return np.ones(num_commodities)
    if kind.startswith("ap:"):
        j = int(kind[3:])
        if not 0 <= j < num_commodities:
            raise ValueError(f"ap index {j} out of range for {num_commodities} commodities")
        w = np.zeros(num_commodities)
        w[j] = 1.0
        return w
    if kind.startswith("subset:"):
        members = [int(tok) for tok in kind[len("subset:"):].split(",") if tok.strip()]
        if not members:
            raise ValueError("subset preset needs at least one index")
        if any(not 0 <= j < num_commodities for j in members):
            raise ValueError(f"subset indices {members} out of range")
        w = np.zeros(num_commodities)
        w[members] = 1.0
        return w
    raise ValueError(f"unknown weight preset {kind!r}")


def scenario_to_dict(scenario: Scenario, weights) -> dict:
    """Canonical JSON form: capacity_model, task_agents, relay_agents,
    commodities, weights, in that order."""
    w = validate_weights(weights, len(scenario.commodities))
    return {
        "capacity_model": {
            "d0_km": scenario.capacity_model.d0_km,
            "exponent": scenario.capacity_model.exponent,
        },
        "task_agents": [[float(x), float(y)] for x, y in scenario.task_positions],
        "relay_agents": [[float(x), float(y)] for x, y in scenario.relay_positions],
        "commodities": [
            {"sink": c.sink, "sources": list(c.sources)} for c in scenario.commodities
        ],
        "weights": [float(v) for v in w],
    }


def scenario_from_dict(doc: dict) -> tuple[Scenario, np.ndarray]:
    try:
        model = CapacityModel(
            d0_km=float(doc["capacity_model"]["d0_km"]),
            exponent=float(doc["capacity_model"]["exponent"]),
        )
        tasks = np.asarray(doc["task_agents"], dtype=float)
        relays = np.asarray(doc.get("relay_agents", []), dtype=float)
        commodities = tuple(
            CommoditySpec(sink=c["sink"], sources=tuple(c["sources"]))
            for c in doc["commodities"]
        )
        weights = np.asarray(doc["weights"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"malformed scenario document: {exc}") from exc
    scenario = Scenario(tasks, relays, model, commodities)
    return scenario, validate_weights(weights, len(commodities))


class ScenarioFormatError(ValueError):
    """Scenario file cannot be parsed into a valid scenario."""


def save_scenario(path, scenario: Scenario, weights) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario, weights), indent=2) + "\n",
        encoding="utf-8",
    )


def load_scenario(path) -> tuple[Scenario, np.ndarray]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioFormatError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(doc)
