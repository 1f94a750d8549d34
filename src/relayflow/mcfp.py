"""Multi-commodity flow instances, their LP form, and verified solutions.

The team utility of an agent configuration is the optimal value of a
flow problem on the complete directed graph over the agents: each
commodity k is consumed by task agent k and injected by its source
agents, every other agent (a relay, or a task agent outside the
commodity) conserves it, and the total flow on a directed edge is
capped by the pairwise link capacity.  The objective is a weighted sum
over commodities of the smallest injection among the commodity's
sources, linearized with one epigraph variable per commodity.

The capacity rows are kept verbatim, one per ordered pair, so their
duals are exactly the shadow prices the ascent direction needs.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .capacity import capacity_matrix
from .lp import CsrMatrix, LpResult, SolverOptions, StandardFormLP, check_kkt, solve
from .network import CommoditySpec, Scenario, validate_weights

# Epigraph variables are conceptually free.  The objective pushes each
# t_k up against its epigraph rows t_k <= a_s, so at an optimum t_k is the
# smallest injection a_s over the sources of commodity k, which is
# nonnegative (it is not bounded by 1: a source can send over all its
# links).  Any negative floor is therefore inactive at an optimum and
# leaves values and duals unchanged.  solve_mcfp never passes a
# zero-weight commodity, whose epigraph value would sit on an unbounded
# optimal ray, but the floor stays at this depth: the interior point
# starts lower-only variables one unit above their bound, so the depth
# steers its endgame on degenerate LPs (at -1 far fewer solves stall into
# the simplex), and changing it moves the ascent trajectories that the
# benchmark's reference values pin.
_EPIGRAPH_FLOOR = -1e3
# flows and injections at or below this are left out of flow_solution_to_dict
_DROP_TOL = 1e-9
# verify_solution's pass tolerance, and the spare capacity from which a
# capacity row counts as slack and must carry no price
_VERIFY_TOL = 1e-6
_SLACK_THRESHOLD = 1e-3


@dataclass
class McfpInstance:
    """Capacity matrix plus commodity structure, ready to solve."""

    capacities: np.ndarray
    commodities: tuple[CommoditySpec, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.capacities, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"capacity matrix must be square, got {c.shape}")
        if np.any(c < 0.0) or np.any(c > 1.0):
            raise ValueError("capacities must lie in [0, 1]")
        # np.allclose(c, c.T, atol=1e-12) with its default rtol, without its overhead
        if not np.all(np.abs(c - c.T) <= 1e-12 + 1e-5 * np.abs(c.T)):
            raise ValueError("capacity matrix must be symmetric")
        if np.any(np.diag(c) != 0.0):
            raise ValueError("capacity diagonal must be zero (no self links)")
        self.capacities = c
        self.commodities = tuple(self.commodities)
        self.weights = validate_weights(self.weights, len(self.commodities))
        n = c.shape[0]
        for k, com in enumerate(self.commodities):
            if max((com.sink, *com.sources)) >= n:
                raise ValueError(f"commodity {k} references agent outside the graph")

    @property
    def num_agents(self) -> int:
        return self.capacities.shape[0]

    @property
    def num_commodities(self) -> int:
        return len(self.commodities)

    def with_capacities(self, new_c: np.ndarray) -> "McfpInstance":
        return McfpInstance(new_c, self.commodities, self.weights)


def build_instance(scenario: Scenario, weights) -> McfpInstance:
    """Evaluate all pairwise capacities and bundle the commodity data."""
    c = capacity_matrix(scenario.capacity_model, scenario.positions())
    return McfpInstance(c, scenario.commodities, weights)


@dataclass(frozen=True)
class McfpIndexMap:
    """Column and row layout of the flow LP, as index arrays.

    Pairs p are the N(N-1) ordered pairs ``(pair_i[p], pair_j[p])`` in
    row-major order.  Entries s are the (commodity, source) pairs
    ``(src_k[s], src_i[s])``, entries q the pairs ``(cons_k[q], cons_i[q])``
    of each commodity and each agent outside it, both commodity-major.
    With K commodities, P pairs and S source entries:

    - columns: ``p*K + k`` flow of commodity k on pair p, in [0, 1];
      ``a_col0 + s`` (a_col0 = P*K) injection of entry s, nonnegative;
      ``t_col0 + k`` (t_col0 = P*K + S) epigraph value t_k, floored at
      ``_EPIGRAPH_FLOOR``;
    - inequality rows: ``s`` epigraph row t_k - a_s <= 0; ``S + s``
      injection row a_s - (net outflow of k at i) <= 0; ``cap_row0 + p``
      (cap_row0 = 2S) capacity row, total flow on p <= C_p;
    - equality rows: ``q`` conservation of commodity ``cons_k[q]`` at
      agent ``cons_i[q]``, net outflow = 0.
    """

    num_agents: int
    num_commodities: int
    pair_i: np.ndarray
    pair_j: np.ndarray
    src_k: np.ndarray
    src_i: np.ndarray
    cons_k: np.ndarray
    cons_i: np.ndarray

    @property
    def num_pairs(self) -> int:
        return self.pair_i.size

    @property
    def a_col0(self) -> int:
        return self.num_pairs * self.num_commodities

    @property
    def t_col0(self) -> int:
        return self.a_col0 + self.src_k.size

    @property
    def cap_row0(self) -> int:
        return 2 * self.src_k.size

    def r_col(self, i, j, k):
        """Flow column of commodity k on pair (i, j), elementwise over arrays."""
        pair = i * (self.num_agents - 1) + j - (j > i)
        return pair * self.num_commodities + k


def _entries(commodities, n: int):
    """``(src_k, src_i), (cons_k, cons_i)``: each commodity's sources, and each
    of the ``n`` agents that is neither its sink nor a source; commodity-major."""
    src_k = np.repeat(np.arange(len(commodities)), [len(com.sources) for com in commodities])
    src_i = np.fromiter(chain.from_iterable(com.sources for com in commodities), dtype=int)
    outside = np.ones((len(commodities), n), dtype=bool)
    outside[src_k, src_i] = False
    outside[np.arange(len(commodities)), np.array([com.sink for com in commodities], dtype=int)] = False
    return (src_k, src_i), np.nonzero(outside)


def _net_outflow(index: McfpIndexMap, nodes: np.ndarray, ks: np.ndarray):
    """COO entries ``(m, column, value)`` of the net outflow of commodity
    ``ks[m]`` at agent ``nodes[m]``: +1 on each flow leaving it, -1 on
    each flow entering it."""
    others = index.num_agents - 1
    m = np.repeat(np.arange(nodes.size), others)
    i, k = nodes[m], ks[m]
    j = np.tile(np.arange(others), nodes.size)
    j += j >= i
    cols = np.concatenate([index.r_col(i, j, k), index.r_col(j, i, k)])
    return np.concatenate([m, m]), cols, np.repeat([1.0, -1.0], m.size)


def build_lp(inst: McfpInstance) -> tuple[StandardFormLP, McfpIndexMap]:
    """Emit the flow LP in standard form, in the layout :class:`McfpIndexMap` states.

    The layout (constraint matrices, bounds, index map and the dense
    arrays of the interior point) depends only on the number of agents
    and the commodities, so it is built once per layout and shared,
    read-only, by every LP of that layout.  Each call makes a fresh
    objective (the weights) and capacity right-hand side.
    """
    template, index = _layout(inst.num_agents, inst.commodities)
    c_obj = np.zeros(template.num_vars)
    c_obj[index.t_col0 :] = inst.weights
    b_ub = np.zeros(template.num_ineq)
    b_ub[index.cap_row0 :] = inst.capacities[index.pair_i, index.pair_j]
    return template.with_data(c_obj, b_ub), index


# layouts kept for re-solving: an ascent or a mission re-solves one layout
# (the positive-weight commodities of one team) at every step or tick
@functools.lru_cache(maxsize=8)
def _layout(n: int, commodities: tuple) -> tuple[StandardFormLP, McfpIndexMap]:
    """The frozen flow LP of a layout, with zero objective and capacities."""
    num_k = len(commodities)
    pair_i, pair_j = np.nonzero(~np.eye(n, dtype=bool))
    (src_k, src_i), (cons_k, cons_i) = _entries(commodities, n)
    index = McfpIndexMap(n, num_k, pair_i, pair_j, src_k, src_i, cons_k, cons_i)
    num_s, num_p = src_k.size, pair_i.size
    num_vars = index.t_col0 + num_k
    s = np.arange(num_s)

    m, flow_cols, flow_vals = _net_outflow(index, src_i, src_k)
    rows = [s, s, num_s + s, num_s + m, index.cap_row0 + np.repeat(np.arange(num_p), num_k)]
    cols = [index.t_col0 + src_k, index.a_col0 + s, index.a_col0 + s, flow_cols, np.arange(index.a_col0)]
    vals = [np.ones(num_s), -np.ones(num_s), np.ones(num_s), -flow_vals, np.ones(index.a_col0)]
    a_ub = CsrMatrix.from_coo(
        np.concatenate(vals), np.concatenate(rows), np.concatenate(cols), (index.cap_row0 + num_p, num_vars)
    )

    m, flow_cols, flow_vals = _net_outflow(index, cons_i, cons_k)
    a_eq = CsrMatrix.from_coo(flow_vals, m, flow_cols, (cons_k.size, num_vars))

    lo = np.zeros(num_vars)
    hi = np.ones(num_vars)
    hi[index.a_col0 :] = np.inf
    lo[index.t_col0 :] = _EPIGRAPH_FLOOR

    lp = StandardFormLP(
        c=np.zeros(num_vars), a_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), a_eq=a_eq,
        b_eq=np.zeros(cons_k.size), lo=lo, hi=hi,
    )
    for arr in (pair_i, pair_j, src_k, src_i, cons_k, cons_i):
        arr.flags.writeable = False
    return lp.freeze(), index


@dataclass
class FlowSolution:
    """Optimal flows, injections, utility and all dual variables.

    Arrays cover every commodity of the instance; the rows of a
    commodity of weight zero, which :func:`solve_mcfp` leaves out of the
    LP, are exactly 0.  ``lp`` and ``lp_result`` are the LP that was
    solved and its result (None when no LP was needed).
    """

    phi: float
    r: np.ndarray  # (N, N, K) flows, zero diagonal
    a: np.ndarray  # (K, N) injections, nonzero only at sources
    t: np.ndarray  # (K,) epigraph values
    lam: np.ndarray  # (K, N) injection-row duals
    nu: np.ndarray  # (K, N) conservation duals, zero at each commodity's sink and sources
    mu: np.ndarray  # (N, N) capacity shadow prices
    gap: float
    status: str
    iterations: int
    lp: Optional[StandardFormLP] = field(default=None, repr=False)
    lp_result: Optional[LpResult] = field(default=None, repr=False)


class McfpSolveError(RuntimeError):
    """The flow LP did not reach a verified optimum."""

    def __init__(self, message: str, lp_result: Optional[LpResult] = None, report=None):
        super().__init__(message)
        self.lp_result = lp_result
        self.report = report


def _zero_solution(inst: McfpInstance) -> FlowSolution:
    n, num_k = inst.num_agents, inst.num_commodities
    return FlowSolution(
        phi=0.0,
        r=np.zeros((n, n, num_k)),
        a=np.zeros((num_k, n)),
        t=np.zeros(num_k),
        lam=np.zeros((num_k, n)),
        nu=np.zeros((num_k, n)),
        mu=np.zeros((n, n)),
        gap=0.0,
        status="optimal",
        iterations=0,
    )


def solve_mcfp(inst: McfpInstance, opts: Optional[SolverOptions] = None) -> FlowSolution:
    """Solve the flow LP and return a verified primal-dual solution.

    Only the commodities of positive weight enter the LP.  A commodity
    of weight zero adds nothing to phi and only competes for capacity,
    so zero flows, injections, epigraph value and duals extend every
    optimal pair of the smaller LP to an optimal pair of the full one:
    its rows of ``r``, ``a``, ``t``, ``lam`` and ``nu`` are exactly 0,
    and phi and ``mu`` are those of the full LP.  With no positive
    weight the zero solution is optimal and no LP is solved.
    ``sol.lp`` is the LP that was solved.

    Raises :class:`McfpSolveError` if the LP engine fails or the
    returned point does not pass :func:`verify_solution` on ``inst``,
    so callers never see unverified output.
    """
    sol = _zero_solution(inst)
    keep = np.flatnonzero(inst.weights > 0)
    if keep.size == 0:
        return sol

    weighted = inst
    if keep.size < inst.num_commodities:
        weighted = copy.copy(inst)  # inst is validated already; skip McfpInstance.__post_init__
        weighted.commodities = tuple(inst.commodities[k] for k in keep)
        weighted.weights = inst.weights[keep]
    lp, index = build_lp(weighted)
    result = solve(lp, opts)
    if not result.optimal:
        raise McfpSolveError(
            f"flow LP solve failed with status {result.status}: {result.message}",
            lp_result=result,
        )

    x, y_ineq = result.x, result.y_ineq
    sources = (keep[index.src_k], index.src_i)
    sol.r[index.pair_i[:, None], index.pair_j[:, None], keep] = x[: index.a_col0].reshape(
        index.num_pairs, keep.size
    )
    sol.a[sources] = x[index.a_col0 : index.t_col0]
    sol.t[keep] = x[index.t_col0 :]
    sol.lam[sources] = y_ineq[index.src_k.size : index.cap_row0]
    sol.nu[keep[index.cons_k], index.cons_i] = result.y_eq
    sol.mu[index.pair_i, index.pair_j] = y_ineq[index.cap_row0 :]
    sol.phi, sol.gap, sol.status = float(result.objective), float(result.gap), result.status
    sol.iterations, sol.lp, sol.lp_result = result.iterations, lp, result

    report = verify_solution(inst, sol)
    if not report.passed:
        raise McfpSolveError(
            f"flow solution failed verification: {report}", lp_result=result, report=report
        )
    return sol


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of a flow solution, all expected at or below the pass tolerance.

    primal_residual and dual_residual are relative KKT residuals of the
    underlying LP; complementarity is the largest capacity-row product
    mu_ij * (C_ij - total flow on (i, j)); slack_mu_max is the largest
    shadow price on a row with at least ``slack_threshold`` spare
    capacity, which should carry no price at an optimum.
    """

    primal_residual: float
    dual_residual: float
    complementarity: float
    gap: float
    slack_mu_max: float
    tol: float
    slack_threshold: float

    @property
    def passed(self) -> bool:
        # np.max, not max: a NaN residual must fail wherever it stands
        return bool(
            np.max([
                self.primal_residual,
                self.dual_residual,
                self.complementarity,
                self.gap,
                self.slack_mu_max,
            ])
            <= self.tol
        )


def verify_solution(inst: McfpInstance, sol: FlowSolution) -> VerificationReport:
    """Recompute feasibility, optimality and shadow-price hygiene residuals.

    Primal feasibility is evaluated directly on the solution arrays, so
    a hand-edited solution, or flow absorbed by an agent outside its
    commodity, is caught regardless of what the solver reported.
    Stationarity and the duality gap come from the KKT check of the
    underlying LP pair when it is attached.
    """
    total_flow = sol.r.sum(axis=2)
    slack = inst.capacities - total_flow
    off_diag = ~np.eye(inst.num_agents, dtype=bool)

    net_out = sol.r.sum(axis=1) - sol.r.sum(axis=0)  # (N, K): net outflow per node
    (src_k, src_i), (cons_k, cons_i) = _entries(inst.commodities, inst.num_agents)
    a_src = sol.a[src_k, src_i]
    # np.max, not max, so a NaN term is kept wherever it stands; + 0.0 turns
    # the -0.0 that np.max(-x) gives over zeros into 0.0
    primal = float(np.max([
        float(np.max(-slack[off_diag], initial=0.0)),  # capacity respected
        float(np.max(-sol.r, initial=0.0)),  # flow bounds
        float(np.max(sol.r - 1.0, initial=0.0)),
        float(np.max(-sol.a, initial=0.0)),  # injections nonnegative
        float(np.max(np.abs(net_out[cons_i, cons_k]), initial=0.0)),  # agents outside a commodity conserve it
        float(np.max(a_src - net_out[src_i, src_k], initial=0.0)),  # injection bounded by net outflow
        float(np.max(sol.t[src_k] - a_src, initial=0.0)),  # epigraph feasibility
    ])) + 0.0

    dual = float(np.max([
        float(np.max(-sol.mu, initial=0.0)),
        float(np.max(-sol.lam, initial=0.0)),
    ])) + 0.0
    comp = float(np.max(np.abs(sol.mu * slack), initial=0.0))
    is_slack = off_diag & (slack >= _SLACK_THRESHOLD)
    slack_mu = float(np.max(sol.mu[is_slack], initial=0.0)) + 0.0

    if sol.lp is not None and sol.lp_result is not None:
        kkt = check_kkt(sol.lp, sol.lp_result)
        dual = float(np.max([dual, kkt.stationarity, kkt.dual_feasibility]))
        gap = kkt.gap
    else:
        gap = float(sol.gap)

    return VerificationReport(
        primal_residual=primal,
        dual_residual=dual,
        complementarity=comp,
        gap=gap,
        slack_mu_max=slack_mu,
        tol=_VERIFY_TOL,
        slack_threshold=_SLACK_THRESHOLD,
    )


def flow_solution_to_dict(sol: FlowSolution) -> dict:
    """JSON form: phi, dense mu, sparse r triples, injections, gap, status."""
    return {
        "phi": float(sol.phi),
        "mu": [[float(v) for v in row] for row in sol.mu],
        "r": _nonzero_entries(sol.r),
        "a": _nonzero_entries(sol.a),
        "gap": float(sol.gap),
        "status": sol.status,
    }


def _nonzero_entries(arr: np.ndarray) -> list:
    """``[*index, value]`` of every entry above ``_DROP_TOL``, in row-major order."""
    idx = np.nonzero(arr > _DROP_TOL)
    return [[*ix, v] for *ix, v in zip(*(axis.tolist() for axis in idx), arr[idx].tolist())]
