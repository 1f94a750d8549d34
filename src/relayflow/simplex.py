"""Bounded-variable revised simplex, the exact endgame of the interior point.

The interior-point engine is the fast default, but on heavily
degenerate problems its normal-equations endgame can level off around
a relative accuracy of 1e-6.  This module is the dense path's stall
endgame: it finishes such solves with a classic two-phase primal
simplex over the equality form

    minimize f'x   s.t.   M x = rhs,   lb <= x <= ub

obtained by appending one slack per inequality row.  Phase one drives
artificial variables out of an identity basis; phase two optimizes the
real objective.  Pricing is Dantzig by default and switches to Bland's
rule after a run of degenerate pivots, which makes termination finite.
``M`` and the artificial columns are one dense array and the basis
inverse is kept explicitly and refreshed periodically, which is fast
at the sizes the interior point takes (``lp._DENSE_MAX_ENTRIES``);
larger LPs go to HiGHS instead.

Basic solutions put every nonbasic variable exactly on a bound, so the
complementarity of the returned duals is exact, something the
interior-point engine can only approach.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .lp import LpResult, SolverOptions, StandardFormLP, check_kkt

_AT_LO, _AT_HI, _BASIC, _FREE0 = 0, 1, 2, 3
_REFRESH_EVERY = 128
_DEGENERATE_RUN = 30


def _build_equality_form(lp: StandardFormLP):
    """[A I; G 0] as one dense array with room for one artificial column
    per row (zero until the start is known), plus rhs, bounds and the
    minimization cost of the structural columns.

    Fortran order keeps every column contiguous.  In C order the
    products with the array round differently in the last bit, and a
    degenerate ascent's trajectory follows them.
    """
    n, m_in = lp.num_vars, lp.num_ineq
    m_rows = m_in + lp.num_eq
    mat = np.zeros((m_rows, n + m_in + m_rows), order="F")
    mat[:m_in, :n] = lp.a_ub.toarray()
    mat[m_in:, :n] = lp.a_eq.toarray()
    mat[:m_in, n : n + m_in] = np.eye(m_in)
    rhs = np.concatenate([lp.b_ub, lp.b_eq])
    lb = np.concatenate([lp.lo, np.zeros(m_in)])
    ub = np.concatenate([lp.hi, np.full(m_in, np.inf)])
    cost = np.concatenate([-lp.c, np.zeros(m_in)])  # minimize
    return mat, rhs, lb, ub, cost


def solve_simplex(lp: StandardFormLP, opts: Optional[SolverOptions] = None) -> LpResult:
    """Solve the LP exactly with a two-phase bounded-variable simplex
    (``opts`` is accepted for the engine signature and not read)."""
    n, m_in = lp.num_vars, lp.num_ineq
    mat, rhs, lb, ub, cost = _build_equality_form(lp)
    n_struct = lb.shape[0]
    m_rows = rhs.shape[0]

    rc_tol = 1e-9 * (1.0 + float(np.max(np.abs(cost), initial=0.0)))

    # start every structural variable on its lower bound, else on its
    # upper bound, else (free) at 0; the artificials form the basis
    has_lb, has_ub = np.isfinite(lb), np.isfinite(ub)
    x = np.zeros(n_struct + m_rows)
    x[:n_struct] = np.where(has_lb, lb, np.where(has_ub, ub, 0.0))
    status = np.full(n_struct + m_rows, _BASIC, dtype=np.int8)
    status[:n_struct] = np.where(has_lb, _AT_LO, np.where(has_ub, _AT_HI, _FREE0))

    resid = rhs - mat[:, :n_struct] @ x[:n_struct]
    art_sign = np.where(resid >= 0.0, 1.0, -1.0)
    np.fill_diagonal(mat[:, n_struct:], art_sign)
    lb_full = np.concatenate([lb, np.zeros(m_rows)])
    ub_full = np.concatenate([ub, np.full(m_rows, np.inf)])
    x[n_struct:] = np.abs(resid)

    basis = np.arange(n_struct, n_struct + m_rows)

    phase1_cost = np.concatenate([np.zeros(n_struct), np.ones(m_rows)])
    phase2_cost = np.concatenate([cost, np.zeros(m_rows)])

    b_inv = np.eye(m_rows) * (1.0 / art_sign)[:, None]  # inverse of the artificial basis

    def refresh_inverse() -> bool:
        nonlocal b_inv
        try:
            b_inv = np.linalg.inv(mat[:, basis])
            return True
        except np.linalg.LinAlgError:
            return False

    def run_phase(fc: np.ndarray, max_pivots: int) -> str:
        nonlocal b_inv
        degenerate_run = 0
        for pivot in range(max_pivots):
            if pivot and pivot % _REFRESH_EVERY == 0:
                if not refresh_inverse():
                    return "numerical"
            lam = fc[basis] @ b_inv
            rc = fc - lam @ mat

            eligible_lo = (status == _AT_LO) & (rc < -rc_tol) & (ub_full > lb_full)
            eligible_hi = (status == _AT_HI) & (rc > rc_tol)
            eligible_fr = (status == _FREE0) & (np.abs(rc) > rc_tol)
            any_mask = eligible_lo | eligible_hi | eligible_fr
            if not np.any(any_mask):
                return "optimal"

            if degenerate_run >= _DEGENERATE_RUN:
                enter = int(np.argmax(any_mask))  # Bland: lowest index
            else:
                score = np.where(any_mask, np.abs(rc), 0.0)
                enter = int(np.argmax(score))
            sigma = 1.0 if (status[enter] == _AT_LO or (status[enter] == _FREE0 and rc[enter] < 0)) else -1.0

            d = b_inv @ mat[:, enter]
            # max step before a basic variable or the entering bound blocks
            theta = ub_full[enter] - lb_full[enter] if status[enter] != _FREE0 else np.inf
            # a falling basic variable blocks at its lower bound, a rising
            # one at its upper; ties within 1e-12 go to the lowest basis index
            xb = x[basis]
            delta = -sigma * d
            room = np.where(delta < 0, xb - lb_full[basis], ub_full[basis] - xb)
            rows = np.flatnonzero((np.abs(delta) > 1e-11) & np.isfinite(room))
            leave_pos = -1
            for i, t in zip(rows.tolist(), (room[rows] / np.abs(delta[rows])).tolist()):
                if t < theta - 1e-12 or (
                    abs(t - theta) <= 1e-12 and (leave_pos < 0 or basis[i] < basis[leave_pos])
                ):
                    theta = t
                    leave_pos = i
            if not np.isfinite(theta):
                return "unbounded"
            theta = max(theta, 0.0)
            degenerate_run = degenerate_run + 1 if theta <= 1e-11 else 0

            x[basis] = xb - sigma * theta * d
            x[enter] += sigma * theta
            if leave_pos < 0:
                # entering variable ran to its opposite bound: a bound flip
                status[enter] = _AT_HI if sigma > 0 else _AT_LO
                continue
            leaving = basis[leave_pos]
            leave_to = _AT_LO if delta[leave_pos] < 0 else _AT_HI
            x[leaving] = lb_full[leaving] if leave_to == _AT_LO else ub_full[leaving]
            status[leaving] = leave_to
            basis[leave_pos] = enter
            status[enter] = _BASIC
            # eta update of the explicit inverse
            piv = d[leave_pos]
            if abs(piv) < 1e-12:
                if not refresh_inverse():
                    return "numerical"
                continue
            row = b_inv[leave_pos, :] / piv
            b_inv -= np.outer(d, row)
            b_inv[leave_pos, :] = row
        return "pivot_limit"

    max_pivots = max(2000, 50 * (m_rows + n_struct))
    state = run_phase(phase1_cost, max_pivots)
    if state == "numerical" or state == "pivot_limit":
        return _failure(lp, state, "phase one did not finish")
    infeas = float(np.sum(x[n_struct:]))
    if infeas > 1e-7 * (1.0 + float(np.max(np.abs(rhs), initial=0.0))):
        return _failure(lp, "infeasible", f"phase one residual {infeas:.2e}")

    ub_full[n_struct:] = 0.0  # artificials may stay basic only at zero
    x[n_struct:] = np.maximum(x[n_struct:], 0.0)
    state = run_phase(phase2_cost, max_pivots)
    if state == "numerical" or state == "pivot_limit":
        return _failure(lp, state, "phase two did not finish")
    if state == "unbounded":
        return _failure(lp, "unbounded", "phase two found an unbounded ray")

    # final cleanup: recompute basics and duals from a fresh inverse
    if not refresh_inverse():
        return _failure(lp, "numerical", "final basis is singular")
    x_nonbasic = np.where(status == _BASIC, 0.0, x)
    x[basis] = b_inv @ (rhs - mat @ x_nonbasic)
    lam = phase2_cost[basis] @ b_inv
    rc = phase2_cost - lam @ mat

    z = x[:n]
    y_ineq = np.maximum(-lam[:m_in], 0.0)
    y_eq = -lam[m_in:]
    zl = np.zeros(n)
    zu = np.zeros(n)
    at_lo = (status[:n] == _AT_LO) & np.isfinite(lp.lo)
    at_hi = (status[:n] == _AT_HI) & np.isfinite(lp.hi)
    zl[at_lo] = np.maximum(rc[:n][at_lo], 0.0)
    zu[at_hi] = np.maximum(-rc[:n][at_hi], 0.0)

    result = LpResult(
        status="optimal",
        x=z.copy(),
        objective=float(lp.c @ z),
        y_ineq=y_ineq,
        y_eq=y_eq,
        z_lower=zl,
        z_upper=zu,
        gap=0.0,
        iterations=0,
        message="simplex",
    )
    result.gap = check_kkt(lp, result).gap
    return result


def _failure(lp: StandardFormLP, status: str, message: str) -> LpResult:
    zeros_n = np.zeros(lp.num_vars)
    return LpResult(
        status=status if status in ("infeasible", "unbounded") else "numerical",
        x=zeros_n,
        objective=np.nan,
        y_ineq=np.zeros(lp.num_ineq),
        y_eq=np.zeros(lp.num_eq),
        z_lower=zeros_n.copy(),
        z_upper=zeros_n.copy(),
        gap=np.inf,
        iterations=0,
        message=message,
    )
