"""Linear programming with primal and dual solutions.

Solves maximization LPs of the form

    max  c'z   s.t.   A z <= b,   G z = h,   lo <= z <= hi

and returns, alongside the optimizer, the dual vector of every
constraint: inequality duals (nonnegative), equality duals (free) and
bound duals.  Downstream code reads the inequality duals as shadow
prices, so the solver keeps iterating well past the requested gap when
it can, and every result can be re-checked with :func:`check_kkt`.

The default engine is an infeasible-start predictor-corrector
interior-point method on the reduced normal equations, with free
variables eliminated exactly through a small Schur complement (no
primal regularization is needed for them).  Small problems factor the
normal matrix densely.  Larger ones keep it sparse and first eliminate,
exactly, a set of rows with disjoint column supports, whose block of the
normal matrix is diagonal (the capacity rows of a flow LP, where every
flow column sits in one capacity row); only the Schur complement of the
remaining rows is factored densely.  Every solve runs on one OpenBLAS
thread.  Interior-point iterates
converge to the analytic center of the optimal face, so when the dual
optimum is not unique the reported duals are the centered ones, which
is what a subgradient-style consumer wants.  When progress stalls
short of the target, as it can on degenerate problems, the problem is
handed to the exact two-phase simplex engine in
:mod:`relayflow.simplex`.

Any callable with the signature ``engine(lp, options) -> LpResult`` can
be plugged in through ``SolverOptions.engine``; an adapter around
``scipy.optimize.linprog`` is provided as an alternative engine and as
an independent cross-check in the test suite.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

_HUGE = 1e12
# interior-point iteration cap; a solve that reaches it goes to the simplex
_MAX_ITERS = 200
# constraint-matrix entries (variables x rows) up to which the interior
# point works on dense arrays; larger problems take the block-elimination path
_DENSE_MAX_ENTRIES = 500_000
# the LAPACK Cholesky routines behind scipy's cho_factor and cho_solve,
# called directly: on the small normal matrices of flow LPs the wrappers'
# argument handling costs more than the arithmetic
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _as_sparse(mat, num_cols: int) -> sp.csr_matrix:
    if mat is None:
        return sp.csr_matrix((0, num_cols))
    if sp.issparse(mat):
        out = mat.tocsr().astype(float)
    else:
        out = sp.csr_matrix(np.atleast_2d(np.asarray(mat, dtype=float)))
    if out.shape[1] != num_cols:
        raise ValueError(f"constraint matrix has {out.shape[1]} columns, expected {num_cols}")
    return out


@dataclass
class StandardFormLP:
    """max c'z s.t. A z <= b, G z = h, lo <= z <= hi (entries of lo/hi may be inf)."""

    c: np.ndarray
    a_ub: Optional[object] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[object] = None
    b_eq: Optional[np.ndarray] = None
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        n = self.c.shape[0]
        self.a_ub = _as_sparse(self.a_ub, n)
        self.a_eq = _as_sparse(self.a_eq, n)
        self.b_ub = (
            np.zeros(0) if self.b_ub is None else np.asarray(self.b_ub, dtype=float).reshape(-1)
        )
        self.b_eq = (
            np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=float).reshape(-1)
        )
        if self.a_ub.shape[0] != self.b_ub.shape[0]:
            raise ValueError("a_ub and b_ub disagree on the number of rows")
        if self.a_eq.shape[0] != self.b_eq.shape[0]:
            raise ValueError("a_eq and b_eq disagree on the number of rows")
        self.lo = np.full(n, -np.inf) if self.lo is None else np.asarray(self.lo, dtype=float).reshape(-1)
        self.hi = np.full(n, np.inf) if self.hi is None else np.asarray(self.hi, dtype=float).reshape(-1)
        if self.lo.shape[0] != n or self.hi.shape[0] != n:
            raise ValueError("bound vectors must match the variable count")
        if np.any(self.lo > self.hi):
            raise ValueError("lower bound exceeds upper bound")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("objective coefficients must be finite")

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    @property
    def num_ineq(self) -> int:
        return self.b_ub.shape[0]

    @property
    def num_eq(self) -> int:
        return self.b_eq.shape[0]


@dataclass
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    engine: Optional[Callable] = None


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit | numerical
    x: np.ndarray
    objective: float
    y_ineq: np.ndarray
    y_eq: np.ndarray
    z_lower: np.ndarray
    z_upper: np.ndarray
    gap: float
    iterations: int
    message: str = ""

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class LpError(RuntimeError):
    """Solve did not produce a verified optimal point."""

    def __init__(self, message: str, result: Optional[LpResult] = None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class KktReport:
    stationarity: float
    primal_feasibility: float
    dual_feasibility: float
    complementarity: float
    gap: float

    @property
    def max_residual(self) -> float:
        return max(
            self.stationarity,
            self.primal_feasibility,
            self.dual_feasibility,
            self.complementarity,
            self.gap,
        )

    def passed(self, tol: float = 1e-6) -> bool:
        return self.max_residual <= tol


def dual_objective(lp: StandardFormLP, result: LpResult) -> float:
    """b'y_ineq + h'y_eq - lo'z_lower + hi'z_upper over the finite bounds."""
    val = float(lp.b_ub @ result.y_ineq) + float(lp.b_eq @ result.y_eq)
    fin_lo = np.isfinite(lp.lo)
    fin_hi = np.isfinite(lp.hi)
    val -= float(lp.lo[fin_lo] @ result.z_lower[fin_lo])
    val += float(lp.hi[fin_hi] @ result.z_upper[fin_hi])
    return val


def check_kkt(lp: StandardFormLP, result: LpResult) -> KktReport:
    """Recompute all KKT residuals of a candidate primal-dual pair.

    Residuals are relative to the natural scale of each quantity, so a
    threshold like 1e-6 means six digits of optimality.
    """
    x = result.x
    grad = lp.c - lp.a_ub.T @ result.y_ineq - lp.a_eq.T @ result.y_eq
    grad += np.where(np.isfinite(lp.lo), result.z_lower, 0.0)
    grad -= np.where(np.isfinite(lp.hi), result.z_upper, 0.0)
    stationarity = float(np.max(np.abs(grad), initial=0.0)) / (1.0 + float(np.max(np.abs(lp.c), initial=0.0)))

    rhs_scale = 1.0 + max(
        float(np.max(np.abs(lp.b_ub), initial=0.0)),
        float(np.max(np.abs(lp.b_eq), initial=0.0)),
    )
    slack_ub = lp.b_ub - lp.a_ub @ x
    viol = [
        float(np.max(-slack_ub, initial=0.0)),
        float(np.max(np.abs(lp.b_eq - lp.a_eq @ x), initial=0.0)),
        float(np.max(np.where(np.isfinite(lp.lo), lp.lo - x, 0.0), initial=0.0)),
        float(np.max(np.where(np.isfinite(lp.hi), x - lp.hi, 0.0), initial=0.0)),
    ]
    primal = max(viol) / rhs_scale

    dual = max(
        float(np.max(-result.y_ineq, initial=0.0)),
        float(np.max(np.where(np.isfinite(lp.lo), -result.z_lower, 0.0), initial=0.0)),
        float(np.max(np.where(np.isfinite(lp.hi), -result.z_upper, 0.0), initial=0.0)),
    )

    obj = float(lp.c @ x)
    comp_terms = [float(np.max(np.abs(result.y_ineq * slack_ub), initial=0.0))]
    gl = np.where(np.isfinite(lp.lo), x - lp.lo, 0.0)
    gu = np.where(np.isfinite(lp.hi), lp.hi - x, 0.0)
    comp_terms.append(float(np.max(np.abs(result.z_lower * gl), initial=0.0)))
    comp_terms.append(float(np.max(np.abs(result.z_upper * gu), initial=0.0)))
    complementarity = max(comp_terms) / (1.0 + abs(obj))

    gap = abs(obj - dual_objective(lp, result)) / (1.0 + abs(obj))
    return KktReport(stationarity, primal, dual, complementarity, gap)


def solve(lp: StandardFormLP, opts: Optional[SolverOptions] = None) -> LpResult:
    """Solve the LP with the configured engine (in-repo interior point by default)."""
    opts = opts if opts is not None else SolverOptions()
    engine = opts.engine if opts.engine is not None else solve_interior_point
    return engine(lp, opts)


# ---------------------------------------------------------------------------
# interior-point engine
# ---------------------------------------------------------------------------


class BlasThreadControl(NamedTuple):
    """Thread-count getter and setter of one loaded BLAS library."""

    name: str
    get: Callable[[], int]
    set: Callable[[int], None]


# numpy's matrix products and scipy's Cholesky each call into their own
# BLAS; these extensions link it, so their handles export its controls
_BLAS_EXTENSIONS = ("numpy.linalg._umath_linalg", "scipy.linalg._flapack")


@functools.cache
def blas_thread_controls() -> tuple[BlasThreadControl, ...]:
    """The OpenBLAS thread controls reachable from numpy and scipy.

    One :class:`BlasThreadControl` per distinct library, named by its
    symbol prefix (``"scipy_openblas64_"``, ``"openblas"``, ...).  Empty
    for any other BLAS (MKL, Accelerate), which the solver then leaves
    at its own threading.
    """
    controls = {}
    for module in _BLAS_EXTENSIONS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
        except (ImportError, OSError):
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                # two extensions may share one library
                address = ctypes.cast(set_, ctypes.c_void_p).value
                controls.setdefault(address, BlasThreadControl(prefix + suffix, get, set_))
    return tuple(controls.values())


class _OneBlasThread:
    """Holds every BLAS at one thread while any solve is inside :meth:`scope`.

    Waking more OpenBLAS threads costs more than they save on the
    matrices the solver factors: the small dense normal matrices of the
    dense path and the 1 425-row Schur complement of ``team25x10`` on the
    sparse path (its Cholesky factor took 39 ms on one thread and 134 ms
    on two of a 2-core host).  The count is process-wide,
    so overlapping scopes (nested, or in concurrent threads) share one
    pin, and the last to leave restores the counts the first one found.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: tuple = ()

    @contextlib.contextmanager
    def scope(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((ctl, ctl.get()) for ctl in blas_thread_controls())
                for ctl, _ in self._saved:
                    ctl.set(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    for ctl, count in self._saved:
                        ctl.set(count)


_ONE_BLAS_THREAD = _OneBlasThread()


def _initial_point(lp, has_lo, has_hi):
    z = np.zeros(lp.num_vars)
    both = has_lo & has_hi
    z[both] = 0.5 * (lp.lo[both] + lp.hi[both])
    only_lo = has_lo & ~has_hi
    z[only_lo] = lp.lo[only_lo] + 1.0
    only_hi = has_hi & ~has_lo
    z[only_hi] = lp.hi[only_hi] - 1.0
    s = np.maximum(1.0, lp.b_ub - lp.a_ub @ z) if lp.num_ineq else np.zeros(0)
    w = np.ones(lp.num_ineq)
    y = np.zeros(lp.num_eq)
    zl = np.where(has_lo, 1.0, 0.0)
    zu = np.where(has_hi, 1.0, 0.0)
    return z, s, w, y, zl, zu


def _step_limit(vals: np.ndarray, step: np.ndarray) -> float:
    """Largest alpha with vals + alpha*step >= 0, assuming vals > 0."""
    neg = step < 0
    return float(np.min(-vals[neg] / step[neg], initial=np.inf))


def _cho_factor_jittered(mat: np.ndarray):
    """Lower Cholesky factor of ``mat``, nudging its diagonal (in place) up
    to six times when it is not numerically positive definite; None if it
    never is.  The factor is a new array: ``mat`` keeps its values."""
    for attempt in range(6):
        factor, info = _potrf(mat, lower=1, overwrite_a=0, clean=0)
        if info == 0:
            return factor
        if info < 0:
            raise ValueError(f"LAPACK potrf rejected its argument {-info}")
        jitter = 1e-12 * (10.0**attempt) * (1.0 + float(np.max(np.abs(mat))))
        mat[np.diag_indices_from(mat)] += jitter
    return None


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a factor from :func:`_cho_factor_jittered`; ``rhs`` is
    1-D or 2-D and is left unchanged."""
    if rhs.shape[0] == 0:  # potrs rejects an empty system
        return rhs.copy()
    sol, info = _potrs(factor, rhs, lower=1, overwrite_b=0)
    if info != 0:
        raise ValueError(f"LAPACK potrs rejected its argument {-info}")
    return sol


def _dense_normal_solver(a_hat_b: np.ndarray, dinv: np.ndarray, e_diag: np.ndarray):
    """Solve with M = A D^-1 A' + E from a dense Cholesky factor of M, with
    one round of iterative refinement; None if M cannot be factored."""
    m_mat = (a_hat_b * dinv[None, :]) @ a_hat_b.T
    m_mat.flat[:: m_mat.shape[0] + 1] += e_diag
    factor = _cho_factor_jittered(m_mat)
    if factor is None:
        return None

    def m_solve(rhs: np.ndarray) -> np.ndarray:
        sol = _cho_solve(factor, rhs)
        sol += _cho_solve(factor, rhs - m_mat @ sol)
        return sol

    return m_solve


def _disjoint_rows(a: sp.csr_matrix) -> np.ndarray:
    """Sorted indices of nonempty rows of ``a`` with pairwise disjoint
    column supports, picked greedily from the sparsest row up.

    For every diagonal D, ``A D A'`` restricted to these rows is
    diagonal.  In the flow LP they are the capacity rows (each flow
    column sits in exactly one) plus one epigraph row per commodity.
    """
    a = a.copy()
    a.sum_duplicates()
    a.eliminate_zeros()  # a row of stored zeros is empty
    nnz = np.diff(a.indptr)
    used = np.zeros(a.shape[1], dtype=bool)
    chosen = []
    for row in np.argsort(nnz, kind="stable"):
        cols = a.indices[a.indptr[row] : a.indptr[row + 1]]
        if cols.size and not used[cols].any():
            used[cols] = True
            chosen.append(row)
    return np.sort(np.asarray(chosen, dtype=int))


def _block_normal_solver(
    a_hat_b: sp.csr_matrix, rows1: np.ndarray, dinv: np.ndarray, e_diag: np.ndarray
):
    """Solve with the sparse M = A D^-1 A' + E by eliminating the rows
    ``rows1`` from :func:`_disjoint_rows`, with one round of iterative
    refinement against M; None if the Schur complement cannot be factored.

    M11 = M[R1, R1] is diagonal, so the elimination is exact and the only
    factor is the dense Schur complement S = M22 - M21 M11^-1 M12 of the
    other rows R2: 1 425 of 2 640 rows on ``team25x10``.
    """
    m_mat = (a_hat_b.multiply(dinv[None, :]) @ a_hat_b.T + sp.diags(e_diag)).tocsr()
    rows2 = np.setdiff1d(np.arange(m_mat.shape[0]), rows1)
    d1 = m_mat.diagonal()[rows1]
    m_rows2 = m_mat[rows2]
    m21 = m_rows2[:, rows1]
    m12 = m21.T.tocsr()
    # S is about a third full and M22 much sparser: assemble S dense
    schur = (m21.multiply(-1.0 / d1[None, :]) @ m12).toarray()
    m22 = m_rows2[:, rows2].tocoo()
    schur[m22.row, m22.col] += m22.data
    factor = _cho_factor_jittered(schur)
    if factor is None:
        return None

    def block_solve(rhs: np.ndarray) -> np.ndarray:
        d = d1 if rhs.ndim == 1 else d1[:, None]
        r1 = rhs[rows1]
        x = np.empty_like(rhs)
        x[rows2] = x2 = _cho_solve(factor, rhs[rows2] - m21 @ (r1 / d))
        x[rows1] = (r1 - m12 @ x2) / d
        return x

    def m_solve(rhs: np.ndarray) -> np.ndarray:
        sol = block_solve(rhs)
        sol += block_solve(rhs - m_mat @ sol)
        return sol

    return m_solve


def _solve_box_only(lp: StandardFormLP) -> LpResult:
    # No rows at all: optimum sits on the bounds picked by the objective sign.
    z = np.zeros(lp.num_vars)
    zl = np.zeros(lp.num_vars)
    zu = np.zeros(lp.num_vars)
    for j in range(lp.num_vars):
        cj, lo_j, hi_j = lp.c[j], lp.lo[j], lp.hi[j]
        if cj > 0:
            if not np.isfinite(hi_j):
                return LpResult(
                    "unbounded", z, np.inf, np.zeros(0), np.zeros(0), zl, zu, np.inf, 0,
                    f"variable {j} increases the objective without an upper bound",
                )
            z[j], zu[j] = hi_j, cj
        elif cj < 0:
            if not np.isfinite(lo_j):
                return LpResult(
                    "unbounded", z, np.inf, np.zeros(0), np.zeros(0), zl, zu, np.inf, 0,
                    f"variable {j} decreases the objective without a lower bound",
                )
            z[j], zl[j] = lo_j, -cj
        else:
            z[j] = lo_j if np.isfinite(lo_j) else (hi_j if np.isfinite(hi_j) else 0.0)
    obj = float(lp.c @ z)
    return LpResult("optimal", z, obj, np.zeros(0), np.zeros(0), zl, zu, 0.0, 0, "bounds only")


def _result_from_iterate(lp, status, z, w, y, zl, zu, gap, iters, message=""):
    return LpResult(
        status=status,
        x=z.copy(),
        objective=float(lp.c @ z),
        y_ineq=w.copy(),
        y_eq=y.copy(),
        z_lower=zl.copy(),
        z_upper=zu.copy(),
        gap=float(gap),
        iterations=iters,
        message=message,
    )


def solve_interior_point(lp: StandardFormLP, opts: Optional[SolverOptions] = None) -> LpResult:
    """Mehrotra predictor-corrector interior-point method with a simplex endgame.

    Works on the minimization form internally; the duals it returns are
    already in the maximization convention of :class:`StandardFormLP`
    (identical algebra, no sign flips needed).  Aims one order of
    magnitude below the requested tolerances.

    Degenerate problems can make progress level off near a relative
    accuracy of 1e-6 in double precision; such a stall is handed to the
    exact simplex engine (:func:`relayflow.simplex.solve_simplex`).  If
    the simplex fails too, the best iterate is reported: as optimal when
    it meets the requested tolerances, otherwise as ``iteration_limit``.
    Every returned point, whichever path produced it, satisfies the
    advertised tolerances or carries a non-optimal status saying why not.

    Problems with at most ``_DENSE_MAX_ENTRIES`` constraint-matrix
    entries are solved on dense arrays.  Larger ones keep the constraint
    and normal matrices sparse, eliminate the diagonal block of the rows
    that :func:`_disjoint_rows` picks, and factor only the dense Schur
    complement of the other rows; a cold ``team25x10`` solve (2 640 rows,
    1 215 of them eliminated) takes about 4 s instead of 13 s that way.

    Every solve, simplex endgame included, runs on one OpenBLAS thread.
    That thread count is process-wide: it holds for every thread of the
    process while the solve runs and is restored to the caller's value
    afterwards, also when the solve raises.  The package runs no threads
    of its own; solves that overlap in a caller's threads share one pin.
    """
    opts = opts if opts is not None else SolverOptions()
    if lp.num_ineq + lp.num_eq == 0:
        return _solve_box_only(lp)
    dense = lp.num_vars * (lp.num_ineq + lp.num_eq) <= _DENSE_MAX_ENTRIES
    with _ONE_BLAS_THREAD.scope():
        return _interior_point(lp, opts, dense)


def _interior_point(lp: StandardFormLP, opts: SolverOptions, dense: bool) -> LpResult:
    n, m_in, m_eq = lp.num_vars, lp.num_ineq, lp.num_eq
    has_lo = np.isfinite(lp.lo)
    has_hi = np.isfinite(lp.hi)
    bounded = has_lo | has_hi
    free = ~bounded
    n_free = int(np.count_nonzero(free))

    a_ub, a_eq = lp.a_ub, lp.a_eq
    a_hat = sp.vstack([a_eq, a_ub], format="csr") if m_eq else a_ub
    a_hat_b = a_hat[:, bounded]
    a_hat_f = a_hat[:, free].toarray() if n_free else np.zeros((m_eq + m_in, 0))

    # sparse per-call overhead dwarfs the arithmetic on small problems
    if dense:
        a_ub = a_ub.toarray()
        a_eq = a_eq.toarray()
        a_hat_b = a_hat_b.toarray()
    else:
        rows1 = _disjoint_rows(a_hat_b)
    a_ub_t = a_ub.T
    a_eq_t = a_eq.T
    a_hat_b_t = a_hat_b.T

    f = -lp.c
    b_ub = lp.b_ub
    b_eq = lp.b_eq

    z, s, w, y, zl, zu = _initial_point(lp, has_lo, has_hi)
    num_comp = m_in + int(np.count_nonzero(has_lo)) + int(np.count_nonzero(has_hi))
    scale_rhs = 1.0 + max(
        float(np.max(np.abs(b_ub), initial=0.0)),
        float(np.max(np.abs(b_eq), initial=0.0)),
    )
    scale_obj = 1.0 + float(np.max(np.abs(f), initial=0.0))

    # aim one order below the user's tolerances; report against the user's
    gap_target = max(1e-10, 1e-1 * opts.gap_tol)
    feas_target = max(1e-10, 1e-1 * opts.feas_tol)

    best = None
    best_err = np.inf
    progress_err = np.inf
    stall_count = 0
    eta = 0.9995

    for iteration in range(1, _MAX_ITERS + 1):
        gl = np.where(has_lo, z - lp.lo, 1.0)
        gu = np.where(has_hi, lp.hi - z, 1.0)

        r_d = f + a_ub_t @ w + a_eq_t @ y - zl + zu
        r_eq = a_eq @ z - b_eq
        r_in = (a_ub @ z + s - b_ub) if m_in else np.zeros(0)

        mu = (
            float(w @ s)
            + float(zl[has_lo] @ gl[has_lo])
            + float(zu[has_hi] @ gu[has_hi])
        ) / max(num_comp, 1)

        p_obj = float(f @ z)
        d_obj = (
            -float(b_ub @ w)
            - float(b_eq @ y)
            + float(lp.lo[has_lo] @ zl[has_lo])
            - float(lp.hi[has_hi] @ zu[has_hi])
        )
        rel_gap = abs(p_obj - d_obj) / (1.0 + abs(p_obj))
        rel_pinf = max(
            float(np.abs(r_eq).max(initial=0.0)), float(np.abs(r_in).max(initial=0.0))
        ) / scale_rhs
        rel_dinf = float(np.abs(r_d).max(initial=0.0)) / scale_obj
        err = max(rel_gap, rel_pinf, rel_dinf)

        if err < 0.9 * progress_err:
            progress_err = err
            stall_count = 0
        else:
            stall_count += 1
        if err < best_err:
            best_err = err
            best = (
                z.copy(), w.copy(), y.copy(), zl.copy(), zu.copy(),
                rel_gap, iteration - 1,
            )

        if rel_gap <= gap_target and rel_pinf <= feas_target and rel_dinf <= feas_target:
            return _result_from_iterate(
                lp, "optimal", z, w, y, zl, zu, rel_gap, iteration - 1, "converged"
            )

        if stall_count >= 12:
            break  # numerically stuck; hand over to the simplex

        if d_obj > _HUGE * scale_obj and rel_dinf <= 1e-4:
            return _result_from_iterate(
                lp, "infeasible", z, w, y, zl, zu, rel_gap, iteration - 1,
                "dual objective diverging: primal infeasible",
            )
        if p_obj < -_HUGE * scale_obj and rel_pinf <= 1e-4:
            return _result_from_iterate(
                lp, "unbounded", z, w, y, zl, zu, rel_gap, iteration - 1,
                "primal objective diverging: problem unbounded",
            )

        # normal matrix over the bounded block plus slack scaling
        d_diag = np.where(has_lo, zl / gl, 0.0) + np.where(has_hi, zu / gu, 0.0)
        dinv = 1.0 / d_diag[bounded]
        e_diag = np.concatenate([np.zeros(m_eq), s / w]) if m_in else np.zeros(m_eq)
        if dense:
            m_solve = _dense_normal_solver(a_hat_b, dinv, e_diag)
        else:
            m_solve = _block_normal_solver(a_hat_b, rows1, dinv, e_diag)
        if m_solve is None:
            break

        if n_free:
            u_mat = m_solve(a_hat_f)
            schur = a_hat_f.T @ u_mat
        else:
            u_mat = None
            schur = None

        def solve_free_block(rhs: np.ndarray) -> np.ndarray:
            # singular when a free variable is not pinned by any row;
            # minimum-norm step lets the divergence checks classify it
            try:
                return np.linalg.solve(schur, rhs)
            except np.linalg.LinAlgError:
                return np.linalg.lstsq(schur, rhs, rcond=None)[0]

        def newton_core(e_d, e_eq, e_in, r_ws, r_l, r_u):
            q1 = -e_d - np.where(has_lo, r_l / gl, 0.0) + np.where(has_hi, r_u / gu, 0.0)
            q_hat = np.concatenate([-e_eq, -e_in + r_ws / w]) if m_in else -e_eq
            q1_b = q1[bounded]
            v = m_solve(a_hat_b @ (dinv * q1_b) - q_hat)
            dz = np.empty(n)
            if n_free:
                dz[free] = dz_f = solve_free_block(q1[free] - a_hat_f.T @ v)
                dy_hat = v + u_mat @ dz_f
            else:
                dy_hat = v
            dz[bounded] = dinv * (q1_b - a_hat_b_t @ dy_hat)
            dy = dy_hat[:m_eq]
            dw = dy_hat[m_eq:]
            ds = (-e_in - a_ub @ dz) if m_in else np.zeros(0)
            dzl = np.where(has_lo, (-r_l - zl * dz) / gl, 0.0)
            dzu = np.where(has_hi, (-r_u + zu * dz) / gu, 0.0)
            return dz, ds, dw, dy, dzl, dzu

        def newton_step(r_ws, r_l, r_u):
            # the elimination loses digits once the scaling matrices span
            # many orders of magnitude; two rounds of iterative refinement
            # against the full linearized system restore the direction
            dz, ds, dw, dy, dzl, dzu = newton_core(r_d, r_eq, r_in, r_ws, r_l, r_u)
            for _ in range(1 if mu > 1e-6 else 2):
                e_d = r_d + (a_ub_t @ dw + a_eq_t @ dy - dzl + dzu)
                e_eq = r_eq + a_eq @ dz
                e_in = (r_in + a_ub @ dz + ds) if m_in else np.zeros(0)
                e_ws = (r_ws + w * ds + s * dw) if m_in else np.zeros(0)
                e_l = np.where(has_lo, r_l + zl * dz + gl * dzl, 0.0)
                e_u = np.where(has_hi, r_u - zu * dz + gu * dzu, 0.0)
                cz, cs, cw, cy, czl, czu = newton_core(e_d, e_eq, e_in, e_ws, e_l, e_u)
                dz = dz + cz
                ds = ds + cs
                dw = dw + cw
                dy = dy + cy
                dzl = dzl + czl
                dzu = dzu + czu
            return dz, ds, dw, dy, dzl, dzu

        def step_lengths(dz, ds, dw, dzl, dzu):
            # one limit over every primal, and one over every dual, quantity
            a_p = _step_limit(
                np.concatenate([s, gl[has_lo], gu[has_hi]]), np.concatenate([ds, dz[has_lo], -dz[has_hi]])
            )
            a_d = _step_limit(
                np.concatenate([w, zl[has_lo], zu[has_hi]]), np.concatenate([dw, dzl[has_lo], dzu[has_hi]])
            )
            return a_p, a_d

        # predictor
        r_ws = w * s
        r_l = np.where(has_lo, zl * gl, 0.0)
        r_u = np.where(has_hi, zu * gu, 0.0)
        dz_a, ds_a, dw_a, _, dzl_a, dzu_a = newton_step(r_ws, r_l, r_u)
        a_p_aff, a_d_aff = step_lengths(dz_a, ds_a, dw_a, dzl_a, dzu_a)
        a_p_aff, a_d_aff = min(1.0, a_p_aff), min(1.0, a_d_aff)

        mu_aff = (
            float((w + a_d_aff * dw_a) @ (s + a_p_aff * ds_a))
            + float(
                (zl + a_d_aff * dzl_a)[has_lo] @ (gl + a_p_aff * dz_a)[has_lo]
            )
            + float(
                (zu + a_d_aff * dzu_a)[has_hi] @ (gu - a_p_aff * dz_a)[has_hi]
            )
        ) / max(num_comp, 1)
        sigma = min(1.0, max(1e-8, (mu_aff / mu) ** 3)) if mu > 0 else 0.1

        # corrector
        r_ws = w * s + dw_a * ds_a - sigma * mu
        r_l = np.where(has_lo, zl * gl + dzl_a * dz_a - sigma * mu, 0.0)
        r_u = np.where(has_hi, zu * gu + dzu_a * (-dz_a) - sigma * mu, 0.0)
        dz, ds, dw, dy, dzl, dzu = newton_step(r_ws, r_l, r_u)
        a_p, a_d = step_lengths(dz, ds, dw, dzl, dzu)
        if min(a_p, a_d) < 0.2 * min(a_p_aff, a_d_aff):
            # the second-order terms can strangle the step on degenerate
            # problems; retreat to a plainly centered direction
            r_ws = w * s - sigma * mu
            r_l = np.where(has_lo, zl * gl - sigma * mu, 0.0)
            r_u = np.where(has_hi, zu * gu - sigma * mu, 0.0)
            dz, ds, dw, dy, dzl, dzu = newton_step(r_ws, r_l, r_u)
            a_p, a_d = step_lengths(dz, ds, dw, dzl, dzu)
        a_p = min(1.0, eta * a_p)
        a_d = min(1.0, eta * a_d)
        if a_p < 1e-12 and a_d < 1e-12:
            break

        z += a_p * dz
        s += a_p * ds
        w += a_d * dw
        y += a_d * dy
        zl += a_d * dzl
        zu += a_d * dzu

    # did not hit the tight target; hand the problem to the exact simplex
    # engine, then report the best iterate honestly
    if best is not None:
        z_b, w_b, y_b, zl_b, zu_b, gap_b, it_b = best
        from .simplex import solve_simplex

        rescue = solve_simplex(lp, opts)
        if rescue.status in ("optimal", "infeasible", "unbounded"):
            rescue.iterations += it_b
            return rescue
        if best_err <= max(opts.gap_tol, opts.feas_tol):
            return _result_from_iterate(
                lp, "optimal", z_b, w_b, y_b, zl_b, zu_b, gap_b, it_b,
                f"converged to {best_err:.2e} (tight target not reached)",
            )
        return _result_from_iterate(
            lp, "iteration_limit", z_b, w_b, y_b, zl_b, zu_b, gap_b, it_b,
            f"best relative error {best_err:.2e} after {_MAX_ITERS} iterations",
        )
    return LpResult(
        "numerical", z, float(lp.c @ z), w, y, zl, zu, np.inf, _MAX_ITERS,
        "factorization failed on the first iteration",
    )


# ---------------------------------------------------------------------------
# external engine adapter
# ---------------------------------------------------------------------------


def scipy_linprog_solve(lp: StandardFormLP, opts: Optional[SolverOptions] = None) -> LpResult:
    """Engine adapter around scipy.optimize.linprog (HiGHS).

    Satisfies the same contract as the in-repo engine, including the
    maximization dual conventions, so it can be swapped in through
    ``SolverOptions.engine`` or used as an independent cross-check.
    """
    from scipy.optimize import linprog

    bounds = [
        (lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
        for lo, hi in zip(lp.lo, lp.hi)
    ]
    res = linprog(
        c=-lp.c,
        A_ub=lp.a_ub if lp.num_ineq else None,
        b_ub=lp.b_ub if lp.num_ineq else None,
        A_eq=lp.a_eq if lp.num_eq else None,
        b_eq=lp.b_eq if lp.num_eq else None,
        bounds=bounds,
        method="highs",
    )
    status = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}.get(
        res.status, "numerical"
    )
    if res.x is None:
        zeros_n = np.zeros(lp.num_vars)
        return LpResult(
            status, zeros_n, np.nan, np.zeros(lp.num_ineq), np.zeros(lp.num_eq),
            zeros_n.copy(), zeros_n.copy(), np.inf, int(getattr(res, "nit", 0)), res.message,
        )
    x = np.asarray(res.x, dtype=float)
    y_ineq = -np.asarray(res.ineqlin.marginals, dtype=float) if lp.num_ineq else np.zeros(0)
    y_eq = -np.asarray(res.eqlin.marginals, dtype=float) if lp.num_eq else np.zeros(0)
    z_lower = np.where(np.isfinite(lp.lo), np.asarray(res.lower.marginals, dtype=float), 0.0)
    z_upper = np.where(np.isfinite(lp.hi), -np.asarray(res.upper.marginals, dtype=float), 0.0)
    result = LpResult(
        status=status,
        x=x,
        objective=float(lp.c @ x),
        y_ineq=np.maximum(y_ineq, 0.0),
        y_eq=y_eq,
        z_lower=np.maximum(z_lower, 0.0),
        z_upper=np.maximum(z_upper, 0.0),
        gap=np.nan,
        iterations=int(getattr(res, "nit", 0)),
        message=res.message,
    )
    if result.optimal:
        result.gap = check_kkt(lp, result).gap
    return result
