"""Linear programming with primal and dual solutions.

Solves maximization LPs of the form

    max  c'z   s.t.   A z <= b,   G z = h,   lo <= z <= hi

and returns, alongside the optimizer, the dual vector of every
constraint: inequality duals (nonnegative), equality duals (free) and
bound duals.  Downstream code reads the inequality duals as shadow
prices, so the interior point iterates to a relative accuracy of 1e-9,
and every result can be re-checked with :func:`check_kkt`.

The default engine makes one decision.  An LP with at least one row, a
finite bound on every column and at most ``_DENSE_MAX_ENTRIES``
constraint-matrix entries, as every flow LP of a small team is, goes
to an infeasible-start predictor-corrector interior-point method on the
reduced normal equations, which it factors densely.  Every other LP
goes to HiGHS's interior point with crossover (``highs-ipm``), whose
result is returned as it is.  Every solve runs on one OpenBLAS thread.
The in-repo iterates converge to the analytic center of the optimal
face, so when the dual optimum is not unique the reported duals are
the centered ones, which is what a subgradient-style consumer wants;
HiGHS's are the duals of its optimal vertex, whose complementarity is
exact.

The in-repo interior point itself has two exits: it converges, or it
hands the problem to the dense two-phase simplex in
:mod:`relayflow.simplex` and returns its result, which also classifies
infeasible and unbounded LPs.  The hand-off happens when progress
stalls short of the target, as it can on degenerate problems, and also
when a step collapses, a factorization fails or the iteration cap is
reached.

Any callable with the signature ``engine(lp, options) -> LpResult`` can
be plugged in through ``SolverOptions.engine``; an adapter around
``scipy.optimize.linprog`` is provided as an alternative engine and as
an independent cross-check in the test suite.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import importlib
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

# interior-point iteration cap; a solve that reaches it goes to the simplex
_MAX_ITERS = 200
# relative duality gap and primal and dual infeasibility the interior
# point stops at
_TARGET = 1e-9
# constraint-matrix entries (variables x rows) up to which the in-repo
# interior point solves the LP on dense arrays; larger problems go to HiGHS
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
    # the dense arrays the interior point solves this LP on, built by
    # freeze() and shared with every copy with_data() makes
    _dense: Optional["_DenseForm"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        n = self.c.shape[0]
        if n == 0:
            raise ValueError("an LP needs at least one variable")
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
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("bounds must not be NaN")
        if np.any(self.lo > self.hi):
            raise ValueError("lower bound exceeds upper bound")
        data = (self.c, self.b_ub, self.b_eq, self.a_ub.data, self.a_eq.data)
        if not all(np.isfinite(arr).all() for arr in data):
            raise ValueError("objective, constraint matrices and right-hand sides must be finite")

    def freeze(self) -> "StandardFormLP":
        """Make the constraint matrices, ``b_eq`` and the bounds read-only,
        build the dense arrays the in-repo interior point will solve this
        LP on (none for an LP that goes to HiGHS), and return the LP."""
        for arr in (self.a_ub.data, self.a_ub.indices, self.a_ub.indptr, self.a_eq.data,
                    self.a_eq.indices, self.a_eq.indptr, self.b_eq, self.lo, self.hi):
            arr.flags.writeable = False
        if _takes_dense(self):
            self._dense = _dense_form(self)
        return self

    def with_data(self, c, b_ub) -> "StandardFormLP":
        """A copy with objective ``c`` and inequality right-hand side
        ``b_ub`` that shares every other array, the dense ones of
        :meth:`freeze` included."""
        out = copy.copy(self)
        out.c = np.asarray(c, dtype=float).reshape(-1)
        out.b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
        if out.c.shape != self.c.shape or out.b_ub.shape != self.b_ub.shape:
            raise ValueError("with_data needs c and b_ub of the LP's shapes")
        if not (np.isfinite(out.c).all() and np.isfinite(out.b_ub).all()):
            raise ValueError("objective and right-hand sides must be finite")
        return out

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
    engine: Optional[Callable] = None  # engine(lp, options) -> LpResult; None for the default


@dataclass
class LpResult:
    # optimal | infeasible | unbounded | numerical, or iteration_limit from
    # HiGHS; the in-repo interior point itself returns only optimal, every
    # other status is the verdict of the simplex or of HiGHS
    status: str
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

    Waking more OpenBLAS threads costs more than they save on the small
    dense normal matrices the interior point factors (132 rows on
    ``team5x4``).  The count is process-wide, so overlapping scopes
    (nested, or in concurrent threads) share one pin, and the last to
    leave restores the counts the first one found.
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


def _step_limit(vals: np.ndarray, step: np.ndarray) -> float:
    """Largest alpha with vals + alpha*step >= 0, assuming vals > 0."""
    neg = step < 0
    return float((-vals[neg] / step[neg]).min(initial=np.inf))


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
    left unchanged."""
    sol, info = _potrs(factor, rhs, lower=1, overwrite_b=0)
    if info != 0:
        raise ValueError(f"LAPACK potrs rejected its argument {-info}")
    return sol


def _dense_normal_solver(a_hat: np.ndarray, dinv: np.ndarray, e_diag: np.ndarray):
    """Solve with M = A D^-1 A' + E from a dense Cholesky factor of M, with
    one round of iterative refinement; None if M cannot be factored."""
    m_mat = (a_hat * dinv[None, :]) @ a_hat.T
    diag = m_mat.reshape(-1)[:: m_mat.shape[0] + 1]
    diag += e_diag
    factor = _cho_factor_jittered(m_mat)
    if factor is None:
        return None

    def m_solve(rhs: np.ndarray) -> np.ndarray:
        sol = _cho_solve(factor, rhs)
        sol += _cho_solve(factor, rhs - m_mat @ sol)
        return sol

    return m_solve


def solve_interior_point(lp: StandardFormLP, opts: Optional[SolverOptions] = None) -> LpResult:
    """Mehrotra predictor-corrector interior-point method with an exact endgame.

    Works on the minimization form internally; the duals it returns are
    already in the maximization convention of :class:`StandardFormLP`
    (identical algebra, no sign flips needed).  Stops at ``_TARGET``
    (1e-9) in relative duality gap and in primal and dual infeasibility.
    ``opts`` is accepted for the engine signature and not read.

    The interior point takes an LP with at least one row, a finite bound
    on every column and at most ``_DENSE_MAX_ENTRIES`` constraint-matrix
    entries, as the flow LP of a team of up to about 13 agents is.
    Every other LP goes to HiGHS's interior point with crossover
    (``highs-ipm``), and its result is returned as it is: ``status``,
    ``message`` and ``iterations`` are HiGHS's, and the duals are those
    of its optimal vertex, so their complementarity is exact and they
    pass the same verification.  A cold ``team25x10`` solve (30 375
    columns, 2 640 rows) takes about 2 s that way on a 2-core host,
    spawn seed 1 included.

    The interior point works on dense arrays and has two exits.  It
    returns ``optimal`` ("converged") when the target is met.
    Otherwise (degenerate problems can make progress level off near a
    relative accuracy of 1e-6 in double precision; a step can also
    collapse, a factorization fail, or ``_MAX_ITERS`` run out, as on an
    infeasible or unbounded LP)
    :func:`relayflow.simplex.solve_simplex` finishes the solve from
    scratch and its result is returned as is, ``infeasible`` and
    ``unbounded`` verdicts included.  ``iterations`` then counts the
    interior-point Newton steps (the simplex reports none of its own).

    Every solve, exact engine included, runs on one OpenBLAS thread.
    That thread count is process-wide: it holds for every thread of the
    process while the solve runs and is restored to the caller's value
    afterwards, also when the solve raises.  The package runs no threads
    of its own; solves that overlap in a caller's threads share one pin.
    """
    with _ONE_BLAS_THREAD.scope():
        if _takes_dense(lp):
            return _interior_point(lp)
        return _highs(lp, "highs-ipm")


def _takes_dense(lp: StandardFormLP) -> bool:
    """Whether the in-repo interior point takes the LP: at least one row,
    a finite bound on every column, at most ``_DENSE_MAX_ENTRIES`` entries."""
    num_rows = lp.num_ineq + lp.num_eq
    bounded = np.isfinite(lp.lo) | np.isfinite(lp.hi)
    return bool(num_rows) and bool(bounded.all()) and lp.num_vars * num_rows <= _DENSE_MAX_ENTRIES


class _DenseForm(NamedTuple):
    """The arrays the interior point works on that depend only on the
    constraint matrices and the bounds."""

    a_ub: np.ndarray
    a_eq: np.ndarray
    a_hat: np.ndarray  # [a_eq; a_ub]
    # columns with a finite lower (upper) bound, as a slice when they are
    # contiguous, else as an index array, and their bounds
    lo_at: object
    hi_at: object
    lo: np.ndarray
    hi: np.ndarray
    z0: np.ndarray  # the starting point: mid-box, or one unit inside a one-sided bound
    source: tuple  # the a_ub, a_eq, lo and hi objects it was built from

    def built_from(self, lp: StandardFormLP) -> bool:
        return all(a is b for a, b in zip(self.source, (lp.a_ub, lp.a_eq, lp.lo, lp.hi)))


def _columns(mask: np.ndarray):
    """The positions of ``mask``'s True entries: a slice when they are
    contiguous, else an index array."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return slice(0, 0)
    if idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _dense_form(lp: StandardFormLP) -> _DenseForm:
    """Dense copies of the constraint matrices (sparse per-call overhead
    dwarfs the arithmetic at the sizes the interior point takes) and the
    bound layout, all read-only."""
    has_lo, has_hi = np.isfinite(lp.lo), np.isfinite(lp.hi)
    z0 = np.zeros(lp.num_vars)
    both = has_lo & has_hi
    z0[both] = 0.5 * (lp.lo[both] + lp.hi[both])
    only_lo = has_lo & ~has_hi
    z0[only_lo] = lp.lo[only_lo] + 1.0
    only_hi = has_hi & ~has_lo
    z0[only_hi] = lp.hi[only_hi] - 1.0
    form = _DenseForm(
        a_ub=lp.a_ub.toarray(),
        a_eq=lp.a_eq.toarray(),
        a_hat=sp.vstack([lp.a_eq, lp.a_ub], format="csr").toarray(),
        lo_at=_columns(has_lo),
        hi_at=_columns(has_hi),
        lo=lp.lo[has_lo],
        hi=lp.hi[has_hi],
        z0=z0,
        source=(lp.a_ub, lp.a_eq, lp.lo, lp.hi),
    )
    for arr in form:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return form


def _simplex(lp: StandardFormLP) -> LpResult:
    # simplex imports this module; the engine is looked up through the
    # module attribute, so a wrapper installed on simplex.solve_simplex sees it
    from . import simplex

    return simplex.solve_simplex(lp)


def _interior_point(lp: StandardFormLP) -> LpResult:
    form = lp._dense
    if form is None or not form.built_from(lp):  # none cached, or a caller replaced an array
        form = _dense_form(lp)
    m_in, m_eq = lp.num_ineq, lp.num_eq
    a_ub, a_eq, a_hat = form.a_ub, form.a_eq, form.a_hat
    a_ub_t, a_eq_t, a_hat_t = a_ub.T, a_eq.T, a_hat.T
    lo_at, hi_at = form.lo_at, form.hi_at

    f = -lp.c
    b_ub = lp.b_ub
    b_eq = lp.b_eq

    # The complementarity pairs, stacked over the finite bounds only:
    # pv = [s; z - lo; hi - z] and dv = [w; z_l; z_u] on the blocks ``wb``
    # (slacks), ``lb``/``ub`` (lower/upper bounds) and ``bb`` (both).  A
    # direction carries dpv = [ds; dz; -dz] and ddv = [dw; dz_l; dz_u], so
    # each complementarity product, the dual update (-r - dv dpv) / pv,
    # the refinement residual r + dv dpv + pv ddv, the updates and the
    # step limits are one array operation each.  Every dot and matrix
    # product keeps its operands and order; the elementwise ops differ
    # only by exact rearrangements (x - (-y) as x + y, no + 0.0 on a
    # column without that bound), so the iterates match to the last bit.
    nl = form.lo.size
    num_comp = m_in + nl + form.hi.size  # positive: every column has a finite bound
    wb = slice(0, m_in)
    lb = slice(m_in, m_in + nl)
    ub = slice(m_in + nl, num_comp)
    bb = slice(m_in, num_comp)
    z = form.z0.copy()
    y = np.zeros(m_eq)
    pv = np.empty(num_comp)
    pv[wb] = np.maximum(1.0, b_ub - lp.a_ub @ z)
    dv = np.ones(num_comp)
    s, gl, gu = pv[wb], pv[lb], pv[ub]
    w, zl, zu = dv[wb], dv[lb], dv[ub]
    e_diag = np.zeros(m_eq + m_in)
    scale_rhs = 1.0 + max(
        float(np.max(np.abs(b_ub), initial=0.0)),
        float(np.max(np.abs(b_eq), initial=0.0)),
    )
    scale_obj = 1.0 + float(np.max(np.abs(f), initial=0.0))

    progress_err = np.inf
    stall_count = 0
    eta = 0.9995

    iters = 0  # Newton steps taken
    while iters < _MAX_ITERS:
        np.subtract(z[lo_at], form.lo, out=gl)
        np.subtract(form.hi, z[hi_at], out=gu)

        r_d = f + a_ub_t @ w + a_eq_t @ y
        r_d[lo_at] -= zl
        r_d[hi_at] += zu
        r_eq = a_eq @ z - b_eq
        r_in = a_ub @ z + s - b_ub

        mu = (float(w @ s) + float(zl @ gl) + float(zu @ gu)) / num_comp

        p_obj = float(f @ z)
        d_obj = -float(b_ub @ w) - float(b_eq @ y) + float(form.lo @ zl) - float(form.hi @ zu)
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

        if rel_gap <= _TARGET and rel_pinf <= _TARGET and rel_dinf <= _TARGET:
            z_lower = np.zeros(lp.num_vars)
            z_upper = np.zeros(lp.num_vars)
            z_lower[lo_at] = zl
            z_upper[hi_at] = zu
            return LpResult(
                status="optimal",
                x=z.copy(),
                objective=float(lp.c @ z),
                y_ineq=w.copy(),
                y_eq=y.copy(),
                z_lower=z_lower,
                z_upper=z_upper,
                gap=rel_gap,
                iterations=iters,
                message="converged",
            )

        if stall_count >= 12:
            break  # numerically stuck

        # normal matrix plus slack scaling: D = zl/gl + zu/gu per column
        ratio = dv[bb] / pv[bb]
        dinv = np.zeros(lp.num_vars)
        dinv[lo_at] = ratio[:nl]
        dinv[hi_at] += ratio[nl:]
        dinv = 1.0 / dinv
        e_diag[m_eq:] = s / w
        m_solve = _dense_normal_solver(a_hat, dinv, e_diag)
        if m_solve is None:
            break
        # the divisors of the residuals in newton_core: w on the slack
        # block, z - lo and hi - z on the bound blocks
        pw = pv.copy()
        pw[wb] = w

        def newton_core(e_d, e_eq, e_in, rr):
            # rr holds the complementarity residuals on the blocks of pv
            q = rr / pw
            q1 = -e_d
            q1[lo_at] -= q[lb]
            q1[hi_at] += q[ub]
            rhs = a_hat @ (dinv * q1)
            rhs[:m_eq] += e_eq
            rhs[m_eq:] -= q[wb] - e_in
            dy_hat = m_solve(rhs)
            dz = dinv * (q1 - a_hat_t @ dy_hat)
            dpv = np.empty(num_comp)
            dpv[wb] = -e_in - a_ub @ dz
            dpv[lb] = dz[lo_at]
            dpv[ub] = -dz[hi_at]
            # the duals in one pass; on the slack block the normal
            # equations' dw takes the place of that formula
            ddv = (-rr - dv * dpv) / pv
            ddv[wb] = dy_hat[m_eq:]
            return dz, dy_hat[:m_eq], dpv, ddv

        def newton_step(rr):
            # the elimination loses digits once the scaling matrices span
            # many orders of magnitude; two rounds of iterative refinement
            # against the full linearized system restore the direction
            dz, dy, dpv, ddv = newton_core(r_d, r_eq, r_in, rr)
            for _ in range(1 if mu > 1e-6 else 2):
                e_d = a_ub_t @ ddv[wb] + a_eq_t @ dy
                e_d[lo_at] -= ddv[lb]
                e_d[hi_at] += ddv[ub]
                e_d += r_d
                e_eq = r_eq + a_eq @ dz
                e_in = r_in + a_ub @ dz + dpv[wb]
                e_c = rr + dv * dpv + pv * ddv
                cz, cy, cpv, cdv = newton_core(e_d, e_eq, e_in, e_c)
                dz += cz
                dy += cy
                dpv += cpv
                ddv += cdv
            return dz, dy, dpv, ddv

        # predictor
        dz_a, _, dpv_a, ddv_a = newton_step(dv * pv)
        a_p_aff = min(1.0, _step_limit(pv, dpv_a))
        a_d_aff = min(1.0, _step_limit(dv, ddv_a))

        pv_aff = pv + a_p_aff * dpv_a
        dv_aff = dv + a_d_aff * ddv_a
        mu_aff = (
            float(dv_aff[wb] @ pv_aff[wb]) + float(dv_aff[lb] @ pv_aff[lb]) + float(dv_aff[ub] @ pv_aff[ub])
        ) / num_comp
        sigma = min(1.0, max(1e-8, (mu_aff / mu) ** 3)) if mu > 0 else 0.1

        # corrector
        dz, dy, dpv, ddv = newton_step(dv * pv + ddv_a * dpv_a - sigma * mu)
        a_p, a_d = _step_limit(pv, dpv), _step_limit(dv, ddv)
        if min(a_p, a_d) < 0.2 * min(a_p_aff, a_d_aff):
            # the second-order terms can strangle the step on degenerate
            # problems; retreat to a plainly centered direction
            dz, dy, dpv, ddv = newton_step(dv * pv - sigma * mu)
            a_p, a_d = _step_limit(pv, dpv), _step_limit(dv, ddv)
        a_p = min(1.0, eta * a_p)
        a_d = min(1.0, eta * a_d)
        if a_p < 1e-12 and a_d < 1e-12:
            break

        z += a_p * dz
        s += a_p * dpv[wb]
        dv += a_d * ddv
        y += a_d * dy
        iters += 1

    # stalled, collapsed step, failed factor or iteration cap: the simplex
    # decides
    result = _simplex(lp)
    result.iterations += iters
    return result


# ---------------------------------------------------------------------------
# external engine adapter
# ---------------------------------------------------------------------------


def scipy_linprog_solve(lp: StandardFormLP, opts: Optional[SolverOptions] = None) -> LpResult:
    """Engine adapter around scipy.optimize.linprog (HiGHS, ``method="highs"``).

    Satisfies the same contract as the in-repo engine, including the
    maximization dual conventions, so it can be swapped in through
    ``SolverOptions.engine`` or used as an independent cross-check.
    """
    return _highs(lp, "highs")


def _highs(lp: StandardFormLP, method: str) -> LpResult:
    """Solve with HiGHS through scipy.optimize.linprog's ``method``."""
    from scipy.optimize import linprog

    res = linprog(
        c=-lp.c,
        A_ub=lp.a_ub if lp.num_ineq else None,
        b_ub=lp.b_ub if lp.num_ineq else None,
        A_eq=lp.a_eq if lp.num_eq else None,
        b_eq=lp.b_eq if lp.num_eq else None,
        # linprog reads infinite bounds as absent ones
        bounds=np.column_stack([lp.lo, lp.hi]),
        method=method,
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
