"""Linear programming with primal and dual solutions.

Solves maximization LPs of the form

    max  c'z   s.t.   A z <= b,   G z = h,   lo <= z <= hi

and returns, alongside the optimizer, the dual vector of every
constraint: inequality duals (nonnegative), equality duals (free) and
bound duals.  Downstream code reads the inequality duals as shadow
prices, so the interior point iterates to a relative accuracy of 1e-9,
and every result can be re-checked with :func:`check_kkt`.

The default engine makes one decision (:func:`_takes_dense`).  An LP
with at least one row, a finite lower bound on every column and at most
``_DENSE_MAX_ENTRIES`` (20 000) constraint-matrix entries goes to an
infeasible-start predictor-corrector interior-point method on the
reduced normal equations, which it factors densely at the BLAS's own
thread count, unless it is marked for HiGHS alone, as
:mod:`relayflow.mcfp` marks the flow LP of every team of more than six
agents.  Every other LP goes to HiGHS's interior point with crossover
(``highs-ipm``), whose result is returned as it is.  The in-repo
iterates converge to the analytic center of the optimal face, so when
the dual optimum is not unique the reported duals are the centered
ones, which is what a subgradient-style consumer wants; HiGHS's are the
duals of its optimal vertex, whose complementarity is exact.

A run that re-solves one layout at every step, an ascent, a mission or
a finite-difference gradient, solves with a :class:`WarmEngine` of its
own (:func:`run_options`).  It routes as the default engine does, but
keeps one HiGHS model per layout and re-solves it by the dual simplex
from the last optimal basis.

The in-repo interior point itself has two exits: it converges, or it
hands the problem to the dense two-phase simplex in
:mod:`relayflow.simplex` and returns its result, which also classifies
infeasible and unbounded LPs.  The hand-off happens when progress
stalls short of the target, as it can on degenerate problems, and also
when a step collapses, a factorization fails or the iteration cap is
reached.

Any callable with the signature ``engine(lp, options) -> LpResult`` can
be plugged in through ``SolverOptions.engine``; :func:`scipy_linprog_solve`,
HiGHS with its own choice of solver, is provided as an alternative
engine and as an independent cross-check in the test suite.

Importing this module loads numpy and no compiled file of scipy.  The
interior point takes ``dpotrf`` and ``dpotrs`` from scipy's LAPACK
extension, which loads on its first Cholesky factorization, and HiGHS
runs through scipy's HiGHS bindings, which load the first time an LP
goes to HiGHS; a run on HiGHS alone never loads the LAPACK extension.
The constraint matrices are :class:`CsrMatrix` records, whose products
sum as scipy.sparse's do.  So building, solving and checking any LP
loads no scipy subpackage: neither ``scipy.sparse``, ``scipy.linalg``
nor ``scipy.optimize``.
"""

from __future__ import annotations

import copy
import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

# interior-point iteration cap; a solve that reaches it goes to the simplex
_MAX_ITERS = 200
# relative duality gap and primal and dual infeasibility the interior
# point stops at
_TARGET = 1e-9
# constraint-matrix entries (variables x rows) up to which the in-repo
# interior point solves the LP on dense arrays; larger problems go to HiGHS.
# A flow LP also needs a team of at most six agents (mcfp._DENSE_MAX_AGENTS):
# the fixture LPs, whose centered duals the benchmark's reference
# trajectories rest on, have at most 8 432 entries; the 7-agent mission's
# has 2 444 and team5x4's 50 820, and both go to HiGHS
_DENSE_MAX_ENTRIES = 20_000


def _load_extension(name: str):
    """scipy's compiled module ``name``, loaded from its file.

    ``import scipy.linalg`` would also import scipy's array-API layer
    and, through it, ``numpy.f2py`` and ``numpy.testing``, and
    ``import scipy.optimize`` imports ``scipy.sparse`` as well; loading
    the one extension skips all of that.  ``find_spec`` locates the scipy
    package without running its ``__init__``.  A copy already in
    ``sys.modules`` is reused.  A loaded one is left out of
    ``sys.modules``, submodules included, where a later import of its
    subpackage finds the package loaded in full.
    """
    if name in sys.modules:  # imported already, with its package
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("relayflow needs scipy, whose package was not found", name="scipy")
    path = os.path.join(spec.submodule_search_locations[0], *name.split(".")[1:])
    path += importlib.machinery.EXTENSION_SUFFIXES[0]
    if not os.path.isfile(path):
        raise ImportError(f"scipy's compiled module {path} is missing", name=name, path=path)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    before = set(sys.modules)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    # a single-phase extension enters itself in sys.modules as it loads,
    # and a pybind11 one its submodules too
    for key in set(sys.modules) - before:
        if key == name or key.startswith(name + "."):
            del sys.modules[key]
    return module


@functools.cache
def _flapack():
    """scipy's LAPACK extension, loaded on the first Cholesky call: only
    the in-repo interior point needs it."""
    return _load_extension("scipy.linalg._flapack")


# the LAPACK Cholesky routines behind scipy's cho_factor and cho_solve,
# called directly: on the small normal matrices of flow LPs the wrappers'
# argument handling costs more than the arithmetic.  They stay scipy's:
# numpy bundles another OpenBLAS build, whose potrf rounds differently
def _potrf(*args, **kwargs):
    return _flapack().dpotrf(*args, **kwargs)


def _potrs(*args, **kwargs):
    return _flapack().dpotrs(*args, **kwargs)


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A read-only matrix in compressed sparse row form.

    The constraint-matrix format of :class:`StandardFormLP`: row ``i``
    stores ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, as in ``scipy.sparse``.  Its
    products sum in the order scipy's do, so each result is scipy's to
    the last bit: ``A @ x`` adds each row's products in stored order, and
    :meth:`rmatvec` adds ``A' y`` entry by entry in stored order.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple
    # the row of each stored entry
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        num_rows, num_cols = self.shape
        nnz = self.data.size
        if (self.indptr.shape != (num_rows + 1,) or self.indptr[0] != 0 or self.indptr[-1] != nnz
                or self.indices.shape != (nnz,) or np.any(np.diff(self.indptr) < 0)
                or np.any(self.indices < 0) or np.any(self.indices >= num_cols)):
            raise ValueError("inconsistent compressed sparse row arrays")
        object.__setattr__(self, "shape", (int(num_rows), int(num_cols)))
        rows = np.repeat(np.arange(num_rows, dtype=self.indptr.dtype), np.diff(self.indptr))
        object.__setattr__(self, "_rows", rows)
        for arr in (self.data, self.indices, self.indptr, self._rows):
            arr.flags.writeable = False

    @classmethod
    def from_coo(cls, vals, rows, cols, shape) -> "CsrMatrix":
        """The matrix with ``vals[q]`` at ``(rows[q], cols[q])``: column
        indices sorted within each row and duplicates summed in input
        order, as ``scipy.sparse.csr_matrix((vals, (rows, cols)))`` gives."""
        vals = np.asarray(vals, dtype=float)
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        num_rows, num_cols = shape
        if rows.size and not (0 <= rows.min() and rows.max() < num_rows
                              and 0 <= cols.min() and cols.max() < num_cols):
            raise ValueError("a COO index lies outside the matrix")
        # one key per cell in row-major order; a stable sort keeps duplicates in input order
        cell = rows * num_cols + cols
        order = np.argsort(cell, kind="stable")
        cell, vals = cell[order], vals[order]
        starts = np.flatnonzero(np.diff(cell, prepend=-1))
        data = vals[starts]
        counts = np.diff(starts, append=vals.size)
        for extra in range(1, int(counts.max(initial=1))):
            more = counts > extra
            data[more] += vals[starts[more] + extra]
        cell = cell[starts]
        # the index dtype scipy.sparse picks
        dtype = np.int32 if max(num_rows, num_cols, data.size) <= np.iinfo(np.int32).max else np.int64
        indptr = np.searchsorted(cell, np.arange(num_rows + 1) * num_cols).astype(dtype)
        return cls(data, (cell % num_cols).astype(dtype), indptr, (num_rows, num_cols))

    @property
    def nnz(self) -> int:
        """The number of stored entries, explicit zeros included."""
        return self.data.size

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``A x`` for a vector ``x``."""
        if np.shape(x) != (self.shape[1],):
            raise ValueError(f"a {self.shape} matrix times a vector of shape {np.shape(x)}")
        # bincount adds each term in turn to 0.0, as scipy's product does;
        # with no terms its result is of integer type
        return np.bincount(self._rows, self.data * x[self.indices], self.shape[0]).astype(float, copy=False)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``A' y`` for a vector ``y``."""
        if np.shape(y) != (self.shape[0],):
            raise ValueError(f"the transpose of a {self.shape} matrix times a vector of shape {np.shape(y)}")
        return np.bincount(self.indices, self.data * y[self._rows], self.shape[1]).astype(float, copy=False)

    def toarray(self) -> np.ndarray:
        """A new dense array, duplicates summed in stored order."""
        out = np.zeros(self.shape)
        np.add.at(out, (self._rows, self.indices), self.data)
        return out


def _as_csr(mat, num_cols: int) -> CsrMatrix:
    """``mat`` as a :class:`CsrMatrix`: None is a matrix of no rows, a
    scipy sparse matrix keeps its stored entries (explicit zeros too), and
    a dense array keeps its nonzeros, row by row."""
    if mat is None:
        mat = np.zeros((0, num_cols))
    if isinstance(mat, CsrMatrix):
        out = mat
    elif hasattr(mat, "tocsr"):
        csr = mat.tocsr()
        nnz = int(csr.indptr[-1])
        out = CsrMatrix(np.array(csr.data[:nnz], dtype=float), np.array(csr.indices[:nnz]),
                        np.array(csr.indptr), csr.shape)
    else:
        arr = np.atleast_2d(np.asarray(mat, dtype=float))
        if arr.ndim != 2:
            raise ValueError(f"a constraint matrix must be 2-D, not {arr.ndim}-D")
        rows, cols = np.nonzero(arr)
        out = CsrMatrix.from_coo(arr[rows, cols], rows, cols, arr.shape)
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
    # set before freeze() on an LP that, with its with_data() copies, goes to
    # HiGHS whatever its size, as mcfp._layout sets it on the flow LP of a
    # team of more than six agents
    _highs_only: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        n = self.c.shape[0]
        if n == 0:
            raise ValueError("an LP needs at least one variable")
        self.a_ub = _as_csr(self.a_ub, n)
        self.a_eq = _as_csr(self.a_eq, n)
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
        """Make ``b_eq`` and the bounds read-only, as the constraint
        matrices always are, and return the LP."""
        for arr in (self.b_eq, self.lo, self.hi):
            arr.flags.writeable = False
        return self

    def with_data(self, c, b_ub) -> "StandardFormLP":
        """A copy with objective ``c`` and inequality right-hand side
        ``b_ub`` that shares every other array."""
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

    @classmethod
    def at_point(cls, lp: StandardFormLP, status: str, x, y_ineq, y_eq, z_lower, z_upper,
                 iterations: int, message: str, gap: Optional[float] = None) -> "LpResult":
        """The result of a solve that ended at point ``x``, with duals in the
        maximization convention of :class:`StandardFormLP`.

        Every engine builds its answer here.  The inequality and bound
        duals are clipped at zero, bound duals are kept on finite bounds
        only, and the objective is recomputed at ``x``.  ``gap`` is the
        engine's own measure; without one an optimal result stores the
        gap :func:`check_kkt` reports, and any other result NaN.
        """
        x = np.array(x, dtype=float)
        result = cls(
            status, x, float(lp.c @ x), np.maximum(y_ineq, 0.0), np.array(y_eq, dtype=float),
            np.maximum(np.where(np.isfinite(lp.lo), z_lower, 0.0), 0.0),
            np.maximum(np.where(np.isfinite(lp.hi), z_upper, 0.0), 0.0),
            np.nan if gap is None else gap, iterations, message,
        )
        if gap is None and result.optimal:
            result.gap = _relative_gap(lp, result)
        return result

    @classmethod
    def without_point(cls, lp: StandardFormLP, status: str, iterations: int, message: str) -> "LpResult":
        """The zero-shaped result of a solve that ended without a point;
        any verdict but infeasible, unbounded or iteration_limit reads as
        numerical."""
        if status not in ("infeasible", "unbounded", "iteration_limit"):
            status = "numerical"
        zeros_n = np.zeros(lp.num_vars)
        return cls(status, zeros_n, np.nan, np.zeros(lp.num_ineq), np.zeros(lp.num_eq),
                   zeros_n.copy(), zeros_n.copy(), np.inf, iterations, message)

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
        # np.max, not max: a NaN residual must show wherever it stands
        return float(np.max([
            self.stationarity,
            self.primal_feasibility,
            self.dual_feasibility,
            self.complementarity,
            self.gap,
        ]))

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
    fin_lo, fin_hi = np.isfinite(lp.lo), np.isfinite(lp.hi)
    # the bound duals of the finite bounds
    z_lower, z_upper = np.where(fin_lo, result.z_lower, 0.0), np.where(fin_hi, result.z_upper, 0.0)
    grad = lp.c - lp.a_ub.rmatvec(result.y_ineq) - lp.a_eq.rmatvec(result.y_eq)
    grad += z_lower
    grad -= z_upper
    stationarity = float(np.abs(grad).max(initial=0.0)) / (1.0 + float(np.abs(lp.c).max(initial=0.0)))

    rhs_scale = 1.0 + max(float(np.abs(lp.b_ub).max(initial=0.0)), float(np.abs(lp.b_eq).max(initial=0.0)))
    # the slacks of the inequality rows and of the finite bounds, in the
    # order of their duals, then the equality residuals with a minus sign
    slacks = np.concatenate([
        lp.b_ub - lp.a_ub @ x,
        np.where(fin_lo, x - lp.lo, 0.0),
        np.where(fin_hi, lp.hi - x, 0.0),
        -np.abs(lp.b_eq - lp.a_eq @ x),
    ])
    # one reduction per residual, the largest violation as minus the
    # smallest slack: a NaN term shows wherever it stands, and + 0.0 turns
    # the -0.0 that -min gives over zeros into 0.0
    primal = (-float(slacks.min(initial=0.0)) + 0.0) / rhs_scale
    dual = -float(np.concatenate([result.y_ineq, z_lower, z_upper]).min(initial=0.0)) + 0.0
    comp = np.concatenate([result.y_ineq, result.z_lower, result.z_upper])
    comp *= slacks[:comp.size]
    complementarity = float(np.abs(comp, out=comp).max(initial=0.0)) / (1.0 + abs(float(lp.c @ x)))

    return KktReport(stationarity, primal, dual, complementarity, _relative_gap(lp, result))


def _relative_gap(lp: StandardFormLP, result: LpResult) -> float:
    """|c'x - dual objective| / (1 + |c'x|) of a primal-dual pair."""
    obj = float(lp.c @ result.x)
    return abs(obj - dual_objective(lp, result)) / (1.0 + abs(obj))


def solve(lp: StandardFormLP, opts: Optional[SolverOptions] = None) -> LpResult:
    """Solve the LP with the configured engine (in-repo interior point by default)."""
    opts = opts if opts is not None else SolverOptions()
    engine = opts.engine if opts.engine is not None else solve_interior_point
    return engine(lp, opts)


# ---------------------------------------------------------------------------
# interior-point engine
# ---------------------------------------------------------------------------


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

    The interior point takes an LP with at least one row, a finite lower
    bound on every column and at most ``_DENSE_MAX_ENTRIES`` (20 000)
    constraint-matrix entries, unless it is marked for HiGHS alone, as the
    flow LP of every team of more than six agents is (the 7-agent
    mission's LP, 47 columns by 52 rows, and the ``team5x4`` one, 385 by
    132).  Every other LP, one with an upper-only or free column
    included, goes to HiGHS's interior point with crossover
    (``highs-ipm``), and its result is returned as it is: ``status``,
    ``message`` and ``iterations`` are HiGHS's, and the duals are those
    of its optimal vertex, so their complementarity is exact and they
    pass the same verification.  A cold ``team25x10`` solve (30 375
    columns, 2 640 rows) takes about 2 s that way on a 2-core host, spawn
    seed 1 included.  Each such solve builds a HiGHS model and drops it;
    a :class:`WarmEngine` keeps it for the next LP of the layout.

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

    The BLAS runs at its own thread count.  OpenBLAS works the normal
    matrices of the fixture LPs (62 rows on ``square4``) on one thread
    whatever its setting, so their results do not depend on
    ``OPENBLAS_NUM_THREADS``.  Larger ones get more threads: a flow LP
    of six tasks without relays (90 rows) keeps a second thread busy for
    no change in wall time, and a generic LP of more than about 125 rows
    runs 10 to 20 times slower on a 2-core host, which
    ``OPENBLAS_NUM_THREADS=1`` avoids.
    """
    if _takes_dense(lp):
        return _interior_point(lp)
    return _highs(lp, "highs-ipm")


def _takes_dense(lp: StandardFormLP) -> bool:
    """Whether the in-repo interior point takes the LP: not marked for
    HiGHS alone, at least one row, a finite lower bound on every column,
    at most ``_DENSE_MAX_ENTRIES`` entries."""
    num_rows = lp.num_ineq + lp.num_eq
    lower = bool(np.isfinite(lp.lo).all())
    return not lp._highs_only and bool(num_rows) and lower and lp.num_vars * num_rows <= _DENSE_MAX_ENTRIES


def _dense_form(lp: StandardFormLP):
    """``(a_hat, hi_at, hi, z0)``: the constraint matrix ``[a_eq; a_ub]``
    as one dense array (sparse per-call overhead dwarfs the arithmetic at
    the sizes the interior point takes), the columns with a finite upper
    bound, their bounds, and the starting point: mid-box, or one unit
    above a lower-only bound."""
    hi_at = np.flatnonzero(np.isfinite(lp.hi))
    z0 = lp.lo + 1.0
    z0[hi_at] = 0.5 * (lp.lo[hi_at] + lp.hi[hi_at])
    return np.vstack([lp.a_eq.toarray(), lp.a_ub.toarray()]), hi_at, lp.hi[hi_at], z0


def _simplex(lp: StandardFormLP) -> LpResult:
    # simplex imports this module; the engine is looked up through the
    # module attribute, so a wrapper installed on simplex.solve_simplex sees it
    from . import simplex

    return simplex.solve_simplex(lp)


def _interior_point(lp: StandardFormLP) -> LpResult:
    a_hat, hi_at, hi, z = _dense_form(lp)
    m_in, m_eq = lp.num_ineq, lp.num_eq
    a_eq, a_ub = a_hat[:m_eq], a_hat[m_eq:]  # row views
    a_ub_t, a_eq_t, a_hat_t = a_ub.T, a_eq.T, a_hat.T

    f = -lp.c
    b_ub = lp.b_ub
    b_eq = lp.b_eq

    # The complementarity pairs, stacked over every lower bound and the
    # finite upper bounds: pv = [s; z - lo; hi - z] and dv = [w; z_l; z_u]
    # on the blocks ``wb`` (slacks), ``lb``/``ub`` (lower/upper bounds) and
    # ``bb`` (both).  A direction carries dpv = [ds; dz; -dz] and
    # ddv = [dw; dz_l; dz_u], so each complementarity product, the dual
    # update (-r - dv dpv) / pv, the refinement residual r + dv dpv + pv ddv,
    # the updates and the step limits are one array operation each.  Every dot and matrix
    # product keeps its operands and order; the elementwise ops differ
    # only by exact rearrangements (x - (-y) as x + y, no + 0.0 on a
    # column without that bound), so the iterates match to the last bit.
    n = lp.num_vars
    num_comp = m_in + n + hi.size
    wb = slice(0, m_in)
    lb = slice(m_in, m_in + n)
    ub = slice(m_in + n, num_comp)
    bb = slice(m_in, num_comp)
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
        np.subtract(z, lp.lo, out=gl)
        np.subtract(hi, z[hi_at], out=gu)

        r_d = f + a_ub_t @ w + a_eq_t @ y
        r_d -= zl
        r_d[hi_at] += zu
        r_eq = a_eq @ z - b_eq
        r_in = a_ub @ z + s - b_ub

        mu = (float(w @ s) + float(zl @ gl) + float(zu @ gu)) / num_comp

        p_obj = float(f @ z)
        d_obj = -float(b_ub @ w) - float(b_eq @ y) + float(lp.lo @ zl) - float(hi @ zu)
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
            z_upper = np.zeros(n)
            z_upper[hi_at] = zu
            return LpResult.at_point(lp, "optimal", z, w, y, zl, z_upper, iters, "converged", gap=rel_gap)

        if stall_count >= 12:
            break  # numerically stuck

        # normal matrix plus slack scaling: D = zl/gl + zu/gu per column
        ratio = dv[bb] / pv[bb]
        dinv = ratio[:n]
        dinv[hi_at] += ratio[n:]
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
            q1 -= q[lb]
            q1[hi_at] += q[ub]
            rhs = a_hat @ (dinv * q1)
            rhs[:m_eq] += e_eq
            rhs[m_eq:] -= q[wb] - e_in
            dy_hat = m_solve(rhs)
            dz = dinv * (q1 - a_hat_t @ dy_hat)
            dpv = np.empty(num_comp)
            dpv[wb] = -e_in - a_ub @ dz
            dpv[lb] = dz
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
                e_d -= ddv[lb]
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
    """Engine around HiGHS's own solver choice (``method="highs"``).

    Satisfies the same contract as the in-repo engine, including the
    maximization dual conventions, so it can be swapped in through
    ``SolverOptions.engine`` or used as an independent cross-check.
    It runs :func:`_highs`, the one HiGHS path of the package, and keeps
    no model between calls; its results are those
    ``scipy.optimize.linprog(method="highs")`` gives, though it no longer
    calls it.  Its primal feasibility is held to ``_TARGET``: HiGHS's
    1e-7 is coarse on weak links.
    """
    return _highs(lp, "highs", primal_feasibility_tolerance=_TARGET)


@functools.cache
def _highs_core():
    """HiGHS's compiled bindings as scipy ships them, loaded on first use."""
    return _load_extension("scipy.optimize._highspy._core")


# the HiGHS solver option of each linprog method; None keeps HiGHS's choice
_HIGHS_SOLVERS = {"highs": None, "highs-ipm": "ipm"}
# the LpResult status of a HiGHS model status, by name; linprog reads a
# model HiGHS rejects as infeasible, and every other status as numerical
_HIGHS_STATUSES = {
    "kOptimal": "optimal",
    "kTimeLimit": "iteration_limit",
    "kIterationLimit": "iteration_limit",
    "kInfeasible": "infeasible",
    "kModelError": "infeasible",
    "kUnbounded": "unbounded",
}


def _highs_columns(lp: StandardFormLP) -> CsrMatrix:
    """``[a_ub; a_eq]`` by columns, as the row form of its transpose: row
    indices ascending within each column and stored zeros kept, which is
    what linprog's ``csc_array(vstack(...))`` gives HiGHS."""
    return CsrMatrix.from_coo(
        np.concatenate([lp.a_ub.data, lp.a_eq.data]),
        np.concatenate([lp.a_ub.indices, lp.a_eq.indices]),
        np.concatenate([lp.a_ub._rows, lp.a_eq._rows + lp.num_ineq]),
        (lp.num_vars, lp.num_ineq + lp.num_eq),
    )


def _highs(lp: StandardFormLP, method: str, **options) -> LpResult:
    """Solve with HiGHS as ``scipy.optimize.linprog`` does for ``method``
    (``"highs"`` or ``"highs-ipm"``) and ``options``, on HiGHS's compiled
    bindings directly.

    The model, the options and the readout are linprog's, so every
    result is linprog's to the last bit, ``message`` aside, which is
    HiGHS's name for the model status.  linprog's own re-check of an
    optimal point, at a tolerance of 3.2e-4, is left out: every consumer
    checks the KKT conditions at 1e-6.
    """
    return _highs_result(lp, *_highs_model(lp, method, **options))


def _highs_model(lp: StandardFormLP, method: str, **options):
    """A HiGHS object holding ``lp`` and linprog's options for ``method``
    and ``options``, and the model status of a pass HiGHS rejected (None
    when it took both)."""
    core = _highs_core()
    cols = _highs_columns(lp)
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.num_vars
    model.num_row_ = model.a_matrix_.num_row_ = lp.num_ineq + lp.num_eq
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_ = cols.indptr
    model.a_matrix_.index_ = cols.indices
    model.a_matrix_.value_ = cols.data
    model.col_cost_ = -lp.c

    def finite_or_highs_inf(arr):
        return np.where(np.isinf(arr), np.copysign(core.kHighsInf, arr), arr)

    model.col_lower_ = finite_or_highs_inf(lp.lo)
    model.col_upper_ = finite_or_highs_inf(lp.hi)
    model.row_lower_ = finite_or_highs_inf(np.concatenate([np.full(lp.num_ineq, -np.inf), lp.b_eq]))
    model.row_upper_ = finite_or_highs_inf(np.concatenate([lp.b_ub, lp.b_eq]))

    settings = core.HighsOptions()
    settings.presolve = "on"
    if _HIGHS_SOLVERS[method] is not None:
        settings.solver = _HIGHS_SOLVERS[method]
    settings.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    settings.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    settings.output_flag = settings.log_to_console = False
    for key, value in options.items():
        setattr(settings, key, value)

    highs = core._Highs()
    error = core.HighsStatus.kError
    if highs.passOptions(settings) == error:
        return highs, highs.getModelStatus()
    if highs.passModel(model) == error:
        return highs, core.HighsModelStatus.kModelError  # HiGHS leaves the status unset
    return highs, None


def _highs_result(lp: StandardFormLP, highs, failed=None) -> LpResult:
    """Run ``highs`` on the model it holds for ``lp``, unless a pass
    failed with status ``failed``, and read its answer as linprog does."""
    core = _highs_core()
    if failed is None and highs.run() == core.HighsStatus.kError:
        failed = highs.getModelStatus()
    if failed is not None:
        return LpResult.without_point(lp, _HIGHS_STATUSES.get(failed.name, "numerical"), 0,
                                      highs.modelStatusToString(failed))

    status = highs.getModelStatus()
    # getInfo would copy every field of HiGHS's info record
    iterations = highs.getInfoValue("simplex_iteration_count")[1] or highs.getInfoValue("ipm_iteration_count")[1]
    message = highs.modelStatusToString(status)
    if status != core.HighsModelStatus.kOptimal:
        return LpResult.without_point(lp, _HIGHS_STATUSES.get(status.name, "numerical"), iterations, message)
    solution = highs.getSolution()
    # a column's dual is a lower-bound dual when the column sits at its
    # lower bound in the basis, an upper-bound one at its upper bound
    col_dual = np.array(solution.col_dual)
    at = np.fromiter(map(int, highs.getBasis().col_status), dtype=int, count=lp.num_vars)
    z_lower = np.where(at == int(core.HighsBasisStatus.kLower), col_dual, 0.0)
    z_upper = -np.where(at == int(core.HighsBasisStatus.kUpper), col_dual, 0.0)
    y = -np.array(solution.row_dual)
    return LpResult.at_point(lp, "optimal", solution.col_value, y[:lp.num_ineq], y[lp.num_ineq:],
                             z_lower, z_upper, iterations, message)


class _WarmHighs:
    """A HiGHS model of one layout (the constraint matrices, ``b_eq`` and
    the bounds) and the LP it last solved."""

    def __init__(self, lp: StandardFormLP) -> None:
        self.highs, failed = _highs_model(lp, "highs-ipm")
        self.lp = lp
        self.result = _highs_result(lp, self.highs, failed)
        # re-solves start from the last basis, which only the simplex uses
        self.highs.setOptionValue("solver", "simplex")

    def holds_layout_of(self, lp: StandardFormLP) -> bool:
        layout = (self.lp.a_ub, self.lp.a_eq, self.lp.b_eq, self.lp.lo, self.lp.hi)
        return all(a is b for a, b in zip(layout, (lp.a_ub, lp.a_eq, lp.b_eq, lp.lo, lp.hi)))

    def resolve(self, lp: StandardFormLP) -> LpResult:
        """Solve ``lp``, of this model's layout, by the dual simplex from the
        last basis, changing only the costs and row bounds that differ."""
        cost = np.flatnonzero(lp.c != self.lp.c)
        if cost.size:
            self.highs.changeColsCost(cost.size, cost.astype(np.int32), -lp.c[cost])
        inf = _highs_core().kHighsInf
        rows = np.flatnonzero(lp.b_ub != self.lp.b_ub)
        for row, bound in zip(rows.tolist(), lp.b_ub[rows].tolist()):
            self.highs.changeRowBounds(row, -inf, bound)
        self.lp = lp
        return _highs_result(lp, self.highs)


class WarmEngine:
    """The default engine, with HiGHS models kept for re-solving: create one
    per run (an ascent or a mission) and pass it as ``SolverOptions.engine``.

    An LP the in-repo interior point takes goes to it, as under
    :func:`solve_interior_point`.  Every other LP is solved on one HiGHS
    model per layout.  The first solve of a layout is the one-shot
    ``highs-ipm`` solve.  Each later solve changes only the costs and the
    inequality right-hand sides that differ from the last LP, then runs
    the dual simplex from the last optimal basis, which those changes
    leave dual feasible (cost changes aside).  On a ``team5x4`` ascent a
    re-solve takes 16 to 119 pivots where a cold dual simplex takes 240
    to 330.  A re-solve that does not end optimal is solved again cold.

    The state lives in the object alone: two runs that make the same
    calls on fresh engines get the same results bit for bit, whatever ran
    in between.  A warm re-solve agrees with a one-shot solve on the
    optimal value, but where the optimum is not unique it can end at
    another optimal vertex, with other duals.
    """

    def __init__(self) -> None:
        # by inequality matrix, which hashes by identity
        self._models: dict[CsrMatrix, _WarmHighs] = {}

    def __call__(self, lp: StandardFormLP, opts: Optional[SolverOptions] = None) -> LpResult:
        if _takes_dense(lp):
            return solve_interior_point(lp, opts)
        model = self._models.pop(lp.a_ub, None)
        result = None
        if model is not None and model.holds_layout_of(lp):
            result = model.resolve(lp)
        if result is None or not result.optimal:
            model = _WarmHighs(lp)
            result = model.result
        if result.optimal:
            self._models[lp.a_ub] = model
        return result


def run_options(opts: Optional[SolverOptions] = None) -> SolverOptions:
    """The options a run solves with: ``opts``, with a fresh
    :class:`WarmEngine` in place of the default engine."""
    opts = opts if opts is not None else SolverOptions()
    return opts if opts.engine is not None else replace(opts, engine=WarmEngine())
