import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from relayflow import (
    McfpSolveError,
    ScenarioConfig,
    SolverOptions,
    StandardFormLP,
    build_instance,
    check_kkt,
    scipy_linprog_solve,
    solve,
    solve_interior_point,
    solve_mcfp,
    spawn_scenario,
    weight_preset,
)
from relayflow import lp as lp_module
from relayflow import simplex as simplex_module
from relayflow.lp import BlasThreadControl, LpResult, dual_objective
from relayflow.simplex import solve_simplex

ENGINES = [solve_interior_point, solve_simplex, scipy_linprog_solve]


def random_feasible_lp(rng, low=-np.inf):
    """A feasible LP; a fifth of its lower bounds are ``low``, the rest 0."""
    n = int(rng.integers(2, 12))
    m_in = int(rng.integers(1, 10))
    m_eq = int(rng.integers(0, min(n - 1, 4)))
    a = rng.normal(size=(m_in, n))
    z0 = rng.uniform(0, 1, n)
    b = a @ z0 + rng.uniform(0.1, 1.0, m_in)
    g = rng.normal(size=(m_eq, n)) if m_eq else None
    h = (g @ z0) if m_eq else None
    lo = np.where(rng.random(n) < 0.8, 0.0, low)
    hi = np.where(rng.random(n) < 0.5, rng.uniform(1.5, 4, n), np.inf)
    return StandardFormLP(c=rng.normal(size=n), a_ub=a, b_ub=b, a_eq=g, b_eq=h, lo=lo, hi=hi)


def equality_only_lp():
    """No inequality rows; optimum z = (0.25, 0.75, 0) with unique duals
    y_eq = (1.5, -0.5) and z_lower = (0, 0, 1.5)."""
    return StandardFormLP(
        c=[1.0, 2.0, 0.0], a_eq=[[1, 1, 1], [1, -1, 0]], b_eq=[1.0, -0.5], lo=np.zeros(3)
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_single_variable_lp(engine):
    lp = StandardFormLP(c=[1.0], a_ub=[[1.0]], b_ub=[3.0], lo=[0.0], hi=[np.inf])
    res = engine(lp, SolverOptions())
    assert res.optimal
    assert res.objective == pytest.approx(3.0, abs=1e-8)
    assert res.y_ineq[0] == pytest.approx(1.0, abs=1e-7)
    assert check_kkt(lp, res).passed(1e-6)


@pytest.mark.parametrize("engine", ENGINES)
def test_degenerate_box_lp_accepted_by_kkt(engine):
    # many optimal duals exist; any KKT-consistent pair is fine
    lp = StandardFormLP(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], lo=[0, 0], hi=[1, 1])
    res = engine(lp, SolverOptions())
    assert res.optimal
    assert res.objective == pytest.approx(1.0, abs=1e-8)
    assert check_kkt(lp, res).passed(1e-6)


@pytest.mark.parametrize("engine", ENGINES)
def test_equality_only_lp(engine):
    lp = equality_only_lp()
    res = engine(lp, SolverOptions())
    assert res.optimal
    assert res.y_ineq.shape == (0,)
    np.testing.assert_allclose(res.x, [0.25, 0.75, 0.0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(res.y_eq, [1.5, -0.5], rtol=0, atol=1e-7)
    np.testing.assert_allclose(res.z_lower, [0.0, 0.0, 1.5], rtol=0, atol=1e-7)
    assert check_kkt(lp, res).passed(1e-6)


@pytest.mark.parametrize("engine", ENGINES)
def test_infeasible_lp_gets_typed_status(engine):
    lp = StandardFormLP(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0], lo=[0.0], hi=[np.inf])
    assert engine(lp, SolverOptions()).status == "infeasible"


@pytest.mark.parametrize("engine", ENGINES)
def test_unbounded_lp_gets_typed_status(engine):
    lp = StandardFormLP(
        c=[1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[0.0], lo=[0.0, 0.0], hi=[np.inf, np.inf]
    )
    assert engine(lp, SolverOptions()).status == "unbounded"


def box_only_lp():
    """No rows; the optimum z = (1.5, 0) has unique bound duals."""
    return StandardFormLP(c=[2.0, -1.0], lo=[0.0, 0.0], hi=[1.5, np.inf])


def test_box_only_lp():
    res = solve(box_only_lp())
    assert res.optimal
    np.testing.assert_allclose(res.x, [1.5, 0.0])
    np.testing.assert_array_equal(res.z_lower, [0.0, 1.0])
    np.testing.assert_array_equal(res.z_upper, [2.0, 0.0])
    assert solve(StandardFormLP(c=[1.0], lo=[0.0], hi=[np.inf])).status == "unbounded"


@pytest.fixture()
def potrf_calls(monkeypatch):
    """Every Cholesky factorization the interior point attempts."""
    calls = []
    real_potrf = lp_module._potrf

    def counting_potrf(*args, **kwargs):
        calls.append(args[0].shape)
        return real_potrf(*args, **kwargs)

    monkeypatch.setattr(lp_module, "_potrf", counting_potrf)
    return calls


def free_variable_lp():
    """z0 is free; the optimum z = (1, 1, 0) has unique duals."""
    return StandardFormLP(
        c=[1, 0, 0],
        a_ub=[[1, -1, 0]],
        b_ub=[0.0],
        a_eq=[[0, 1, 1]],
        b_eq=[1.0],
        lo=[-np.inf, 0, 0],
        hi=[np.inf, np.inf, np.inf],
    )


def upper_only_lp():
    """z1 has only an upper bound; the optimum z = (1, 1) has unique duals."""
    return StandardFormLP(c=[1.0, 1.0], a_ub=[[1.0, -1.0]], b_ub=[0.0], lo=[0.0, -np.inf], hi=[np.inf, 1.0])


def test_free_variable_with_equalities(potrf_calls):
    lp = free_variable_lp()
    res = solve(lp)
    assert res.optimal
    # a free column sends the LP straight to HiGHS
    assert res.iterations == 0
    assert potrf_calls == []
    assert res.objective == pytest.approx(1.0, abs=1e-8)
    assert check_kkt(lp, res).passed(1e-6)


def test_check_kkt_flags_zeroed_duals():
    lp = StandardFormLP(c=[1.0], a_ub=[[1.0]], b_ub=[3.0], lo=[0.0], hi=[np.inf])
    res = solve(lp)
    res.y_ineq = np.zeros_like(res.y_ineq)
    assert check_kkt(lp, res).stationarity > 0.1


def test_check_kkt_reports_gap_for_suboptimal_point():
    lp = StandardFormLP(c=[1.0], a_ub=[[1.0]], b_ub=[3.0], lo=[0.0], hi=[np.inf])
    res = solve(lp)
    res.x = np.array([1.0])  # feasible but not optimal
    report = check_kkt(lp, res)
    assert report.gap > 0.1
    assert report.complementarity > 0.1


def test_check_kkt_reads_exact_zero_residuals_as_positive_zero():
    # a tight row, an upper-bound column and all-zero duals: np.max(-x)
    # over these zeros is -0.0, which a report must not show
    lp = StandardFormLP(c=[0.0], a_ub=[[1.0]], b_ub=[1.0], lo=[0.0], hi=[1.0])
    zero = np.zeros(1)
    res = LpResult("optimal", np.ones(1), 0.0, zero, np.zeros(0), zero, zero, 0.0, 0)
    report = check_kkt(lp, res)
    for value in (report.primal_feasibility, report.dual_feasibility):
        assert value == 0.0 and not np.signbit(value)


@pytest.mark.parametrize("name", ["x", "y_ineq", "z_lower", "z_upper"])
def test_check_kkt_fails_a_result_with_a_nan_entry(name):
    # Python's max drops a NaN that does not lead, so every residual takes np.max
    lp = StandardFormLP(c=[1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], lo=[0, 0], hi=[1, 1])
    res = solve(lp)
    assert check_kkt(lp, res).passed(1e-6)
    getattr(res, name)[-1] = np.nan
    report = check_kkt(lp, res)
    assert np.isnan(report.max_residual)
    assert not report.passed(1e-6)


def solve_and_check_against_highs(lp):
    mine = solve(lp)
    ref = scipy_linprog_solve(lp)
    if ref.status != "optimal":
        assert mine.status != "optimal"
        return mine
    assert mine.optimal
    assert check_kkt(lp, mine).passed(1e-6)
    assert mine.objective == pytest.approx(ref.objective, abs=1e-6 * (1 + abs(ref.objective)))
    # weak duality: dual objective must not undercut the primal
    assert dual_objective(lp, mine) >= mine.objective - 1e-6 * (1 + abs(mine.objective))
    return mine


def test_weak_duality_and_scipy_agreement():
    rng = np.random.default_rng(7)
    for _ in range(30):
        solve_and_check_against_highs(random_feasible_lp(rng))


def test_bounded_random_lps_converge_in_the_interior_point():
    # with a finite lower bound on every column, generic LPs stay in the interior
    # point instead of going to the exact engine
    rng = np.random.default_rng(7)
    results = [solve_and_check_against_highs(random_feasible_lp(rng, low=-5.0)) for _ in range(30)]
    assert sum(res.message == "converged" for res in results) >= 25


def test_simplex_agrees_with_scipy():
    rng = np.random.default_rng(13)
    for _ in range(25):
        lp = random_feasible_lp(rng, low=-5.0)
        ref = scipy_linprog_solve(lp)
        mine = solve_simplex(lp)
        if ref.status != "optimal":
            continue
        assert mine.optimal
        assert check_kkt(lp, mine).passed(1e-7)
        assert mine.objective == pytest.approx(ref.objective, abs=1e-7 * (1 + abs(ref.objective)))
    # the simplex starts every column at its lower bound, so it takes no other
    for lp in (free_variable_lp(), upper_only_lp()):
        with pytest.raises(ValueError, match="finite lower bound"):
            solve_simplex(lp)


def test_solver_is_deterministic():
    rng = np.random.default_rng(21)
    lp = random_feasible_lp(rng)
    first = solve(lp)
    second = solve(lp)
    np.testing.assert_array_equal(first.x, second.x)
    np.testing.assert_array_equal(first.y_ineq, second.y_ineq)
    assert first.objective == second.objective
    assert first.iterations == second.iterations


def test_engine_plug_in_dispatch():
    lp = StandardFormLP(c=[1.0], a_ub=[[1.0]], b_ub=[2.0], lo=[0.0], hi=[np.inf])
    res = solve(lp, SolverOptions(engine=scipy_linprog_solve))
    assert res.optimal
    assert res.objective == pytest.approx(2.0, abs=1e-9)
    res2 = solve(lp, SolverOptions(engine=solve_simplex))
    assert res2.optimal and res2.message == "simplex"


def test_solve_validates_shapes():
    with pytest.raises(ValueError):
        StandardFormLP(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        StandardFormLP(c=[1.0], lo=[2.0], hi=[1.0])
    with pytest.raises(ValueError, match="at least one variable"):
        StandardFormLP(c=np.zeros(0))
    with pytest.raises(ValueError, match="a_ub and b_ub disagree"):
        StandardFormLP(c=[1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])
    with pytest.raises(ValueError, match="a_eq and b_eq disagree"):
        StandardFormLP(c=[1.0], a_eq=[[1.0]], b_eq=[1.0, 2.0])
    with pytest.raises(ValueError, match="bound vectors"):
        StandardFormLP(c=[1.0, 2.0], lo=[0.0])
    lp = StandardFormLP(**SMALL_LP)
    with pytest.raises(ValueError, match="with_data needs c and b_ub"):
        lp.with_data(np.zeros(3), lp.b_ub)
    with pytest.raises(ValueError, match="must be finite"):
        lp.with_data(lp.c, [np.inf, 1.0])


SMALL_LP = dict(
    c=[1.0, 2.0],
    a_ub=[[1.0, 1.0], [1.0, 0.0]],
    b_ub=[3.0, 1.0],
    a_eq=[[1.0, -1.0]],
    b_eq=[0.0],
    lo=[0.0, 0.0],
    hi=[4.0, 4.0],
)


@pytest.mark.parametrize(
    "name, index, value",
    [
        ("c", 0, np.nan),
        ("c", 1, np.inf),
        ("b_ub", 0, np.nan),
        ("b_ub", 1, np.inf),
        ("b_ub", 1, -np.inf),
        ("b_eq", 0, np.nan),
        ("b_eq", 0, np.inf),
        ("a_ub", (0, 1), np.nan),
        ("a_ub", (1, 0), -np.inf),
        ("a_eq", (0, 0), np.nan),
        ("a_eq", (0, 1), np.inf),
        ("lo", 0, np.nan),
        ("hi", 1, np.nan),
    ],
)
def test_non_finite_inputs_are_rejected(name, index, value):
    # each engine would give a non-finite problem a different answer
    data = {key: np.array(val, dtype=float) for key, val in SMALL_LP.items()}
    StandardFormLP(**data)
    data[name][index] = value
    with pytest.raises(ValueError, match="finite|NaN"):
        StandardFormLP(**data)


def boxed_lp(rng, n, m_in):
    """A feasible, bounded LP with ``m_in`` dense inequality rows."""
    a = rng.normal(size=(m_in, n))
    b = a @ rng.uniform(0, 1, n) + rng.uniform(0.1, 1.0, m_in)
    return StandardFormLP(c=rng.normal(size=n), a_ub=a, b_ub=b, lo=np.zeros(n), hi=np.full(n, 2.0))


def scattered_bounds_lp(rng, n=14, m_in=7, m_eq=2):
    """A feasible, bounded LP whose boxed and lower-only columns, half of
    each, are interleaved.  The objective pulls each lower-only column
    toward its bound, so the LP is bounded whatever the rows."""
    boxed = rng.permutation(np.arange(n) % 2 == 0)
    lo = rng.uniform(-1.0, 0.0, n)
    hi = np.where(boxed, rng.uniform(1.0, 2.0, n), np.inf)
    z0 = np.where(boxed, 0.5 * (lo + hi), lo + rng.uniform(0.1, 2.0, n))
    c = rng.normal(size=n)
    c = np.where(boxed, c, -np.abs(c))
    a = rng.normal(size=(m_in, n))
    g = rng.normal(size=(m_eq, n))
    b = a @ z0 + rng.uniform(0.1, 1.0, m_in)
    return StandardFormLP(c=c, a_ub=a, b_ub=b, a_eq=g, b_eq=g @ z0, lo=lo, hi=hi)


@pytest.mark.parametrize("seed", range(6))
def test_interior_point_converges_with_scattered_upper_bounds(seed, monkeypatch):
    # the upper-bound block of the stacked complementarity pairs indexes
    # columns with gaps between them
    lp = scattered_bounds_lp(np.random.default_rng(300 + seed))
    hi_at = lp_module._dense_form(lp).hi_at
    assert 0 < hi_at.size < lp.num_vars and np.diff(hi_at).max() > 1

    def forbidden(*args, **kwargs):
        raise AssertionError("the interior point handed the LP on")

    ref = scipy_linprog_solve(lp)
    assert ref.optimal
    monkeypatch.setattr(simplex_module, "solve_simplex", forbidden)
    monkeypatch.setattr(lp_module, "_highs", forbidden)
    res = solve_interior_point(lp)
    assert res.message == "converged"
    assert abs(res.objective - ref.objective) <= 1e-9 * (1.0 + abs(ref.objective))
    assert check_kkt(lp, res).passed(1e-6)
    assert not res.z_upper[np.isinf(lp.hi)].any()


class FakeBlas:
    """A BLAS thread control that records every count it is set to."""

    def __init__(self, name, count):
        self.count = count
        self.calls = []
        self.control = BlasThreadControl(name, self.get, self.set)

    def get(self):
        return self.count

    def set(self, count):
        self.calls.append(count)
        self.count = count


def counts(fakes):
    return [fake.count for fake in fakes]


@pytest.fixture()
def fake_blas(monkeypatch):
    fakes = [FakeBlas("fake64_", 2), FakeBlas("fake", 3)]
    controls = tuple(fake.control for fake in fakes)
    monkeypatch.setattr(lp_module, "blas_thread_controls", lambda: controls)
    return fakes


def test_dense_solve_runs_on_one_blas_thread(fake_blas, monkeypatch):
    seen = []
    real_potrf = lp_module._potrf

    def spying_potrf(*args, **kwargs):
        seen.append(counts(fake_blas))
        return real_potrf(*args, **kwargs)

    monkeypatch.setattr(lp_module, "_potrf", spying_potrf)
    res = solve_interior_point(boxed_lp(np.random.default_rng(3), 8, 5))
    assert res.optimal
    assert seen and all(counts == [1, 1] for counts in seen)
    assert counts(fake_blas) == [2, 3]


def test_simplex_rescue_runs_inside_the_blas_scope(fake_blas, monkeypatch):
    seen = []
    real_simplex = simplex_module.solve_simplex

    def spying_simplex(lp, opts=None):
        seen.append(counts(fake_blas))
        return real_simplex(lp, opts)

    monkeypatch.setattr(simplex_module, "solve_simplex", spying_simplex)
    monkeypatch.setattr(lp_module, "_MAX_ITERS", 1)  # hand off after one step
    res = solve_interior_point(boxed_lp(np.random.default_rng(3), 8, 5))
    assert res.optimal
    assert seen == [[1, 1]]
    assert counts(fake_blas) == [2, 3]


def test_interior_point_returns_the_simplex_verdict_when_it_stops_short(monkeypatch):
    # the only way out of the interior point besides converging or
    # diverging is the simplex, whose result is returned as it is
    verdicts = []

    def giving_up(lp, opts=None):
        verdicts.append(LpResult.without_point(lp, "numerical", 0, "simplex gave up"))
        return verdicts[-1]

    monkeypatch.setattr(simplex_module, "solve_simplex", giving_up)
    monkeypatch.setattr(lp_module, "_MAX_ITERS", 1)
    res = solve_interior_point(boxed_lp(np.random.default_rng(3), 8, 5))
    assert res is verdicts[-1]
    assert res.status == "numerical" and res.iterations == 1

    scenario = spawn_scenario(ScenarioConfig(num_task=3, num_relay=1, rng_seed=0))
    with pytest.raises(McfpSolveError) as excinfo:
        solve_mcfp(build_instance(scenario, weight_preset("adhoc", len(scenario.commodities))))
    assert excinfo.value.lp_result is verdicts[-1]
    assert excinfo.value.lp_result.status == "numerical"


def test_blas_scope_restores_counts_after_a_raise(fake_blas, monkeypatch):
    def failing_potrf(*args, **kwargs):
        assert counts(fake_blas) == [1, 1]
        raise RuntimeError("factorization blew up")

    monkeypatch.setattr(lp_module, "_potrf", failing_potrf)
    with pytest.raises(RuntimeError, match="blew up"):
        solve_interior_point(boxed_lp(np.random.default_rng(3), 8, 5))
    assert counts(fake_blas) == [2, 3]
    assert [fake.calls for fake in fake_blas] == [[1, 2], [1, 3]]


def test_overlapping_blas_scopes_share_one_pin(fake_blas):
    pin = lp_module._OneBlasThread()
    first, second = pin.scope(), pin.scope()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)  # leaves before the later scope
    assert counts(fake_blas) == [1, 1]
    second.__exit__(None, None, None)
    assert counts(fake_blas) == [2, 3]
    assert [fake.calls for fake in fake_blas] == [[1, 2], [1, 3]]


def test_blas_scope_from_many_threads(fake_blas):
    pin = lp_module._OneBlasThread()
    unpinned = []

    def worker():
        for _ in range(300):
            with pin.scope():
                if counts(fake_blas) != [1, 1]:
                    unpinned.append(counts(fake_blas))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert unpinned == []
    assert counts(fake_blas) == [2, 3]


def test_solution_does_not_depend_on_the_blas_controls(monkeypatch):
    # large enough for OpenBLAS to spread the normal-matrix products over
    # threads when it is not pinned
    lp = boxed_lp(np.random.default_rng(5), 300, 120)
    pinned = solve_interior_point(lp)
    monkeypatch.setattr(lp_module, "blas_thread_controls", lambda: ())
    unpinned = solve_interior_point(lp)
    assert pinned.optimal and unpinned.optimal
    assert pinned.objective == pytest.approx(unpinned.objective, rel=1e-12, abs=1e-12)
    for field in ("x", "y_ineq", "z_lower", "z_upper"):
        np.testing.assert_allclose(
            getattr(pinned, field), getattr(unpinned, field), rtol=1e-9, atol=1e-9
        )


def solve_default_and_by_highs(lp, monkeypatch):
    dense = solve_interior_point(lp)
    with monkeypatch.context() as patch:
        # a threshold of 1 sends every LP with rows to HiGHS's interior point
        patch.setattr(lp_module, "_DENSE_MAX_ENTRIES", 1)
        sparse = solve_interior_point(lp)
    return dense, sparse


def assert_same_solution(dense, sparse, tol=1e-8):
    assert dense.optimal and sparse.optimal
    assert sparse.objective == pytest.approx(dense.objective, abs=tol)
    for field in ("x", "y_ineq", "y_eq", "z_lower", "z_upper"):
        np.testing.assert_allclose(getattr(sparse, field), getattr(dense, field), rtol=0, atol=tol)


def sparse_boxed_lp(rng, n, m_in, m_eq):
    """A feasible, bounded LP whose rows each touch about a fifth of the columns."""
    a = rng.normal(size=(m_in, n)) * (rng.random((m_in, n)) < 0.2)
    g = rng.normal(size=(m_eq, n)) * (rng.random((m_eq, n)) < 0.2)
    z0 = rng.uniform(0.2, 1.8, n)
    b = a @ z0 + rng.uniform(0.1, 1.0, m_in)
    return StandardFormLP(
        c=rng.normal(size=n), a_ub=a, b_ub=b, a_eq=g, b_eq=g @ z0, lo=np.zeros(n), hi=np.full(n, 2.0)
    )


@pytest.mark.parametrize("seed", range(8))
def test_sparse_path_matches_dense_path_on_boxed_lps(seed, monkeypatch):
    # HiGHS's crossover ends on a vertex and the in-repo interior point
    # near the center of the optimal face, so only the optimal value has
    # to agree when that face is not a single point
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(10, 40))
    for lp in (boxed_lp(rng, n, int(rng.integers(2, 25))), sparse_boxed_lp(rng, n, n // 2, n // 5)):
        dense, sparse = solve_default_and_by_highs(lp, monkeypatch)
        assert dense.optimal and sparse.optimal
        assert sparse.objective == pytest.approx(dense.objective, abs=1e-8)
        assert check_kkt(lp, sparse).passed(1e-6)


@pytest.fixture()
def linprog_methods(monkeypatch):
    """The ``method`` of every scipy.optimize.linprog call."""
    import scipy.optimize

    methods = []
    real_linprog = scipy.optimize.linprog

    def spying_linprog(*args, **kwargs):
        methods.append(kwargs["method"])
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spying_linprog)
    return methods


def test_highs_route_solves_free_variables_with_equalities(monkeypatch, potrf_calls, linprog_methods):
    lp = free_variable_lp()
    dense, sparse = solve_default_and_by_highs(lp, monkeypatch)
    # a free column sends the LP to HiGHS's interior point on either
    # side of the threshold
    assert linprog_methods == ["highs-ipm", "highs-ipm"]
    assert potrf_calls == []
    assert sparse.objective == pytest.approx(1.0, abs=1e-8)
    assert check_kkt(lp, sparse).passed(1e-6)
    assert_same_solution(dense, sparse)


def test_highs_route_solves_equality_only_lps(monkeypatch):
    lp = equality_only_lp()
    dense, sparse = solve_default_and_by_highs(lp, monkeypatch)
    assert check_kkt(lp, sparse).passed(1e-6)
    assert_same_solution(dense, sparse)


def assert_goes_to_highs_ipm_alone(lp, monkeypatch, linprog_methods):
    # no in-repo iterations first and no simplex after: HiGHS's interior
    # point with crossover solves the LP, and its result comes back as is
    results = []
    real_highs = lp_module._highs

    def spying_highs(lp, method):
        results.append(real_highs(lp, method))
        return results[-1]

    def forbidden(*args, **kwargs):
        raise AssertionError("an in-repo engine ran above the threshold")

    monkeypatch.setattr(lp_module, "_highs", spying_highs)
    monkeypatch.setattr(lp_module, "_interior_point", forbidden)
    monkeypatch.setattr(simplex_module, "solve_simplex", forbidden)
    res = solve_interior_point(lp)
    assert linprog_methods == ["highs-ipm"]
    assert len(results) == 1 and res is results[0]
    assert res.optimal
    assert check_kkt(lp, res).passed(1e-6)


def test_lps_above_the_threshold_go_to_highs_ipm_alone(monkeypatch, linprog_methods):
    monkeypatch.setattr(lp_module, "_DENSE_MAX_ENTRIES", 1)
    assert_goes_to_highs_ipm_alone(boxed_lp(np.random.default_rng(3), 8, 5), monkeypatch, linprog_methods)


@pytest.mark.parametrize(
    "make_lp", [box_only_lp, free_variable_lp, upper_only_lp], ids=["rowless", "free-column", "upper-only-column"]
)
def test_lps_without_rows_or_with_a_free_column_go_to_highs_ipm_alone(monkeypatch, linprog_methods, make_lp):
    lp = make_lp()
    assert lp.num_vars * (lp.num_ineq + lp.num_eq) <= lp_module._DENSE_MAX_ENTRIES
    assert_goes_to_highs_ipm_alone(lp, monkeypatch, linprog_methods)


def test_the_pair_flow_lp_goes_to_the_interior_point(monkeypatch, pair_scenario):
    # the benchmark's ascent trajectories rest on the centered duals of
    # the in-repo interior point
    calls = []
    real_interior_point = lp_module._interior_point

    def spying_interior_point(lp):
        calls.append(lp)
        return real_interior_point(lp)

    def forbidden(*args, **kwargs):
        raise AssertionError("a flow LP went to HiGHS")

    monkeypatch.setattr(lp_module, "_interior_point", spying_interior_point)
    monkeypatch.setattr(lp_module, "_highs", forbidden)
    sol = solve_mcfp(build_instance(pair_scenario, np.ones(2)))
    assert len(calls) == 1 and sol.lp is calls[0]
    assert sol.lp_result.message == "converged"


def test_highs_route_handles_empty_rows(monkeypatch):
    # an empty equality row makes the normal matrix singular, also when
    # it stores an explicit zero; an empty inequality row only carries its slack
    stored_zero_row = sp.csr_matrix(([0.0, 1.0, -1.0], [1, 0, 2], [0, 1, 3]), shape=(2, 3))
    lp = StandardFormLP(
        c=[1.0, 2.0, -1.0],
        a_ub=[[1, 1, 0], [0, 0, 0], [0, 1, 1]],
        b_ub=[1.0, 0.5, 1.5],
        a_eq=stored_zero_row,
        b_eq=[0.0, 0.25],
        lo=[0, 0, 0],
        hi=[2, 2, 2],
    )
    dense, sparse = solve_default_and_by_highs(lp, monkeypatch)
    assert check_kkt(lp, sparse).passed(1e-6)
    assert_same_solution(dense, sparse)


def test_highs_route_keeps_typed_statuses(monkeypatch):
    infeasible = StandardFormLP(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0], lo=[0.0], hi=[np.inf])
    unbounded = StandardFormLP(
        c=[1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[0.0], lo=[0.0, 0.0], hi=[np.inf, np.inf]
    )
    for lp, status in ((infeasible, "infeasible"), (unbounded, "unbounded")):
        dense, sparse = solve_default_and_by_highs(lp, monkeypatch)
        assert dense.status == sparse.status == status


def test_normal_solvers_match_scipy_cholesky_bit_for_bit(monkeypatch):
    from scipy.linalg import cho_factor, cho_solve

    def scipy_factor(mat):
        # the factor as the solver took it through scipy's wrappers
        for attempt in range(6):
            try:
                return cho_factor(mat, lower=True, check_finite=False)
            except np.linalg.LinAlgError:
                jitter = 1e-12 * (10.0**attempt) * (1.0 + float(np.max(np.abs(mat))))
                mat[np.diag_indices_from(mat)] += jitter
        return None

    def assert_matches_scipy(make_solver, num_rows):
        rhs = rng.normal(size=num_rows)
        got = make_solver()(rhs)
        with monkeypatch.context() as patch:
            patch.setattr(lp_module, "_cho_factor_jittered", scipy_factor)
            patch.setattr(lp_module, "_cho_solve", lambda f, rhs: cho_solve(f, rhs, check_finite=False))
            assert np.array_equal(got, make_solver()(rhs))

    rng = np.random.default_rng(12)
    m, n = 9, 20
    a = rng.normal(size=(m, n))
    dinv = 10.0 ** rng.uniform(-3, 3, n)
    e_diag = rng.uniform(0.0, 1.0, m)
    assert_matches_scipy(lambda: lp_module._dense_normal_solver(a, dinv, e_diag), m)

    # an empty row without slack makes M singular: the factor needs the jitter retry
    a[4], e_diag[4] = 0.0, 0.0
    m_mat = (a * dinv) @ a.T + np.diag(e_diag)
    assert lp_module._potrf(m_mat, lower=1)[1] > 0
    assert_matches_scipy(lambda: lp_module._dense_normal_solver(a, dinv, e_diag), m)


def random_coo(rng, num_rows, num_cols):
    """COO triplets with empty rows, stored zeros, and duplicates whose
    pairs cancel or not."""
    filled = rng.choice(num_rows, size=max(1, num_rows // 2), replace=False)
    num_cells = filled.size * num_cols
    cells = rng.choice(num_cells, size=int(rng.integers(0, num_cells + 1)), replace=False)
    rows, cols = filled[cells // num_cols], cells % num_cols
    vals = rng.normal(size=cells.size) * 10.0 ** rng.integers(-6, 7, cells.size)
    vals[rng.random(cells.size) < 0.2] = 0.0
    twice = rng.random(cells.size) < 0.3
    again = np.where(rng.random(twice.sum()) < 0.5, -vals[twice], rng.normal(size=twice.sum()))
    order = rng.permutation(cells.size + again.size)
    return (
        np.concatenate([vals, again])[order],
        np.concatenate([rows, rows[twice]])[order],
        np.concatenate([cols, cols[twice]])[order],
    )


def test_csr_record_matches_scipy_bit_for_bit():
    # check_kkt's residuals and the interior point's start depend on the
    # order in which each product sums, so the record must sum as scipy does
    def same(got, want):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    rng = np.random.default_rng(19)
    for _ in range(40):
        num_rows, num_cols = (int(k) for k in rng.integers(1, 25, size=2))
        vals, rows, cols = random_coo(rng, num_rows, num_cols)
        ref = sp.csr_matrix((vals, (rows, cols)), shape=(num_rows, num_cols))
        # one as scipy builds it, one in stored order with duplicates and unsorted columns
        by_row = np.argsort(rows, kind="stable")
        indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=num_rows))]
        messy = sp.csr_matrix((vals[by_row], cols[by_row], indptr), shape=(num_rows, num_cols))
        built = lp_module.CsrMatrix.from_coo(vals, rows, cols, (num_rows, num_cols))
        for name in ("data", "indices", "indptr"):
            assert same(getattr(built, name), getattr(ref, name))
        dense, dense_ref = lp_module._as_csr(ref.toarray(), num_cols), sp.csr_matrix(ref.toarray())
        for name in ("data", "indices", "indptr"):
            assert same(getattr(dense, name), getattr(dense_ref, name))
        x, y = rng.normal(size=num_cols), rng.normal(size=num_rows)
        for mat, want in ((built, ref), (lp_module._as_csr(messy, num_cols), messy), (dense, dense_ref)):
            assert mat.nnz == want.nnz
            assert same(mat @ x, want @ x)
            assert same(mat.rmatvec(y), want.T @ y)
            assert same(mat.toarray(), want.toarray())
    with pytest.raises(ValueError):
        built @ np.ones(num_cols + 1)
    with pytest.raises(ValueError):
        built.rmatvec(np.ones(num_rows + 1))
    with pytest.raises(ValueError, match="outside the matrix"):
        lp_module.CsrMatrix.from_coo([1.0], [0], [num_cols], (num_rows, num_cols))


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this relayflow; its standard output."""
    paths = [str(Path(lp_module.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_small_team_work_loads_no_scipy_subpackage(tmp_path):
    # the import, an ascent, a mission, the simplex and the CLI run on
    # numpy and scipy's LAPACK extension alone; HiGHS loads scipy.optimize
    # (and with it scipy.sparse and scipy.linalg) when it is first called
    out = run_python(f"""
import sys
import numpy as np
import relayflow as rf
from relayflow import cli
from relayflow.simplex import solve_simplex

def scipy_subpackages():
    return sorted(name for name in sys.modules
                  if name.split(".")[:2] in (["scipy", "sparse"], ["scipy", "linalg"], ["scipy", "optimize"]))

assert scipy_subpackages() == [], scipy_subpackages()
pair = rf.Scenario(np.array([[0.0, 1.0], [2.0, 1.0]]), np.array([[1.3, 1.4]]), rf.CapacityModel(),
                   rf.default_commodities(2))
trace = rf.ascend(pair, np.ones(2))
motion = rf.MotionConfig(dt=0.2, box_size=3.0, duration=1.0, rng_seed=1)
timeline = rf.run_simulation(pair, np.ones(2), motion, pre_optimize=False)
lp = rf.StandardFormLP(c=[1.0, 2.0], a_ub=[[1.0, 1.0], [1.0, 0.0]], b_ub=[3.0, 1.0], a_eq=[[1.0, -1.0]],
                       b_eq=[0.0], lo=[0.0, 0.0], hi=[4.0, 4.0])
exact = solve_simplex(lp)
assert cli.main(["spawn", "--preset", "pair", "--out", {str(tmp_path)!r}]) == 0
assert scipy_subpackages() == [], scipy_subpackages()

highs = rf.scipy_linprog_solve(lp)
assert "scipy.optimize" in sys.modules
assert highs.optimal and exact.optimal and abs(highs.objective - exact.objective) <= 1e-9
last = trace.records[-1]
by_highs = rf.solve_mcfp(rf.build_instance(pair.with_relay_positions(last.relay_positions), np.ones(2)),
                         rf.SolverOptions(engine=rf.scipy_linprog_solve))
assert abs(by_highs.phi - last.phi) <= 1e-8 * (1.0 + abs(last.phi)), (by_highs.phi, last.phi)
print(timeline.num_snapshots)
""")
    assert out.splitlines()[-1] == "6"  # snapshots of the 1 s mission at 0.2 s ticks


def test_blas_controls_reach_scipy_lapack_without_importing_scipy_linalg():
    # the one-thread pin must reach the OpenBLAS behind the Cholesky
    # factorization: the controls found without scipy.linalg are those
    # found by opening the extensions that `import scipy.linalg` loads
    out = run_python("""
import ctypes, importlib, json, sys
from relayflow.lp import blas_thread_controls

found = [ctl.name for ctl in blas_thread_controls()]
assert not [name for name in sys.modules if name.startswith("scipy.linalg")]
want = {}
for module in ("numpy.linalg._umath_linalg", "scipy.linalg._flapack"):
    lib = ctypes.CDLL(importlib.import_module(module).__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if fn is not None:
                want.setdefault(ctypes.cast(fn, ctypes.c_void_p).value, prefix + suffix)
print(json.dumps([found, list(want.values())]))
""")
    found, want = json.loads(out)
    if not want:
        pytest.skip("the BLAS is not OpenBLAS")
    assert found == want
