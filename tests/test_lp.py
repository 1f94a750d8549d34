import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from relayflow import (
    AscentConfig,
    McfpSolveError,
    MotionConfig,
    ScenarioConfig,
    SolverOptions,
    StandardFormLP,
    ascend,
    build_instance,
    build_lp,
    check_kkt,
    run_simulation,
    scipy_linprog_solve,
    solve,
    solve_interior_point,
    solve_mcfp,
    spawn_scenario,
    weight_preset,
)
from relayflow import lp as lp_module
from relayflow import simplex as simplex_module
from relayflow.lp import LpResult, dual_objective
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


def infeasible_lp():
    return StandardFormLP(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0], lo=[0.0], hi=[np.inf])


def unbounded_lp():
    return StandardFormLP(c=[1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[0.0], lo=[0.0, 0.0], hi=[np.inf, np.inf])


@pytest.mark.parametrize("engine", ENGINES)
def test_infeasible_lp_gets_typed_status(engine):
    assert engine(infeasible_lp(), SolverOptions()).status == "infeasible"


@pytest.mark.parametrize("engine", ENGINES)
def test_unbounded_lp_gets_typed_status(engine):
    assert engine(unbounded_lp(), SolverOptions()).status == "unbounded"


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
    _, hi_at, _, _ = lp_module._dense_form(lp)
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
    """The linprog ``method`` of every HiGHS solve."""
    methods = []
    real_highs = lp_module._highs

    def spying_highs(lp, method, **options):
        methods.append(method)
        return real_highs(lp, method, **options)

    monkeypatch.setattr(lp_module, "_highs", spying_highs)
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


@pytest.mark.parametrize("layout", ["square_scenario", "outlier_scenario", "mission", "team2x5", "team5x4"])
def test_flow_lps_take_the_interior_point_up_to_the_threshold_and_highs_above(request, monkeypatch, layout):
    # the fixture ascents (six agents at most) rest on the centered duals of
    # the in-repo interior point; the flow LP of every larger team goes to
    # HiGHS, one-shot and in a run alike, whatever its size: the mission's
    # 7-agent team (2 444 entries, one weighted commodity) and team2x5
    # (4 928) are below the 20 000-entry threshold, team5x4 (50 820) above
    if layout == "mission":
        scenario, weights = request.getfixturevalue("mission_team")
    elif layout == "team2x5":
        scenario = spawn_scenario(ScenarioConfig(2, 5, rng_seed=4))
        weights = weight_preset("adhoc", len(scenario.commodities))
    elif layout == "team5x4":
        scenario, weights = request.getfixturevalue("team5x4")
    else:
        scenario = request.getfixturevalue(layout)
        weights = np.ones(len(scenario.commodities))
    paths = []
    real_interior_point, real_model = lp_module._interior_point, lp_module._highs_model

    def spying_interior_point(lp):
        paths.append("interior point")
        return real_interior_point(lp)

    def spying_model(lp, method, **options):
        paths.append(method)
        return real_model(lp, method, **options)

    monkeypatch.setattr(lp_module, "_interior_point", spying_interior_point)
    monkeypatch.setattr(lp_module, "_highs_model", spying_model)
    inst = build_instance(scenario, weights)
    one_shot = solve_mcfp(inst)
    in_run = solve_mcfp(inst, lp_module.run_options())
    entries = one_shot.lp.num_vars * (one_shot.lp.num_ineq + one_shot.lp.num_eq)
    assert (entries <= lp_module._DENSE_MAX_ENTRIES) == (layout != "team5x4")
    dense = scenario.num_agents <= 6
    assert dense == (layout in ("square_scenario", "outlier_scenario"))
    assert paths == 2 * (["interior point"] if dense else ["highs-ipm"])
    assert lp_module._takes_dense(one_shot.lp) == dense
    assert one_shot.lp_result.message == in_run.lp_result.message == ("converged" if dense else "Optimal")
    assert one_shot.phi == in_run.phi


def test_only_the_interior_point_loads_scipy_lapack(monkeypatch, mission_team, team5x4, pair_scenario):
    # HiGHS links no BLAS: a mission of the seven-agent team and a team5x4
    # ascent run on HiGHS alone, and the first Cholesky factorization of a
    # smaller team's interior point loads the extension
    loads = []
    real_flapack = lp_module._flapack

    def spying_flapack():
        loads.append("_flapack")
        return real_flapack()

    monkeypatch.setattr(lp_module, "_flapack", spying_flapack)
    scenario, weights = mission_team
    run_simulation(scenario, weights, MotionConfig(duration=2.0, rng_seed=1, pinned_tasks=(0,)))
    ascend(*team5x4, AscentConfig(max_iters=5))
    assert loads == []
    solve_mcfp(build_instance(pair_scenario, np.ones(2)))
    assert loads


def team5x4_lps(team5x4, steps=3):
    """Flow LPs of the team5x4 layout at relay positions moved step by step."""
    scenario, weights = team5x4
    return [build_lp(build_instance(scenario.with_relay_positions(scenario.relay_positions + 0.05 * k), weights))[0]
            for k in range(steps)]


def test_warm_engine_re_solves_a_layout_from_its_last_basis(monkeypatch, team5x4):
    builds = []
    real_model = lp_module._highs_model

    def counting_model(lp, method, **options):
        builds.append(method)
        return real_model(lp, method, **options)

    monkeypatch.setattr(lp_module, "_highs_model", counting_model)
    lps = team5x4_lps(team5x4)
    engine = lp_module.WarmEngine()
    first = engine(lps[0])
    assert_same_bits(first, lp_module._highs(lps[0], "highs-ipm"))  # the one-shot solve
    for lp in lps[1:]:
        warm = engine(lp)
        assert warm.optimal and check_kkt(lp, warm).passed(1e-6)
        assert abs(warm.objective - first.objective) > 1e-6  # the capacities moved phi
        cold = lp_module._highs(lp, "highs-ipm")
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))
    # a new objective is re-solved on the same model
    reweighted = lps[1].with_data(2.0 * lps[1].c, lps[1].b_ub)
    assert engine(reweighted).objective == pytest.approx(2.0 * engine(lps[1]).objective, rel=1e-9)
    assert len(builds) == 1 + len(lps)  # the engine's one model and a cold solve per LP above
    # a replaced bound vector makes another layout, solved cold on a model of its own
    bounded = lps[0].with_data(lps[0].c, lps[0].b_ub)
    bounded.hi = np.minimum(bounded.hi, 0.05)
    assert_same_bits(engine(bounded), lp_module._highs(bounded, "highs-ipm"))


def test_warm_engine_solves_cold_when_a_re_solve_is_not_optimal(monkeypatch, team5x4):
    lps = team5x4_lps(team5x4)
    engine = lp_module.WarmEngine()
    engine(lps[0])
    monkeypatch.setattr(lp_module._WarmHighs, "resolve",
                        lambda self, lp: LpResult.without_point(lp, "iteration_limit", 0, "injected"))
    assert_same_bits(engine(lps[1]), lp_module._highs(lps[1], "highs-ipm"))


def test_run_options_keep_a_chosen_engine():
    chosen = SolverOptions(engine=scipy_linprog_solve)
    assert lp_module.run_options(chosen) is chosen
    fresh = [lp_module.run_options(opts).engine for opts in (None, SolverOptions(), None)]
    assert all(isinstance(engine, lp_module.WarmEngine) for engine in fresh)
    assert len({id(engine) for engine in fresh}) == 3  # a fresh engine per run


def empty_rows_lp():
    """An empty inequality row, and an equality row that stores only an
    explicit zero."""
    stored_zero_row = sp.csr_matrix(([0.0, 1.0, -1.0], [1, 0, 2], [0, 1, 3]), shape=(2, 3))
    return StandardFormLP(
        c=[1.0, 2.0, -1.0],
        a_ub=[[1, 1, 0], [0, 0, 0], [0, 1, 1]],
        b_ub=[1.0, 0.5, 1.5],
        a_eq=stored_zero_row,
        b_eq=[0.0, 0.25],
        lo=[0, 0, 0],
        hi=[2, 2, 2],
    )


def test_highs_route_handles_empty_rows(monkeypatch):
    # an empty equality row makes the normal matrix singular, also when
    # it stores an explicit zero; an empty inequality row only carries its slack
    lp = empty_rows_lp()
    dense, sparse = solve_default_and_by_highs(lp, monkeypatch)
    assert check_kkt(lp, sparse).passed(1e-6)
    assert_same_solution(dense, sparse)


def test_highs_route_keeps_typed_statuses(monkeypatch):
    for lp, status in ((infeasible_lp(), "infeasible"), (unbounded_lp(), "unbounded")):
        dense, sparse = solve_default_and_by_highs(lp, monkeypatch)
        assert dense.status == sparse.status == status


def linprog_result(lp, method, **options):
    """``scipy.optimize.linprog``'s solution of ``lp`` as an LpResult."""
    from scipy.optimize import linprog

    a_ub, a_eq = (sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape) for mat in (lp.a_ub, lp.a_eq))
    res = linprog(
        -lp.c,
        A_ub=a_ub if lp.num_ineq else None,
        b_ub=lp.b_ub if lp.num_ineq else None,
        A_eq=a_eq if lp.num_eq else None,
        b_eq=lp.b_eq if lp.num_eq else None,
        bounds=np.column_stack([lp.lo, lp.hi]),
        method=method,
        options=options,
    )
    status = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}.get(res.status, "numerical")
    if res.x is None:
        return LpResult.without_point(lp, status, res.nit, res.message)
    return LpResult.at_point(lp, status, res.x, -res.ineqlin.marginals, -res.eqlin.marginals,
                             res.lower.marginals, -res.upper.marginals, res.nit, res.message)


def assert_same_bits(got, want):
    assert (got.status, got.iterations) == (want.status, want.iterations)
    for name in ("objective", "gap", "x", "y_ineq", "y_eq", "z_lower", "z_upper"):
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name


def oracle_lps():
    rng = np.random.default_rng(31)
    lps = [random_feasible_lp(rng) for _ in range(6)] + [random_feasible_lp(rng, low=-5.0) for _ in range(4)]
    lps += [sparse_boxed_lp(rng, 30, 15, 6), boxed_lp(rng, 12, 8)]
    return lps + [infeasible_lp(), unbounded_lp(), box_only_lp(), free_variable_lp(), upper_only_lp(),
                  equality_only_lp(), empty_rows_lp()]


@pytest.mark.parametrize("options", [{}, {"primal_feasibility_tolerance": 1e-9}], ids=["default", "primal-1e-9"])
@pytest.mark.parametrize("method", ["highs", "highs-ipm"])
def test_highs_matches_linprog_bit_for_bit(method, options):
    # HiGHS gets linprog's model and options, and its answer is read as
    # linprog reads it; only the message differs
    statuses = set()
    for lp in oracle_lps():
        got = lp_module._highs(lp, method, **options)
        assert_same_bits(got, linprog_result(lp, method, **options))
        statuses.add(got.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_flow_lp_above_the_threshold_matches_linprog_bit_for_bit(monkeypatch):
    scenario = spawn_scenario(ScenarioConfig(5, 4, rng_seed=2))
    lp, _ = build_lp(build_instance(scenario, weight_preset("adhoc", len(scenario.commodities))))
    monkeypatch.setattr(lp_module, "_DENSE_MAX_ENTRIES", 1)
    assert_same_bits(solve_interior_point(lp), linprog_result(lp, "highs-ipm"))


def test_missing_extension_file_is_named():
    with pytest.raises(ImportError, match="_no_such_module"):
        lp_module._load_extension("scipy.optimize._no_such_module")


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


def run_python(code, **env):
    """Run ``code`` in a fresh interpreter that imports this relayflow, with
    the environment variables ``env`` added; its standard output."""
    paths = [str(Path(lp_module.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_small_team_work_loads_no_scipy_subpackage(tmp_path):
    # the import, an ascent, a mission, the simplex, the CLI and HiGHS run
    # on numpy and two compiled scipy files alone: its LAPACK extension and
    # HiGHS's bindings; a later import of scipy.optimize still works
    out = run_python(f"""
import sys
import numpy as np
import relayflow as rf
from relayflow import cli
from relayflow import lp as lp_module
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
assert highs.optimal and exact.optimal and abs(highs.objective - exact.objective) <= 1e-9
last = trace.records[-1]
by_highs = rf.solve_mcfp(rf.build_instance(pair.with_relay_positions(last.relay_positions), np.ones(2)),
                         rf.SolverOptions(engine=rf.scipy_linprog_solve))
assert abs(by_highs.phi - last.phi) <= 1e-8 * (1.0 + abs(last.phi)), (by_highs.phi, last.phi)
lp_module._DENSE_MAX_ENTRIES = 1
above = rf.solve_interior_point(lp)
assert above.optimal and abs(above.objective - exact.objective) <= 1e-9
assert scipy_subpackages() == [], scipy_subpackages()

from scipy.optimize import linprog
res = linprog(-lp.c, A_ub=lp.a_ub.toarray(), b_ub=lp.b_ub, A_eq=lp.a_eq.toarray(), b_eq=lp.b_eq,
              bounds=np.column_stack([lp.lo, lp.hi]), method="highs", options={{"primal_feasibility_tolerance": 1e-9}})
assert res.status == 0 and np.array_equal(res.x, highs.x) and np.array_equal(-res.ineqlin.marginals, highs.y_ineq)
print(timeline.num_snapshots)
""")
    assert out.splitlines()[-1] == "6"  # snapshots of the 1 s mission at 0.2 s ticks


def test_import_loads_no_compiled_scipy_file():
    # scipy's LAPACK extension loads on the first Cholesky factorization
    # and HiGHS's bindings on the first HiGHS solve, not at import
    out = run_python("""
import importlib.machinery, importlib.util, json, os

scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
scipy_dirs = (scipy_dir + os.sep, scipy_dir + ".libs" + os.sep)
created = []
real_create = importlib.machinery.ExtensionFileLoader.create_module

def spying_create(self, spec):
    created.append(self.path)
    return real_create(self, spec)

def mapped():
    # the shared libraries in the address space, where the system lists them
    if not os.path.exists("/proc/self/maps"):
        return []
    with open("/proc/self/maps") as maps:
        return sorted({line.split()[5] for line in maps if len(line.split()) > 5})

importlib.machinery.ExtensionFileLoader.create_module = spying_create
import relayflow
from relayflow import lp

at_import = [path for path in created + mapped() if path.startswith(scipy_dirs)]
lp._flapack()
print(json.dumps([at_import, [path for path in created if path.startswith(scipy_dirs)]]))
""")
    at_import, after_load = json.loads(out)
    assert at_import == []
    assert [Path(path).name.split(".")[0] for path in after_load] == ["_flapack"]  # the spy sees the loader


def test_fixture_solves_do_not_depend_on_the_blas_thread_count():
    # the interior point runs at the BLAS's own thread count, and the
    # benchmark's reference trajectories rest on its square4 solves: they
    # come out the same bits on one OpenBLAS thread and on four
    code = """
import json, os
import numpy as np
import relayflow as rf

tasks = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
relays = np.array([[0.6, 0.4], [1.5, 1.7]])
square4 = rf.Scenario(tasks, relays, rf.CapacityModel(), rf.default_commodities(4))
weights = rf.weight_preset("adhoc", 4)
results = []
for k in range(8):
    res = rf.solve_mcfp(rf.build_instance(square4.with_relay_positions(relays + 0.05 * k), weights)).lp_result
    arrays = np.concatenate([res.x, res.y_ineq, res.y_eq, res.z_lower, res.z_upper])
    results.append([res.status, res.message, res.iterations, res.objective.hex(), res.gap.hex(),
                    arrays.tobytes().hex()])
trace = rf.ascend(square4, weights, rf.AscentConfig(max_iters=40))
results.append([rec.phi.hex() for rec in trace.records])
results.append(trace.final_relay_positions.tobytes().hex())
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        threads = int(status.read().split("Threads:")[1].split()[0])
print(json.dumps([results, threads]))
"""
    one, one_threads = json.loads(run_python(code, OPENBLAS_NUM_THREADS="1"))
    four, four_threads = json.loads(run_python(code, OPENBLAS_NUM_THREADS="4"))
    assert [res[1] for res in one[:8]] == ["converged"] * 8
    assert one == four
    if one_threads is not None and (os.cpu_count() or 1) > 1:
        assert four_threads > one_threads  # the variable took effect
