import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from relayflow import (
    ScenarioConfig,
    SolverOptions,
    StandardFormLP,
    build_instance,
    build_lp,
    check_kkt,
    scipy_linprog_solve,
    solve,
    solve_interior_point,
    spawn_scenario,
    weight_preset,
)
from relayflow import lp as lp_module
from relayflow import simplex as simplex_module
from relayflow.lp import BlasThreadControl, dual_objective
from relayflow.simplex import solve_simplex

ENGINES = [solve_interior_point, solve_simplex, scipy_linprog_solve]


def random_feasible_lp(rng):
    n = int(rng.integers(2, 12))
    m_in = int(rng.integers(1, 10))
    m_eq = int(rng.integers(0, min(n - 1, 4)))
    a = rng.normal(size=(m_in, n))
    z0 = rng.uniform(0, 1, n)
    b = a @ z0 + rng.uniform(0.1, 1.0, m_in)
    g = rng.normal(size=(m_eq, n)) if m_eq else None
    h = (g @ z0) if m_eq else None
    lo = np.where(rng.random(n) < 0.8, 0.0, -np.inf)
    hi = np.where(rng.random(n) < 0.5, rng.uniform(1.5, 4, n), np.inf)
    return StandardFormLP(c=rng.normal(size=n), a_ub=a, b_ub=b, a_eq=g, b_eq=h, lo=lo, hi=hi)


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
def test_infeasible_lp_gets_typed_status(engine):
    lp = StandardFormLP(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0], lo=[0.0], hi=[np.inf])
    assert engine(lp, SolverOptions()).status == "infeasible"


@pytest.mark.parametrize("engine", ENGINES)
def test_unbounded_lp_gets_typed_status(engine):
    lp = StandardFormLP(
        c=[1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[0.0], lo=[0.0, 0.0], hi=[np.inf, np.inf]
    )
    assert engine(lp, SolverOptions()).status == "unbounded"


def test_box_only_lp():
    lp = StandardFormLP(c=[2.0, -1.0], lo=[0.0, 0.0], hi=[1.5, np.inf])
    res = solve(lp)
    assert res.optimal
    np.testing.assert_allclose(res.x, [1.5, 0.0])
    assert solve(StandardFormLP(c=[1.0], lo=[0.0], hi=[np.inf])).status == "unbounded"


def test_free_variable_with_equalities():
    lp = StandardFormLP(
        c=[1, 0, 0],
        a_ub=[[1, -1, 0]],
        b_ub=[0.0],
        a_eq=[[0, 1, 1]],
        b_eq=[1.0],
        lo=[-np.inf, 0, 0],
        hi=[np.inf, np.inf, np.inf],
    )
    res = solve(lp)
    assert res.optimal
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


def test_weak_duality_and_scipy_agreement():
    rng = np.random.default_rng(7)
    for _ in range(30):
        lp = random_feasible_lp(rng)
        mine = solve(lp)
        ref = scipy_linprog_solve(lp)
        if ref.status != "optimal":
            assert mine.status != "optimal"
            continue
        assert mine.optimal
        assert check_kkt(lp, mine).passed(1e-6)
        assert mine.objective == pytest.approx(ref.objective, abs=1e-6 * (1 + abs(ref.objective)))
        # weak duality: dual objective must not undercut the primal
        assert dual_objective(lp, mine) >= mine.objective - 1e-6 * (1 + abs(mine.objective))


def test_simplex_agrees_with_scipy():
    rng = np.random.default_rng(13)
    for _ in range(25):
        lp = random_feasible_lp(rng)
        ref = scipy_linprog_solve(lp)
        mine = solve_simplex(lp)
        if ref.status != "optimal":
            continue
        assert mine.optimal
        assert check_kkt(lp, mine).passed(1e-7)
        assert mine.objective == pytest.approx(ref.objective, abs=1e-7 * (1 + abs(ref.objective)))


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


def boxed_lp(rng, n, m_in):
    """A feasible, bounded LP with ``m_in`` dense inequality rows."""
    a = rng.normal(size=(m_in, n))
    b = a @ rng.uniform(0, 1, n) + rng.uniform(0.1, 1.0, m_in)
    return StandardFormLP(c=rng.normal(size=n), a_ub=a, b_ub=b, lo=np.zeros(n), hi=np.full(n, 2.0))


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


def test_sparse_solve_runs_on_one_blas_thread(fake_blas, monkeypatch):
    # a threshold of 1 puts every LP with rows on the sparse path
    monkeypatch.setattr(lp_module, "_DENSE_MAX_ENTRIES", 1)
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


def solve_dense_and_sparse(lp, monkeypatch):
    dense = solve_interior_point(lp)
    with monkeypatch.context() as patch:
        # a threshold of 1 puts every LP with rows on the sparse path
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
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(10, 40))
    for lp in (boxed_lp(rng, n, int(rng.integers(2, 25))), sparse_boxed_lp(rng, n, n // 2, n // 5)):
        assert_same_solution(*solve_dense_and_sparse(lp, monkeypatch))


def test_sparse_path_solves_free_variables_with_equalities(monkeypatch):
    # the free column's Schur complement hands the block solve a 2-D right-hand side
    lp = StandardFormLP(
        c=[1, 0, 0],
        a_ub=[[1, -1, 0]],
        b_ub=[0.0],
        a_eq=[[0, 1, 1]],
        b_eq=[1.0],
        lo=[-np.inf, 0, 0],
        hi=[np.inf, np.inf, np.inf],
    )
    dense, sparse = solve_dense_and_sparse(lp, monkeypatch)
    assert sparse.objective == pytest.approx(1.0, abs=1e-8)
    assert check_kkt(lp, sparse).passed(1e-6)
    assert_same_solution(dense, sparse)


def test_sparse_path_handles_empty_rows(monkeypatch):
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
    dense, sparse = solve_dense_and_sparse(lp, monkeypatch)
    assert check_kkt(lp, sparse).passed(1e-6)
    assert_same_solution(dense, sparse)


def test_sparse_path_keeps_typed_statuses(monkeypatch):
    infeasible = StandardFormLP(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0], lo=[0.0], hi=[np.inf])
    unbounded = StandardFormLP(
        c=[1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[0.0], lo=[0.0, 0.0], hi=[np.inf, np.inf]
    )
    for lp, status in ((infeasible, "infeasible"), (unbounded, "unbounded")):
        dense, sparse = solve_dense_and_sparse(lp, monkeypatch)
        assert dense.status == sparse.status == status


def assert_disjoint_and_maximal(a, rows):
    support = (abs(a) > 0).astype(int)
    chosen_cols = np.asarray(support[rows].sum(axis=0)).ravel()
    assert chosen_cols.max(initial=0) <= 1  # pairwise disjoint supports
    # every other nonempty row meets a chosen one, so the greedy missed none
    others = np.setdiff1d(np.arange(a.shape[0]), rows)
    assert np.all((support[others] @ chosen_cols)[support[others].getnnz(axis=1) > 0] > 0)


def test_disjoint_rows_on_random_sparse_matrices():
    rng = np.random.default_rng(4)
    for _ in range(20):
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 60)))
        a = sp.random(*shape, density=0.08, random_state=rng, format="csr")
        assert_disjoint_and_maximal(a, lp_module._disjoint_rows(a))
    # a row that stores only zeros is empty, whatever its stored entries say
    stored_zero_row = sp.csr_matrix(([0.0, 2.0], [0, 1], [0, 1, 2]), shape=(2, 2))
    assert lp_module._disjoint_rows(stored_zero_row).tolist() == [1]


def flow_lp():
    """A spawned team's flow LP, its layout, and its rows in the solver's order."""
    scenario = spawn_scenario(ScenarioConfig(num_task=6, num_relay=3, rng_seed=2))
    lp, index = build_lp(build_instance(scenario, weight_preset("adhoc", len(scenario.commodities))))
    return lp, index, sp.vstack([lp.a_eq, lp.a_ub], format="csr")


def test_disjoint_rows_take_every_capacity_row_of_a_flow_lp():
    lp, index, a_hat = flow_lp()
    rows = lp_module._disjoint_rows(a_hat)
    assert_disjoint_and_maximal(a_hat, rows)
    cap_rows = lp.num_eq + index.cap_row0 + np.arange(index.num_pairs)
    assert np.isin(cap_rows, rows).all()


def test_block_normal_solver_solves_the_normal_equations():
    lp, _, a_hat = flow_lp()
    rng = np.random.default_rng(8)
    dinv = 10.0 ** rng.uniform(-3, 3, lp.num_vars)
    e_diag = np.concatenate([np.zeros(lp.num_eq), rng.uniform(0.1, 1.0, lp.num_ineq)])
    m_mat = (a_hat.multiply(dinv[None, :]) @ a_hat.T).toarray() + np.diag(e_diag)
    rows = lp_module._disjoint_rows(a_hat)
    m_solve = lp_module._block_normal_solver(a_hat, rows, dinv, e_diag)
    # one right-hand side, and several at once as for the free columns
    for rhs in (rng.normal(size=a_hat.shape[0]), rng.normal(size=(a_hat.shape[0], 3))):
        expected = np.linalg.solve(m_mat, rhs)
        np.testing.assert_allclose(m_solve(rhs), expected, rtol=0, atol=1e-9 * np.abs(expected).max())



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
        rhs_list = [rng.normal(size=num_rows), rng.normal(size=(num_rows, 3))]
        direct = make_solver()
        got = [direct(rhs) for rhs in rhs_list]
        with monkeypatch.context() as patch:
            patch.setattr(lp_module, "_cho_factor_jittered", scipy_factor)
            patch.setattr(lp_module, "_cho_solve", lambda f, rhs: cho_solve(f, rhs, check_finite=False))
            reference = make_solver()
            for rhs, out in zip(rhs_list, got):
                assert np.array_equal(out, reference(rhs))

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

    lp, _, a_hat = flow_lp()
    rows = lp_module._disjoint_rows(a_hat)
    flow_dinv = 10.0 ** rng.uniform(-3, 3, lp.num_vars)
    flow_e = np.concatenate([np.zeros(lp.num_eq), rng.uniform(0.1, 1.0, lp.num_ineq)])
    assert_matches_scipy(lambda: lp_module._block_normal_solver(a_hat, rows, flow_dinv, flow_e), a_hat.shape[0])

    # every column in one row: every row is eliminated and the Schur complement is empty
    diagonal = sp.csr_matrix((rng.normal(size=n), (np.arange(n) % m, np.arange(n))), shape=(m, n))
    rows = lp_module._disjoint_rows(diagonal)
    assert rows.size == m
    e_diag = rng.uniform(0.1, 1.0, m)
    assert_matches_scipy(lambda: lp_module._block_normal_solver(diagonal, rows, dinv, e_diag), m)
