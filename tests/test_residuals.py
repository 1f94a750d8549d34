"""The residual checks against plain reference implementations.

``lp.check_kkt``, ``mcfp.verify_solution`` and the input checks of
``McfpInstance`` reduce each residual in as few numpy calls as they
can.  The references below take one ``np.max`` per term and a Python
list per residual, as the checks once did; every residual must come out
the same, to the sign of a zero, on random LPs and flow solutions, on
perturbed and NaN-laden results and on every input a check rejects.
"""

import dataclasses

import numpy as np
import pytest

from relayflow import (
    McfpInstance,
    ScenarioConfig,
    StandardFormLP,
    build_instance,
    check_kkt,
    default_commodities,
    solve,
    solve_mcfp,
    spawn_scenario,
    verify_solution,
    weight_preset,
)
from relayflow.lp import KktReport, dual_objective
from relayflow.mcfp import VerificationReport


def reference_check_kkt(lp, result):
    x = result.x
    grad = lp.c - lp.a_ub.rmatvec(result.y_ineq) - lp.a_eq.rmatvec(result.y_eq)
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
    primal = (float(np.max(viol)) + 0.0) / rhs_scale
    dual = float(np.max([
        float(np.max(-result.y_ineq, initial=0.0)),
        float(np.max(np.where(np.isfinite(lp.lo), -result.z_lower, 0.0), initial=0.0)),
        float(np.max(np.where(np.isfinite(lp.hi), -result.z_upper, 0.0), initial=0.0)),
    ])) + 0.0
    obj = float(lp.c @ x)
    gl = np.where(np.isfinite(lp.lo), x - lp.lo, 0.0)
    gu = np.where(np.isfinite(lp.hi), lp.hi - x, 0.0)
    comp_terms = [
        float(np.max(np.abs(result.y_ineq * slack_ub), initial=0.0)),
        float(np.max(np.abs(result.z_lower * gl), initial=0.0)),
        float(np.max(np.abs(result.z_upper * gu), initial=0.0)),
    ]
    complementarity = float(np.max(comp_terms)) / (1.0 + abs(obj))
    gap = abs(obj - dual_objective(lp, result)) / (1.0 + abs(obj))
    return KktReport(stationarity, primal, dual, complementarity, gap)


def reference_verify_solution(inst, sol):
    n = inst.num_agents
    off_diag = ~np.eye(n, dtype=bool)
    slack = inst.capacities - sol.r.sum(axis=2)
    net_out = sol.r.sum(axis=1) - sol.r.sum(axis=0)
    src_k = np.repeat(np.arange(len(inst.commodities)), [len(com.sources) for com in inst.commodities])
    src_i = np.array([i for com in inst.commodities for i in com.sources], dtype=int)
    cons = [(k, i) for k, com in enumerate(inst.commodities) for i in range(n)
            if i != com.sink and i not in com.sources]
    cons_k = np.array([k for k, _ in cons], dtype=int)
    cons_i = np.array([i for _, i in cons], dtype=int)
    a_src = sol.a[src_k, src_i]
    primal = float(np.max([
        float(np.max(-slack[off_diag], initial=0.0)),
        float(np.max(-sol.r, initial=0.0)),
        float(np.max(sol.r - 1.0, initial=0.0)),
        float(np.max(-sol.a, initial=0.0)),
        float(np.max(np.abs(net_out[cons_i, cons_k]), initial=0.0)),
        float(np.max(a_src - net_out[src_i, src_k], initial=0.0)),
        float(np.max(sol.t[src_k] - a_src, initial=0.0)),
    ])) + 0.0
    dual = float(np.max([
        float(np.max(-sol.mu, initial=0.0)),
        float(np.max(-sol.lam, initial=0.0)),
    ])) + 0.0
    comp = float(np.max(np.abs(sol.mu * slack), initial=0.0))
    slack_mu = float(np.max(sol.mu[off_diag & (slack >= 1e-3)], initial=0.0)) + 0.0
    if sol.lp is not None and sol.lp_result is not None:
        kkt = reference_check_kkt(sol.lp, sol.lp_result)
        dual = float(np.max([dual, kkt.stationarity, kkt.dual_feasibility]))
        gap = kkt.gap
    else:
        gap = float(sol.gap)
    return VerificationReport(primal, dual, comp, gap, slack_mu, 1e-6, 1e-3)


def reference_instance_error(capacities, weights, num_commodities):
    """The message McfpInstance must raise for these inputs, None if it must accept them."""
    c = np.asarray(capacities, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not np.all((c >= 0.0) & (c <= 1.0)):
        return "capacities must lie in [0, 1]"
    if not np.allclose(c, c.T, atol=1e-12):
        return "capacity matrix must be symmetric"
    if np.any(np.diag(c) != 0.0):
        return "capacity diagonal must be zero (no self links)"
    if w.shape != (num_commodities,):
        return f"expected {num_commodities} weights"
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        return "weights must be finite and nonnegative"
    return None


def assert_same_report(found, want):
    """Every field equal, a zero's sign included; NaN matches any NaN."""
    assert type(found) is type(want)
    for fld in dataclasses.fields(want):
        a, b = getattr(found, fld.name), getattr(want, fld.name)
        assert isinstance(a, float), (fld.name, type(a))
        if np.isnan(b):
            assert np.isnan(a), (fld.name, a, b)
        else:
            assert a == b and np.signbit(a) == np.signbit(b), (fld.name, a, b)


def random_lp(rng):
    """A feasible LP with boxed, lower-only, upper-only and free columns."""
    n = int(rng.integers(2, 12))
    m_in = int(rng.integers(0, 10))
    m_eq = int(rng.integers(0, min(n - 1, 4)))
    z0 = rng.uniform(0, 1, n)
    a = rng.normal(size=(m_in, n))
    g = rng.normal(size=(m_eq, n))
    kind = rng.integers(0, 4, n)  # boxed, lower-only, upper-only, free
    lo = np.where(kind <= 1, 0.0, -np.inf)
    hi = np.where(kind % 2 == 0, rng.uniform(1.5, 4, n), np.inf)
    return StandardFormLP(c=rng.normal(size=n), a_ub=a, b_ub=a @ z0 + rng.uniform(0.1, 1.0, m_in),
                          a_eq=g, b_eq=g @ z0, lo=lo, hi=hi)


RESULT_ARRAYS = ("x", "y_ineq", "y_eq", "z_lower", "z_upper")


def perturbed(rng, result):
    """``result`` with noise, flipped signs, signed zeros or non-finite entries."""
    changes = {}
    for name in RESULT_ARRAYS:
        arr = getattr(result, name).copy()
        if arr.size == 0:
            continue
        how = rng.integers(0, 6)
        at = rng.integers(0, arr.size)
        if how == 1:
            arr += rng.normal(scale=1e-3, size=arr.size)
        elif how == 2:
            arr = -arr
        elif how == 3:
            arr[at] = -0.0
            arr[arr == 0.0] = -0.0
        elif how == 4:
            arr[at] = rng.choice([np.nan, np.inf, -np.inf])
        elif how == 5:
            arr[:] = 0.0
        changes[name] = arr
    return dataclasses.replace(result, **changes)


@pytest.mark.parametrize("seed", range(40))
def test_check_kkt_matches_the_reference_on_random_lps(seed):
    rng = np.random.default_rng(7000 + seed)
    lp = random_lp(rng)
    result = solve(lp)
    assert_same_report(check_kkt(lp, result), reference_check_kkt(lp, result))
    for _ in range(10):
        candidate = perturbed(rng, result)
        with np.errstate(all="ignore"):  # inf - inf and inf * 0 are NaN, as they should be
            assert_same_report(check_kkt(lp, candidate), reference_check_kkt(lp, candidate))


@pytest.mark.parametrize("name", RESULT_ARRAYS[:2] + RESULT_ARRAYS[3:])
def test_check_kkt_matches_the_reference_with_a_nan_entry(name):
    lp = StandardFormLP(c=[1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], lo=[0, 0], hi=[1, 1])
    res = solve(lp)
    getattr(res, name)[-1] = np.nan
    report = check_kkt(lp, res)
    assert_same_report(report, reference_check_kkt(lp, res))
    assert np.isnan(report.max_residual)


def flow_solutions(model):
    for num_task, num_relay, seed in ((2, 1, 0), (3, 1, 1), (4, 2, 2), (3, 4, 3)):
        scenario = spawn_scenario(ScenarioConfig(num_task, num_relay, rng_seed=seed), model)
        for preset in ("adhoc", "ap:0"):
            inst = build_instance(scenario, weight_preset(preset, num_task))
            yield inst, solve_mcfp(inst)


FLOW_ARRAYS = ("r", "a", "t", "lam", "nu", "mu")


def test_verify_solution_matches_the_reference_on_random_flow_solutions(model):
    rng = np.random.default_rng(71)
    for inst, sol in flow_solutions(model):
        assert_same_report(verify_solution(inst, sol), reference_verify_solution(inst, sol))
        shrunk = inst.with_capacities(0.5 * inst.capacities)  # the flows now overload their links
        assert_same_report(verify_solution(shrunk, sol), reference_verify_solution(shrunk, sol))
        for _ in range(20):
            changes = {}
            for name in FLOW_ARRAYS:
                arr = getattr(sol, name).copy()
                how = rng.integers(0, 6)
                at = rng.integers(0, arr.size)
                if how == 1:
                    arr += rng.normal(scale=1e-2, size=arr.shape)
                elif how == 2:
                    arr = -arr
                elif how == 3:
                    arr[arr == 0.0] = -0.0
                elif how == 4:
                    arr.flat[at] = rng.choice([np.nan, np.inf, -np.inf])
                elif how == 5:  # out of its bounds, a diagonal flow included
                    arr.flat[at] += rng.choice([-1.5, 1.5])
                changes[name] = arr
            if rng.random() < 0.25:
                changes["lp"] = None  # the gap then comes from the solution
            bad = dataclasses.replace(sol, **changes)
            with np.errstate(all="ignore"):  # inf - inf and inf * 0 are NaN, as they should be
                assert_same_report(verify_solution(inst, bad), reference_verify_solution(inst, bad))


@pytest.mark.parametrize("name, index", [("r", (0, 1, 0)), ("r", (-1, -1, -1)), ("a", (-1, -1)),
                                         ("t", (-1,)), ("mu", (0, 1)), ("lam", (-1, -1))])
def test_verify_solution_matches_the_reference_with_a_nan_entry(bridge_scenario, name, index):
    inst = build_instance(bridge_scenario, [1.0, 1.0])
    sol = solve_mcfp(inst)
    bad = getattr(sol, name).copy()
    bad[index] = np.nan
    bad = dataclasses.replace(sol, **{name: bad})
    report = verify_solution(inst, bad)
    assert_same_report(report, reference_verify_solution(inst, bad))
    assert not report.passed


def test_instance_checks_match_the_reference():
    rng = np.random.default_rng(72)
    specials = [np.nan, np.inf, -np.inf, -0.0, -1e-300, 1.0 + 1e-15, 1e-12, 2e-12]
    for _ in range(600):
        n = int(rng.integers(2, 5))
        c = rng.uniform(0.0, 1.0, (n, n))
        c = np.triu(c, 1) + np.triu(c, 1).T
        weights = rng.uniform(0.0, 2.0, n)
        how = rng.integers(0, 6)
        i, j = rng.integers(0, n, 2)
        if how == 1:
            c[i, j] = rng.choice(specials)
        elif how == 2:
            c[i, j] = c[j, i] = rng.choice(specials)
        elif how == 3:
            c[i, j] *= 1.0 + rng.choice([4e-6, 6e-6, -6e-6])
        elif how == 4:
            weights[i] = rng.choice(specials)
        elif how == 5:
            weights = weights[1:]
        want = reference_instance_error(c, weights, n)
        if want is None:
            McfpInstance(c, default_commodities(n), weights)
        else:
            with pytest.raises(ValueError) as excinfo:
                McfpInstance(c, default_commodities(n), weights)
            assert str(excinfo.value).startswith(want), (c, weights)
