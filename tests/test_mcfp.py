import dataclasses
import json

import numpy as np
import pytest
from scipy.optimize import linprog

from relayflow import (
    CommoditySpec,
    McfpInstance,
    McfpSolveError,
    Scenario,
    ScenarioConfig,
    SolverOptions,
    build_instance,
    build_lp,
    default_commodities,
    flow_solution_to_dict,
    gradient_from_duals,
    scipy_linprog_solve,
    solve_mcfp,
    spawn_scenario,
    verify_solution,
    weight_preset,
)
from relayflow import lp as lp_module
from relayflow import mcfp as mcfp_module
from relayflow.simplex import solve_simplex

E1 = np.exp(-1.0)
E4 = np.exp(-4.0)
# the default interior point, the dense simplex and HiGHS through linprog
ENGINES = [None, solve_simplex, scipy_linprog_solve]
ENGINE_IDS = ["default", "simplex", "linprog"]


def oracle_phi(inst):
    """Independent optimum: a from-scratch dense LP build solved by scipy.

    Variable order and constraint assembly are deliberately different
    from the production construction.  Commodity k is conserved at every
    agent that is neither its sink nor one of its sources.
    """
    n = inst.num_agents
    num_k = inst.num_commodities
    pairs = [(i, j) for j in range(n) for i in range(n) if i != j]  # column-major on purpose
    var_r = {(i, j, k): idx for k in range(num_k) for idx, (i, j) in enumerate(pairs)}
    var_r = {}
    idx = 0
    for k in range(num_k):
        for (i, j) in pairs:
            var_r[(i, j, k)] = idx
            idx += 1
    var_a = {}
    for k, com in enumerate(inst.commodities):
        for i in com.sources:
            var_a[(k, i)] = idx
            idx += 1
    var_t = {}
    for k in range(num_k):
        var_t[k] = idx
        idx += 1
    nv = idx

    rows_ub = []
    rhs_ub = []
    for k, com in enumerate(inst.commodities):
        for i in com.sources:
            row = np.zeros(nv)
            row[var_t[k]] = 1.0
            row[var_a[(k, i)]] = -1.0
            rows_ub.append(row)
            rhs_ub.append(0.0)
            row = np.zeros(nv)
            row[var_a[(k, i)]] = 1.0
            for j in range(n):
                if j != i:
                    row[var_r[(i, j, k)]] -= 1.0
                    row[var_r[(j, i, k)]] += 1.0
            rows_ub.append(row)
            rhs_ub.append(0.0)
    for (i, j) in pairs:
        row = np.zeros(nv)
        for k in range(num_k):
            row[var_r[(i, j, k)]] = 1.0
        rows_ub.append(row)
        rhs_ub.append(inst.capacities[i, j])

    rows_eq = []
    for k, com in enumerate(inst.commodities):
        for i in range(n):
            if i == com.sink or i in com.sources:
                continue
            row = np.zeros(nv)
            for j in range(n):
                if j != i:
                    row[var_r[(i, j, k)]] += 1.0
                    row[var_r[(j, i, k)]] -= 1.0
            rows_eq.append(row)

    cost = np.zeros(nv)
    for k in range(num_k):
        cost[var_t[k]] = -inst.weights[k]
    bounds = [(0.0, 1.0)] * len(var_r) + [(0.0, None)] * len(var_a) + [(None, None)] * num_k
    res = linprog(
        cost,
        A_ub=np.array(rows_ub),
        b_ub=np.array(rhs_ub),
        A_eq=np.array(rows_eq) if rows_eq else None,
        b_eq=np.zeros(len(rows_eq)) if rows_eq else None,
        bounds=bounds,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def test_build_instance_unit_distance(two_agents_unit):
    inst = build_instance(two_agents_unit, [1.0, 1.0])
    assert inst.capacities[0, 1] == pytest.approx(E1, rel=1e-12)
    assert inst.capacities[1, 0] == pytest.approx(E1, rel=1e-12)
    assert inst.capacities[0, 0] == 0.0


def test_build_instance_single_agent(model):
    scenario = Scenario(np.array([[0.0, 0.0]]), np.zeros((0, 2)), model, ())
    inst = build_instance(scenario, [])
    assert inst.capacities.shape == (1, 1)
    assert inst.capacities[0, 0] == 0.0


def test_build_instance_coincident_agents(model):
    scenario = Scenario(
        np.array([[0.5, 0.5], [0.5, 0.5]]), np.zeros((0, 2)), model, default_commodities(2)
    )
    inst = build_instance(scenario, [1.0, 1.0])
    assert inst.capacities[0, 1] == 1.0


def test_build_lp_dimensions(bridge_scenario):
    inst = build_instance(bridge_scenario, [1.0, 1.0])
    lp, index = build_lp(inst)
    assert lp.num_vars == 16  # r: 12, a: 2, t: 2
    assert index.num_pairs == 6
    assert list(zip(index.pair_i, index.pair_j)) == [(i, j) for i in range(3) for j in range(3) if i != j]
    assert lp.num_ineq == 2 + 2 + 6  # epigraph, injection, capacity rows
    assert lp.num_eq == 2  # one conservation row per (commodity, relay)
    # capacity rows carry the rates in pair order
    assert index.cap_row0 == lp.num_ineq - index.num_pairs
    np.testing.assert_array_equal(lp.b_ub[index.cap_row0 :], inst.capacities[index.pair_i, index.pair_j])


def test_zero_weights_give_zero_objective(bridge_scenario):
    inst = build_instance(bridge_scenario, [0.0, 0.0])
    sol = solve_mcfp(inst)
    assert sol.phi == pytest.approx(0.0, abs=1e-9)
    assert np.max(np.abs(sol.mu)) <= 1e-6


def test_two_agents_unit_distance_optimum(two_agents_unit):
    inst = build_instance(two_agents_unit, [1.0, 1.0])
    sol = solve_mcfp(inst)
    assert sol.phi == pytest.approx(2 * E1, abs=1e-8)
    assert sol.a[0, 1] == pytest.approx(E1, abs=1e-7)
    assert sol.a[1, 0] == pytest.approx(E1, abs=1e-7)


def test_bridge_optimum(bridge_scenario):
    # direct edge plus the two-hop path through the midpoint relay
    inst = build_instance(bridge_scenario, [1.0, 1.0])
    sol = solve_mcfp(inst)
    assert sol.phi == pytest.approx(2 * (E1 + E4), abs=1e-8)


def test_single_commodity_bridge_matches_min_cut(model):
    scenario = Scenario(
        np.array([[0.0, 0.0], [2.0, 0.0]]),
        np.array([[1.0, 0.0]]),
        model,
        (CommoditySpec(sink=0, sources=(1,)),),
    )
    sol = solve_mcfp(build_instance(scenario, [1.0]))
    assert sol.phi == pytest.approx(E1 + E4, abs=1e-8)


def test_verify_passes_on_optimal(bridge_scenario):
    inst = build_instance(bridge_scenario, [1.0, 1.0])
    report = verify_solution(inst, solve_mcfp(inst))
    assert report.passed
    assert report.complementarity <= 1e-8


def test_a_solution_that_fails_verification_is_raised_with_its_report(monkeypatch, bridge_scenario):
    # verification is the last gate of solve_mcfp: the failing report and
    # the LP result behind the rejected point travel on the error
    real_verify = mcfp_module.verify_solution
    reports = []

    def failing_verify(inst, sol):
        reports.append(dataclasses.replace(real_verify(inst, sol), dual_residual=1.0))
        return reports[-1]

    monkeypatch.setattr(mcfp_module, "verify_solution", failing_verify)
    with pytest.raises(McfpSolveError, match="failed verification") as excinfo:
        solve_mcfp(build_instance(bridge_scenario, [1.0, 1.0]))
    assert len(reports) == 1 and not reports[0].passed
    assert excinfo.value.report is reports[0]
    assert excinfo.value.lp_result is not None and excinfo.value.lp_result.optimal


def test_verify_catches_hand_perturbed_flow(bridge_scenario):
    inst = build_instance(bridge_scenario, [1.0, 1.0])
    sol = solve_mcfp(inst)
    r_bad = sol.r.copy()
    r_bad[0, 1, 0] += 0.1
    bad = dataclasses.replace(sol, r=r_bad)
    report = verify_solution(inst, bad)
    assert not report.passed
    assert report.primal_residual >= 0.1 - 1e-6


def test_verify_catches_injection_above_net_outflow(bridge_scenario):
    inst = build_instance(bridge_scenario, [1.0, 1.0])
    sol = solve_mcfp(inst)
    k, i = 1, inst.commodities[1].sources[0]
    a_bad = sol.a.copy()
    a_bad[k, i] += 0.1  # nonnegative and above t_k, so only the net-outflow row breaks
    report = verify_solution(inst, dataclasses.replace(sol, a=a_bad))
    assert not report.passed
    assert report.primal_residual == pytest.approx(0.1, abs=1e-6)


@pytest.mark.parametrize(
    "name, index",
    [
        ("r", (0, 1, 0)),  # an off-diagonal flow: the capacity term sees it first
        ("r", (-1, -1, -1)),  # a diagonal flow: only the flow bound and complementarity see it
        ("a", (-1, -1)),
        ("t", (-1,)),
        ("mu", (0, 1)),
        ("lam", (-1, -1)),
    ],
)
def test_verify_fails_a_solution_with_a_nan_entry(bridge_scenario, name, index):
    # Python's max drops a NaN that does not lead, so every residual takes np.max
    inst = build_instance(bridge_scenario, [1.0, 1.0])
    sol = solve_mcfp(inst)
    bad = getattr(sol, name).copy()
    bad[index] = np.nan
    assert not verify_solution(inst, dataclasses.replace(sol, **{name: bad})).passed


def test_slack_edges_carry_no_price(model):
    # one-hot weights leave the edges serving other commodities unused
    scenario = Scenario(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.4]]),
        np.zeros((0, 2)),
        model,
        default_commodities(3),
    )
    inst = build_instance(scenario, weight_preset("ap:0", 3))
    sol = solve_mcfp(inst)
    total = sol.r.sum(axis=2)
    slack = inst.capacities - total
    big_slack = slack >= 0.1
    np.fill_diagonal(big_slack, False)
    assert np.any(big_slack)
    assert np.max(sol.mu[big_slack]) <= 1e-6
    assert verify_solution(inst, sol).slack_mu_max <= 1e-6


def test_epigraph_matches_minimum_injection(model):
    scenario = spawn_scenario(ScenarioConfig(num_task=4, num_relay=1, rng_seed=3), model)
    weights = np.array([1.0, 0.5, 2.0, 1.0])
    sol = solve_mcfp(build_instance(scenario, weights))
    for k, com in enumerate(scenario.commodities):
        min_a = min(sol.a[k, i] for i in com.sources)
        assert sol.t[k] == pytest.approx(min_a, abs=1e-6)


def test_relay_conservation_and_capacity_respect(model):
    scenario = spawn_scenario(ScenarioConfig(num_task=5, num_relay=2, rng_seed=8), model)
    inst = build_instance(scenario, np.ones(5))
    sol = solve_mcfp(inst)
    out_flow = sol.r.sum(axis=1)
    in_flow = sol.r.sum(axis=0)
    for i in range(scenario.num_task, inst.num_agents):
        np.testing.assert_allclose(out_flow[i], in_flow[i], atol=1e-6)
    assert np.all(sol.r.sum(axis=2) <= inst.capacities + 1e-6)


def test_phi_monotone_in_capacity(model):
    rng = np.random.default_rng(17)
    for trial in range(4):
        scenario = spawn_scenario(
            ScenarioConfig(num_task=3, num_relay=1, rng_seed=30 + trial), model
        )
        inst = build_instance(scenario, np.ones(3))
        base = solve_mcfp(inst).phi
        c2 = inst.capacities.copy()
        i, j = rng.choice(inst.num_agents, size=2, replace=False)
        c2[i, j] = min(1.0, c2[i, j] + 0.05)
        c2[j, i] = c2[i, j]  # keep the matrix symmetric
        raised = solve_mcfp(inst.with_capacities(c2)).phi
        assert raised >= base - 1e-7


def _asym_instance(inst, c_new):
    """Bypass the symmetry validator for a directional capacity bump."""
    bumped = McfpInstance.__new__(McfpInstance)
    bumped.capacities = c_new
    bumped.commodities = inst.commodities
    bumped.weights = inst.weights
    return bumped


def test_duals_predict_capacity_sensitivity(two_agents_unit):
    # non-degenerate instance: each commodity saturates its single edge,
    # so the shadow price of that edge is the slope of the optimum
    inst = build_instance(two_agents_unit, [1.0, 1.0])
    sol = solve_mcfp(inst)
    h = 1e-4
    i, j = 1, 0
    assert sol.mu[i, j] > 0.01
    c_bump = inst.capacities.copy()
    c_bump[i, j] += h
    lifted = solve_mcfp(_asym_instance(inst, c_bump))
    predicted = sol.mu[i, j] * h
    actual = lifted.phi - sol.phi
    assert actual == pytest.approx(predicted, rel=0.1)


def bystander_scenario(model):
    """Tasks at (0, 0), (5, 0) and (5.1, 0); one commodity from task 1 to
    task 0, which task 2 is outside of."""
    return Scenario(
        np.array([[0.0, 0.0], [5.0, 0.0], [5.1, 0.0]]), np.zeros((0, 2)), model,
        (CommoditySpec(sink=0, sources=(1,)),),
    )


def test_oracle_equivalence_small_instances(model):
    # every instance with at most 4 agents checked against the
    # independently built scipy LP
    cases = []
    for seed in range(6):
        cases.append(spawn_scenario(ScenarioConfig(num_task=2, num_relay=seed % 3, rng_seed=seed), model))
    cases.append(
        Scenario(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((0, 2)), model, default_commodities(2))
    )
    cases.append(
        Scenario(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([[1.0, 0.0]]), model, default_commodities(2))
    )
    cases.append(
        Scenario(
            np.array([[0.0, 0.0], [1.5, 0.5]]),
            np.array([[0.5, 0.1], [1.0, 0.4]]),
            model,
            (CommoditySpec(sink=0, sources=(1,)), CommoditySpec(sink=1, sources=(0,))),
        )
    )
    weight_choices = [None, "ap:0", "subset:1"]
    weighted = [
        (scenario, weight_preset(kind, 2) if kind else np.ones(2))
        for scenario, kind in zip(cases, weight_choices * len(cases))
    ]
    # irregular commodity structures: sources a strict subset of the
    # tasks, fewer commodities than tasks, a single relay
    square = np.array([[0.0, 0.0], [1.2, 0.0], [1.2, 1.0]])
    weighted += [
        (
            Scenario(square, np.array([[0.6, 0.3]]), model, (
                CommoditySpec(sink=0, sources=(2,)),
                CommoditySpec(sink=2, sources=(0, 1)),
            )),
            np.array([1.0, 0.5]),
        ),
        (
            Scenario(square, np.array([[0.9, 0.6]]), model, (
                CommoditySpec(sink=1, sources=(0,)),
                CommoditySpec(sink=0, sources=(1, 2)),
                CommoditySpec(sink=2, sources=(1,)),
            )),
            np.array([0.5, 1.0, 2.0]),
        ),
        (
            Scenario(
                np.vstack([square, [[0.0, 1.0]]]), np.zeros((0, 2)), model,
                (CommoditySpec(sink=3, sources=(0, 1)),),
            ),
            np.ones(1),
        ),
    ]
    bystander = bystander_scenario(model)
    weighted.append((bystander, np.ones(1)))
    for scenario, weights in weighted:
        assert scenario.num_agents <= 4
        inst = build_instance(scenario, weights)
        sol = solve_mcfp(inst)
        assert sol.phi == pytest.approx(oracle_phi(inst), abs=1e-5)
    # task 2 only forwards commodity 0: sink 0 gets at most C10 + min(C12, C20),
    # however wide the link from source 1 to task 2
    inst = build_instance(bystander, np.ones(1))
    cap = inst.capacities
    for engine in ENGINES:
        phi = solve_mcfp(inst, SolverOptions(engine=engine)).phi
        assert abs(phi - (cap[1, 0] + min(cap[1, 2], cap[2, 0]))) <= 1e-9, engine


def test_verify_fails_flow_absorbed_by_a_task_outside_its_commodity(model):
    # source 1 injects 0.5 of commodity 0 and sends it to task 2, which is
    # neither the sink nor a source; every other row holds
    inst = build_instance(bystander_scenario(model), np.ones(1))
    r = np.zeros((3, 3, 1))
    r[1, 2, 0] = 0.5
    a = np.zeros((1, 3))
    a[0, 1] = 0.5
    absorbed = mcfp_module.FlowSolution(
        phi=0.5, r=r, a=a, t=np.full(1, 0.5), lam=np.zeros((1, 3)), nu=np.zeros((1, 3)),
        mu=np.zeros((3, 3)), gap=0.0, status="optimal", iterations=0,
    )
    report = verify_solution(inst, absorbed)
    assert not report.passed
    assert report.primal_residual == pytest.approx(0.5)


def _reduced_costs(inst, sol):
    """rc[i, j, k] of every flow column, priced by the returned duals.

    The potential of agent i for commodity k is its injection-row dual
    if i is a source of k, minus its conservation dual (zero at the sink
    and the sources of k); a column's reduced cost is the potential drop
    along (i, j) minus the capacity price mu_ij.
    """
    is_source = np.zeros((inst.num_commodities, inst.num_agents))
    for k, com in enumerate(inst.commodities):
        is_source[k, list(com.sources)] = 1.0
    pot = (sol.lam * is_source - sol.nu).T  # (N, K)
    return pot[:, None, :] - pot[None, :, :] - sol.mu[:, :, None]


def test_every_solve_is_verified(model):
    cases = [
        (ScenarioConfig(num_task=4, num_relay=2, rng_seed=50 + seed), kind)
        for seed in range(3)
        for kind in ["adhoc", "ap:1", "subset:0,2"]
    ]
    # the mobile-team layout of the benchmark: one weighted commodity of five
    cases.append((ScenarioConfig(num_task=5, num_relay=2, rng_seed=21), "ap:0"))
    for config, kind in cases:
        scenario = spawn_scenario(config, model)
        inst = build_instance(scenario, weight_preset(kind, config.num_task))
        sol = solve_mcfp(inst)
        report = verify_solution(inst, sol)
        assert report.passed, (config, kind, report)
        # the LP leaves out the zero-weight commodities, which keep exact zero
        # rows, and still reaches the optimum of the full LP
        zero = inst.weights == 0
        for arr in (sol.r[:, :, zero], sol.a[zero], sol.t[zero], sol.lam[zero], sol.nu[zero]):
            assert not arr.any(), (config, kind)
        full = scipy_linprog_solve(build_lp(inst)[0])
        assert full.optimal
        assert abs(sol.phi - full.objective) <= 1e-9 * (1.0 + abs(sol.phi)), (config, kind)
        # no flow column below its upper bound prices positive, and
        # flow runs only on columns of zero reduced cost
        rc = _reduced_costs(inst, sol)
        off_diag = ~np.eye(inst.num_agents, dtype=bool)
        assert np.max(rc[sol.r < 1 - 1e-6]) <= 1e-6, (config, kind)
        assert np.max(np.abs(rc * sol.r)[off_diag]) <= 1e-6, (config, kind)
    assert sol.lp.num_vars == 47  # 42 flows, 4 injections and 1 epigraph value; 235 for all five


def test_sparse_path_solve_of_a_spawned_team(model):
    # 15 agents are past the dense threshold, so the default engine hands
    # the LP to HiGHS's interior point with crossover
    scenario = spawn_scenario(ScenarioConfig(num_task=10, num_relay=5, rng_seed=0), model)
    inst = build_instance(scenario, weight_preset("adhoc", 10))
    sol = solve_mcfp(inst)
    assert sol.lp.num_vars * (sol.lp.num_ineq + sol.lp.num_eq) > lp_module._DENSE_MAX_ENTRIES
    assert sol.lp._dense is None  # its cached layout holds no dense arrays
    assert verify_solution(inst, sol).passed
    ref = solve_mcfp(inst, SolverOptions(engine=scipy_linprog_solve))
    assert abs(sol.phi - ref.phi) <= 1e-6 * (1.0 + abs(ref.phi))


def test_team25x10_spawn_seed_1_solves_verified(model, monkeypatch):
    # the team the CI step solves; it is above the dense threshold, so
    # HiGHS's interior point with crossover takes it (about 2 s on a
    # 2-core host)
    methods = []
    real_highs = lp_module._highs

    def spying_highs(lp, method):
        methods.append(method)
        return real_highs(lp, method)

    monkeypatch.setattr(lp_module, "_highs", spying_highs)
    scenario = spawn_scenario(ScenarioConfig(num_task=25, num_relay=10, rng_seed=1), model)
    inst = build_instance(scenario, weight_preset("adhoc", 25))
    sol = solve_mcfp(inst)
    assert sol.lp._dense is None and methods == ["highs-ipm"]
    assert verify_solution(inst, sol).passed
    assert sol.phi == pytest.approx(0.6189058980, abs=1e-9)


def test_engines_agree_on_random_and_degenerate_scenarios(model):
    # coordinates snapped to a 0.5 grid give coincident agents and
    # symmetric layouts, where the optimal face and the duals are not
    # unique; every engine must still pass verification and agree on phi
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coord = st.one_of(
        st.floats(0.0, 2.5, allow_nan=False),
        st.sampled_from([0.5 * step for step in range(6)]),
    )

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(
        num_task=st.integers(2, 4),
        num_relay=st.integers(0, 2),
        points=st.lists(coord, min_size=12, max_size=12),
        weights=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=4, max_size=4),
    )
    # random draws rarely stall the interior point; this coincident pair
    # does, so every run also covers the hand-off to the simplex
    @hyp.example(
        num_task=4,
        num_relay=0,
        points=[2.5, 0.0, 2.5, 0.0, 1.0, 0.5, 2.5, 1.5] + [0.0] * 4,
        weights=[1.0, 0.5, 0.5, 0.5],
    )
    @hyp.example(num_task=3, num_relay=1, points=[0.5 * step for step in range(12)], weights=[0.0] * 4)
    def check(num_task, num_relay, points, weights):
        pts = np.reshape(points[: 2 * (num_task + num_relay)], (-1, 2))
        scenario = Scenario(pts[:num_task], pts[num_task:], model, default_commodities(num_task))
        inst = build_instance(scenario, weights[:num_task])
        phis = [solve_mcfp(inst, SolverOptions(engine=engine)).phi for engine in ENGINES]
        # the LP with every commodity, zero weights included, as one more reference
        full = scipy_linprog_solve(build_lp(inst)[0])
        assert full.optimal
        phis.append(full.objective)
        for phi in phis[1:]:
            assert abs(phi - phis[0]) <= 1e-6 * (1.0 + abs(phis[0])), phis
        if not any(weights[:num_task]):
            assert phis == [0.0] * len(phis)

    check()


def flow_scenarios(st, model):
    """``(scenario, weights)`` of 2-3 task agents and 1-3 relays, placed freely
    or on a 0.5 grid (coincident agents, symmetric layouts), with default
    commodities and weights in {0, 0.5, 1}."""
    coord = st.one_of(
        st.floats(0.0, 2.5, allow_nan=False),
        st.sampled_from([0.5 * step for step in range(6)]),
    )

    @st.composite
    def scenarios(draw):
        num_task, num_relay = draw(st.integers(2, 3)), draw(st.integers(1, 3))
        pts = np.reshape(draw(st.lists(coord, min_size=12, max_size=12)), (-1, 2))[: num_task + num_relay]
        scenario = Scenario(pts[:num_task], pts[num_task:], model, default_commodities(num_task))
        weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=num_task, max_size=num_task))
        return scenario, weights

    return scenarios()


def flow_instances(st, model):
    """The flow instances of :func:`flow_scenarios`."""
    return flow_scenarios(st, model).map(lambda drawn: build_instance(*drawn))


def symmetric(num_agents, upper):
    """The symmetric matrix with zero diagonal whose upper triangle, row by
    row, is the start of ``upper``."""
    out = np.zeros((num_agents, num_agents))
    rows, cols = np.triu_indices(num_agents, 1)
    out[rows, cols] = upper[: rows.size]
    return out + out.T


# derandomized, so tier-1 runs the same examples every time
PROPERTY_SETTINGS = dict(max_examples=25, deadline=None, derandomize=True, database=None)
# entries enough for the upper triangle of the largest instance, 6 agents
NUM_UPPER = 15


@pytest.fixture()
def hyp(monkeypatch):
    """hypothesis, drawing no constants from the source of loaded modules.

    Hypothesis also draws the literal constants of every loaded local
    module, so without this a derandomized test's examples would move
    with any literal in ``src`` or ``tests`` and with which test modules
    are collected.  Its own pool of constants stays in use.
    """
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis.internal.conjecture import providers
    from hypothesis.internal.constants_ast import Constants

    monkeypatch.setattr(providers, "_get_local_constants", Constants)
    # the pools already filtered for each kind of draw, local constants included
    monkeypatch.setattr(providers, "CONSTANTS_CACHE", type(providers.CONSTANTS_CACHE)(1024))
    return hypothesis


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_shadow_prices_are_supergradients_of_phi(model, engine, hyp):
    # phi is concave in the capacities and mu is an optimal capacity dual,
    # so no symmetric change of the capacities, small or large, gains more
    # than mu predicts, whichever engine produced mu
    st = hyp.strategies
    opts = SolverOptions(engine=engine)

    @hyp.settings(**PROPERTY_SETTINGS)
    @hyp.given(
        inst=flow_instances(st, model),
        upper=st.lists(st.floats(-1.0, 1.0), min_size=NUM_UPPER, max_size=NUM_UPPER),
        exponent=st.floats(-6.0, 0.0),
    )
    def check(inst, upper, exponent):
        sol = solve_mcfp(inst, opts)
        moved = np.clip(inst.capacities + 10.0**exponent * symmetric(inst.num_agents, upper), 0.0, 1.0)
        predicted = sol.phi + float(np.sum(sol.mu * (moved - inst.capacities)))
        assert solve_mcfp(inst.with_capacities(moved), opts).phi <= predicted + 1e-8 * (1.0 + abs(sol.phi))

    check()


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_phi_is_homogeneous_monotone_and_blind_to_relay_order(model, engine, hyp):
    # phi(sC) = s phi(C), phi(C') >= phi(C) for C' >= C, and relabeling
    # the relays changes nothing
    st = hyp.strategies
    opts = SolverOptions(engine=engine)

    @hyp.settings(**PROPERTY_SETTINGS)
    @hyp.given(
        inst=flow_instances(st, model),
        scale=st.floats(1e-6, 1.0),
        upper=st.lists(st.floats(0.0, 1.0), min_size=NUM_UPPER, max_size=NUM_UPPER),
        exponent=st.floats(-6.0, 0.0),
        order=st.permutations(range(3)),
    )
    def check(inst, scale, upper, exponent, order):
        cap = inst.capacities
        phi = solve_mcfp(inst, opts).phi
        tol = 1e-8 * (1.0 + abs(phi))
        assert abs(solve_mcfp(inst.with_capacities(scale * cap), opts).phi - scale * phi) <= tol
        grown = np.minimum(cap + 10.0**exponent * symmetric(inst.num_agents, upper), 1.0)
        assert solve_mcfp(inst.with_capacities(grown), opts).phi >= phi - tol
        num_task = inst.num_commodities  # one default commodity per task
        relays = [num_task + q for q in order if num_task + q < inst.num_agents]
        perm = np.r_[np.arange(num_task), relays]
        assert abs(solve_mcfp(inst.with_capacities(cap[np.ix_(perm, perm)]), opts).phi - phi) <= tol

    check()


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_relay_moves_gain_no_more_than_the_dual_gradient_predicts(model, engine, hyp):
    # chain rule: mu is a supergradient of phi(C), and each rate exp(-|p_i - p_j|^2)
    # has a Hessian of norm at most 2 while a link moves by at most sqrt(2) h
    # along a unit relay direction d, so phi(x + h d) <= phi(x) + h g.d +
    # 2 h^2 sum(mu) for the g that gradient_from_duals builds at x
    st = hyp.strategies
    opts = SolverOptions(engine=engine)

    @hyp.settings(**PROPERTY_SETTINGS)
    @hyp.given(
        drawn=flow_scenarios(st, model),
        direction=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        exponent=st.floats(-6.0, -1.0),
    )
    def check(drawn, direction, exponent):
        scenario, weights = drawn
        d = np.reshape(direction[: 2 * scenario.num_relay], (-1, 2))
        hyp.assume(np.linalg.norm(d) > 1e-3)
        d = d / np.linalg.norm(d)
        h = 10.0**exponent
        sol = solve_mcfp(build_instance(scenario, weights), opts)
        slope = float(np.sum(gradient_from_duals(sol, scenario) * d))
        bound = sol.phi + h * slope + 2.0 * h * h * float(np.sum(sol.mu))
        moved = scenario.with_relay_positions(scenario.relay_positions + h * d)
        assert solve_mcfp(build_instance(moved, weights), opts).phi <= bound + 1e-8 * (1.0 + abs(sol.phi))

    check()


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_phi_is_blind_to_task_order(model, engine, hyp):
    # relabeling the task agents changes nothing when each commodity and
    # its weight move with the task that sinks it
    st = hyp.strategies
    opts = SolverOptions(engine=engine)

    @hyp.settings(**PROPERTY_SETTINGS)
    @hyp.given(inst=flow_instances(st, model), order=st.permutations(range(3)))
    def check(inst, order):
        phi = solve_mcfp(inst, opts).phi
        num_task = inst.num_commodities  # one default commodity per task
        tasks = [k for k in order if k < num_task]  # new task label -> old one
        perm = np.r_[tasks, np.arange(num_task, inst.num_agents)]
        label = np.argsort(perm)  # old agent label -> new one
        # commodity k sinks at task k, so old commodity tasks[k] becomes commodity k
        commodities = [inst.commodities[k] for k in tasks]
        commodities = tuple(CommoditySpec(label[com.sink], label[list(com.sources)]) for com in commodities)
        assert commodities == default_commodities(num_task)
        cap = inst.capacities[np.ix_(perm, perm)]
        relabeled = McfpInstance(cap, commodities, inst.weights[tasks])
        assert abs(solve_mcfp(relabeled, opts).phi - phi) <= 1e-8 * (1.0 + abs(phi))

    check()


def test_flow_solution_json_shape(bridge_scenario):
    inst = build_instance(bridge_scenario, [1.0, 1.0])
    sol = solve_mcfp(inst)
    doc = flow_solution_to_dict(sol)
    assert set(doc) == {"phi", "mu", "r", "a", "gap", "status"}
    assert doc["phi"] == pytest.approx(sol.phi)
    assert len(doc["mu"]) == 3 and len(doc["mu"][0]) == 3
    assert all(len(entry) == 4 for entry in doc["r"])
    assert all(len(entry) == 3 for entry in doc["a"])
    json.dumps(doc)  # must be serializable as is


def test_instance_validation():
    with pytest.raises(ValueError):
        McfpInstance(np.array([[0.0, 2.0], [2.0, 0.0]]), default_commodities(2), [1, 1])
    with pytest.raises(ValueError):
        McfpInstance(np.array([[0.0, 0.5], [0.4, 0.0]]), default_commodities(2), [1, 1])
    with pytest.raises(ValueError):
        McfpInstance(np.array([[0.1, 0.5], [0.5, 0.1]]), default_commodities(2), [1, 1])
    caps = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError, match="square"):
        McfpInstance(np.zeros((2, 3)), default_commodities(2), [1, 1])
    with pytest.raises(ValueError, match="references agent outside the graph"):
        McfpInstance(caps, default_commodities(3), [1, 1, 1])


@pytest.mark.parametrize("c01, c10, symmetric", [
    (0.5, 0.5, True),
    (0.5, 0.5 + 4e-6, True),  # within np.allclose's default rtol of 1e-5
    (0.0, 1e-12, True),  # within its atol of 1e-12
    (0.5, 0.5 + 6e-6, False),
    (0.0, 2e-12, False),
])
def test_instance_symmetry_tolerance(c01, c10, symmetric):
    caps = np.array([[0.0, c01], [c10, 0.0]])
    if symmetric:
        McfpInstance(caps, default_commodities(2), [1, 1])
    else:
        with pytest.raises(ValueError, match="symmetric"):
            McfpInstance(caps, default_commodities(2), [1, 1])


def mobile_layout_pair(model):
    """Two instances of the mobile team's layout (5 tasks, 2 relays, ap:0
    weights): other relay positions, hence other capacities, and other
    positive weights on the same commodities."""
    scenario = spawn_scenario(ScenarioConfig(num_task=5, num_relay=2, rng_seed=21), model)
    weights = weight_preset("ap:0", 5)
    moved = scenario.with_relay_positions(scenario.relay_positions + [[0.3, -0.2], [-0.1, 0.4]])
    first = build_instance(scenario, weights)
    second = build_instance(moved, np.where(weights > 0, weights * np.linspace(0.5, 2.0, 5), 0.0))
    assert not np.array_equal(first.capacities, second.capacities)
    assert not np.array_equal(first.weights, second.weights)
    return first, second


def assert_identical_results(got, want):
    assert (got.status, got.message, got.iterations) == (want.status, want.message, want.iterations)
    assert repr(got.objective) == repr(want.objective) and repr(got.gap) == repr(want.gap)
    for name in ("x", "y_ineq", "y_eq", "z_lower", "z_upper"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_cached_layout_solves_match_cold_builds_bit_for_bit(model):
    first, second = mobile_layout_pair(model)
    cold = []
    for inst in (first, second):
        mcfp_module._layout.cache_clear()
        cold.append(solve_mcfp(inst).lp_result)
    # alternating through one cached layout
    for _ in range(2):
        for inst, want in zip((first, second), cold):
            assert_identical_results(solve_mcfp(inst).lp_result, want)


def test_a_later_solve_leaves_an_earlier_lp_unchanged(model):
    first, second = mobile_layout_pair(model)
    sol_a = solve_mcfp(first)
    c_a, b_a = sol_a.lp.c.copy(), sol_a.lp.b_ub.copy()
    sol_b = solve_mcfp(second)
    assert sol_b.lp.a_ub is sol_a.lp.a_ub  # one layout
    np.testing.assert_array_equal(sol_a.lp.c, c_a)
    np.testing.assert_array_equal(sol_a.lp.b_ub, b_a)
    assert not np.array_equal(sol_b.lp.c, c_a)
    assert not np.array_equal(sol_b.lp.b_ub, b_a)
    assert verify_solution(first, sol_a).passed


def test_shared_layout_arrays_reject_writes(model):
    lp, index = build_lp(mobile_layout_pair(model)[0])
    dense = [arr for arr in lp._dense if isinstance(arr, np.ndarray)]
    assert len(dense) >= 4  # a_hat, the upper-bounded columns, their bounds and the start
    shared = [lp.lo, lp.hi, lp.b_eq, lp.a_ub.data, lp.a_ub.indices, lp.a_ub.indptr, lp.a_eq.data]
    shared += [index.pair_i, index.pair_j, index.src_k, index.src_i, index.cons_k, index.cons_i, *dense]
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    # each LP gets its own objective and capacity right-hand side
    assert lp.c.flags.writeable and lp.b_ub.flags.writeable


def test_replaced_bounds_are_not_solved_on_the_cached_layout(model):
    lp, _ = build_lp(mobile_layout_pair(model)[0])
    lp.hi = np.minimum(lp.hi, 0.05)  # tighter than the optimal flows
    res = lp_module.solve(lp)
    ref = scipy_linprog_solve(lp)
    assert res.optimal and ref.optimal
    assert abs(res.objective - ref.objective) <= 1e-9 * (1.0 + abs(ref.objective))
    assert lp_module.check_kkt(lp, res).passed(1e-6)
    # the cached layout itself keeps its bounds
    assert build_lp(mobile_layout_pair(model)[0])[0].hi.max() == np.inf


def test_agent_and_commodity_sets_get_their_own_layouts(bridge_scenario):
    inst = build_instance(bridge_scenario, [1.0, 2.0])
    lp, index = build_lp(inst)
    same_lp, same_index = build_lp(inst.with_capacities(0.5 * inst.capacities))
    assert same_lp.a_ub is lp.a_ub and same_index is index
    tasks_only = dataclasses.replace(bridge_scenario, relay_positions=np.zeros((0, 2)))
    no_relay = build_instance(tasks_only, inst.weights)
    one_commodity = McfpInstance(inst.capacities, inst.commodities[:1], inst.weights[:1])
    for other in (no_relay, one_commodity):
        other_lp, other_index = build_lp(other)
        assert other_lp.a_ub is not lp.a_ub and other_index is not index
        # one conservation row per (commodity, agent neither its sink nor a source)
        outside = sum(other.num_agents - 1 - len(com.sources) for com in other.commodities)
        assert other_lp.num_eq == outside
        assert solve_mcfp(other).phi == pytest.approx(oracle_phi(other), abs=1e-7)
    assert solve_mcfp(inst).phi == pytest.approx(oracle_phi(inst), abs=1e-7)
