import dataclasses
import json

import numpy as np
import pytest

from relayflow import (
    AscentConfig,
    AscentError,
    AscentRecord,
    AscentTrace,
    McfpSolveError,
    Scenario,
    ScenarioConfig,
    SolverOptions,
    ascend,
    build_instance,
    default_commodities,
    finite_difference_phi,
    gradient_from_duals,
    solve_mcfp,
    spawn_scenario,
    team_utility,
)
from relayflow import ascent as ascent_module


def test_zero_duals_give_zero_direction(pair_scenario):
    sol = solve_mcfp(build_instance(pair_scenario, [0.0, 0.0]))
    direction = gradient_from_duals(sol, pair_scenario)
    np.testing.assert_allclose(direction, np.zeros((1, 2)), atol=1e-9)


def test_symmetric_midpoint_direction_vanishes(model):
    scenario = Scenario(
        np.array([[-1.0, 0.0], [1.0, 0.0]]),
        np.array([[0.0, 0.0]]),
        model,
        default_commodities(2),
    )
    sol = solve_mcfp(build_instance(scenario, [1.0, 1.0]))
    direction = gradient_from_duals(sol, scenario)
    assert np.linalg.norm(direction) <= 1e-6
    fd = finite_difference_phi(scenario, [1.0, 1.0])
    assert np.linalg.norm(fd) <= 1e-6


def test_offset_relay_is_pulled_toward_far_agent(model):
    # the longer hop is the bottleneck, so the relay should move toward it
    scenario = Scenario(
        np.array([[-1.0, 0.0], [1.0, 0.0]]),
        np.array([[0.5, 0.0]]),
        model,
        default_commodities(2),
    )
    sol = solve_mcfp(build_instance(scenario, [1.0, 1.0]))
    direction = gradient_from_duals(sol, scenario)
    assert direction[0, 0] < -1e-3
    fd = finite_difference_phi(scenario, [1.0, 1.0])
    assert fd[0, 0] < -1e-3
    assert np.sign(direction[0, 0]) == np.sign(fd[0, 0])


def test_gradient_matches_finite_differences_on_random_teams(model):
    rng = np.random.default_rng(2)
    checked = 0
    for trial in range(8):
        scenario = spawn_scenario(
            ScenarioConfig(num_task=4, num_relay=int(rng.integers(1, 3)), rng_seed=200 + trial),
            model,
        )
        weights = np.ones(4)
        sol = solve_mcfp(build_instance(scenario, weights))
        g_dual = gradient_from_duals(sol, scenario)
        g_fd = finite_difference_phi(scenario, weights)
        denom = max(float(np.max(np.abs(g_fd))), 1e-12)
        assert np.max(np.abs(g_dual - g_fd)) / denom <= 1e-3
        checked += 1
    assert checked == 8


def grid_argmax_phi(scenario, weights, center, half_width, step):
    best_phi, best_pos = -np.inf, None
    for x in np.arange(center[0] - half_width, center[0] + half_width + step / 2, step):
        for y in np.arange(center[1] - half_width, center[1] + half_width + step / 2, step):
            pos = np.array([[x, y]])
            phi = team_utility(scenario.with_relay_positions(pos), weights)
            if phi > best_phi:
                best_phi, best_pos = phi, pos
    return best_pos, best_phi


def test_pair_ascent_reaches_grid_maximizer(pair_scenario, pair_trace):
    # coarse-to-fine grid over relay positions confirms the midpoint wins
    weights = np.ones(2)
    coarse, _ = grid_argmax_phi(pair_scenario, weights, (0.0, 0.0), 0.6, 0.15)
    fine, fine_phi = grid_argmax_phi(pair_scenario, weights, coarse[0], 0.15, 0.03)
    assert np.linalg.norm(fine) <= 0.05  # the grid maximizer is the midpoint
    assert np.linalg.norm(pair_trace.final_relay_positions - np.zeros(2)) <= 1e-2
    assert pair_trace.final_phi >= pair_trace.initial_phi
    assert pair_trace.final_phi >= fine_phi - 1e-4


def test_square_ascent_stays_in_hull(square_trace):
    final = square_trace.final_relay_positions
    assert np.all(final >= 0.0) and np.all(final <= 2.0)
    assert square_trace.final_phi >= square_trace.initial_phi


def test_outlier_ascent_reconnects_far_agent(outlier_scenario, outlier_trace, model):
    no_relay = team_utility(
        Scenario(
            outlier_scenario.task_positions,
            np.zeros((0, 2)),
            model,
            outlier_scenario.commodities,
        ),
        np.ones(4),
    )
    assert outlier_trace.final_phi > outlier_trace.initial_phi
    assert outlier_trace.final_phi > no_relay
    # the outlier's commodity got a better route to the cluster
    first = solve_mcfp(
        build_instance(
            outlier_scenario.with_relay_positions(outlier_trace.records[0].relay_positions),
            np.ones(4),
        )
    )
    last = solve_mcfp(
        build_instance(
            outlier_scenario.with_relay_positions(outlier_trace.final_relay_positions),
            np.ones(4),
        )
    )
    assert last.t[3] > first.t[3]


def test_task_positions_never_move(pair_scenario, pair_trace):
    np.testing.assert_array_equal(
        pair_scenario.task_positions, np.array([[-1.0, 0.0], [1.0, 0.0]])
    )


def test_trace_iterations_contiguous(pair_trace):
    assert [rec.iteration for rec in pair_trace.records] == list(range(pair_trace.iterations))


def test_direction_vanishes_at_optimum(pair_scenario):
    # at the exact maximizer the tied shadow prices split evenly and the
    # opposing pulls cancel; an offset of even 1e-8 breaks the tie
    at_optimum = pair_scenario.with_relay_positions(np.array([[0.0, 0.0]]))
    sol = solve_mcfp(build_instance(at_optimum, np.ones(2)))
    direction = gradient_from_duals(sol, at_optimum)
    assert np.linalg.norm(direction) <= 1e-3


def test_backtracking_is_monotone(backtracking_traces):
    for trace in backtracking_traces:
        phis = trace.phi_series()
        assert np.all(np.diff(phis) >= 0.0)


def test_huge_tolerance_exits_after_one_refinement(pair_scenario):
    trace = ascend(pair_scenario, np.ones(2), AscentConfig(tol=10.0))
    assert trace.iterations == 2  # baseline solve plus one refinement
    assert trace.converged


def test_max_iters_cap(pair_scenario):
    trace = ascend(pair_scenario, np.ones(2), AscentConfig(max_iters=5))
    assert trace.iterations == 5
    assert not trace.converged


def test_alpha_schedule_decays(pair_trace):
    alphas = [rec.alpha for rec in pair_trace.records]
    assert alphas[0] == pytest.approx(0.4)
    for a, b in zip(alphas, alphas[1:]):
        assert b == pytest.approx(a * 0.97)


def test_trace_csv_and_json(tmp_path, pair_scenario, pair_trace):
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "trace.json"
    pair_trace.save(csv_path=csv_path, json_path=json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "iteration,phi,alpha,relay0_x,relay0_y"
    assert len(lines) == pair_trace.iterations + 1
    doc = json.loads(json_path.read_text())
    assert doc["iterations"] == pair_trace.iterations
    assert doc["records"][0]["relay_positions"] == [[0.3, 0.4]]
    # identical run produces identical bytes
    again = ascend(pair_scenario, np.ones(2))
    assert again.to_csv() == pair_trace.to_csv()


def test_trace_csv_and_json_of_a_hand_built_trace(tmp_path):
    rec = AscentRecord(
        iteration=0, phi=0.5, alpha=0.4,
        relay_positions=np.array([[0.1, -0.2], [1.0, 2.5]]), gradient=np.array([[1.0, 0.0], [0.0, -1.0]]),
    )
    trace = AscentTrace([rec], np.array([[0.5, -0.2], [1.0, 2.1]]), converged=False)
    assert trace.to_csv() == (
        "iteration,phi,alpha,relay0_x,relay0_y,relay1_x,relay1_y\n0,0.5,0.4,0.1,-0.2,1.0,2.5\n"
    )
    doc = trace.to_json_dict()
    # the key order of trace.json: run fields, then each record's fields as declared
    assert list(doc) == ["converged", "iterations", "final_relay_positions", "records"]
    assert doc["records"] == [{
        "iteration": 0, "phi": 0.5, "alpha": 0.4,
        "relay_positions": [[0.1, -0.2], [1.0, 2.5]], "gradient": [[1.0, 0.0], [0.0, -1.0]],
    }]
    assert list(doc["records"][0]) == ["iteration", "phi", "alpha", "relay_positions", "gradient"]
    trace.save(json_path=tmp_path / "trace.json")
    assert (tmp_path / "trace.json").read_text() == json.dumps(doc, indent=2) + "\n"


def test_solver_failure_carries_partial_trace(pair_scenario):
    calls = {"n": 0}

    def flaky_engine(lp, opts):
        from relayflow.lp import solve_interior_point

        calls["n"] += 1
        if calls["n"] > 3:
            raise_level = solve_interior_point(lp, opts)
            raise_level.status = "numerical"
            raise_level.message = "injected failure"
            return raise_level
        return solve_interior_point(lp, opts)

    with pytest.raises(AscentError) as excinfo:
        ascend(pair_scenario, np.ones(2), opts=SolverOptions(engine=flaky_engine))
    trace = excinfo.value.partial_trace
    assert trace is not None
    assert trace.iterations == 3
    assert not trace.converged


def test_solver_failure_while_backtracking_carries_partial_trace(pair_scenario):
    calls = {"n": 0}

    def flaky_engine(lp, opts):
        from relayflow.lp import solve_interior_point

        calls["n"] += 1
        result = solve_interior_point(lp, opts)
        if calls["n"] > 2:
            result.status = "numerical"
            result.message = "injected failure"
        return result

    # solve 1 is iteration 0, solve 2 its accepted first trial (reused by
    # iteration 1), and solve 3 the first trial of iteration 1
    cfg = AscentConfig(backtracking=True)
    with pytest.raises(AscentError, match="at iteration 1: ") as excinfo:
        ascend(pair_scenario, np.ones(2), cfg, opts=SolverOptions(engine=flaky_engine))
    assert calls["n"] == 3
    assert isinstance(excinfo.value.__cause__, McfpSolveError)
    trace = excinfo.value.partial_trace
    assert trace.iterations == 2
    assert not trace.converged
    # the relays stay where the failed iteration was evaluated
    np.testing.assert_array_equal(trace.final_relay_positions, trace.records[1].relay_positions)


def test_backtracking_without_an_improving_step_stays_put_and_stops(monkeypatch, pair_scenario):
    calls = {"n": 0}

    def worse_after_the_first(inst, opts=None):
        # every trial step lowers the utility
        calls["n"] += 1
        sol = solve_mcfp(inst, opts)
        return sol if calls["n"] == 1 else dataclasses.replace(sol, phi=sol.phi - 1.0)

    monkeypatch.setattr(ascent_module, "solve_mcfp", worse_after_the_first)
    trace = ascend(pair_scenario, np.ones(2), AscentConfig(backtracking=True))
    # each iteration tries the step and its 20 halvings; iteration 1
    # reuses the first solve, whose utility repeats, so the loop stops
    assert calls["n"] == 1 + 2 * 21
    assert trace.iterations == 2
    assert trace.converged
    assert trace.records[0].phi == trace.records[1].phi
    for positions in (trace.records[1].relay_positions, trace.final_relay_positions):
        np.testing.assert_array_equal(positions, pair_scenario.relay_positions)


def test_finite_difference_rejects_bad_step(pair_scenario):
    # a non-finite step is caught before it reaches the bumped scenario
    for h in (0.0, -1e-4, np.nan, np.inf):
        with pytest.raises(ValueError, match="step h must be finite and positive"):
            finite_difference_phi(pair_scenario, np.ones(2), h=h)
