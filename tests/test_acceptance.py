"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figure once its assertions hold."""

import numpy as np
import pytest

from relayflow import (
    MotionConfig,
    Scenario,
    ScenarioConfig,
    build_instance,
    default_commodities,
    finite_difference_phi,
    gradient_from_duals,
    run_simulation,
    solve_mcfp,
    spawn_scenario,
    step_task,
    team_utility,
    verify_solution,
    weight_preset,
)
from relayflow.cli import main as cli_main
from test_mcfp import oracle_phi

E1 = np.exp(-1.0)
E4 = np.exp(-4.0)


def _mu_stable(scenario, weights, rel_tol=1e-3):
    base = solve_mcfp(build_instance(scenario, weights))
    rng = np.random.default_rng(0)
    nudged = scenario.with_relay_positions(
        scenario.relay_positions + rng.normal(0.0, 1e-7, scenario.relay_positions.shape)
    )
    other = solve_mcfp(build_instance(nudged, weights))
    scale = 1.0 + float(np.max(np.abs(base.mu)))
    return float(np.max(np.abs(base.mu - other.mu))) <= rel_tol * scale


def test_criterion_1_gradient_fidelity(model):
    """Dual-assembled directions match central finite differences of the
    utility (h = 1e-4 km) to 1e-3 relative error on at least 20 random
    non-degenerate teams with 3 or 5 task agents and 1 or 2 relays."""
    rng = np.random.default_rng(123)
    checked = 0
    skipped = 0
    worst = 0.0
    seed = 0
    while checked < 20 and seed < 60:
        seed += 1
        num_task = int(rng.choice([3, 5]))
        num_relay = int(rng.choice([1, 2]))
        scenario = spawn_scenario(
            ScenarioConfig(num_task=num_task, num_relay=num_relay, rng_seed=1000 + seed), model
        )
        weights = np.ones(num_task)
        if not _mu_stable(scenario, weights):
            skipped += 1
            continue
        sol = solve_mcfp(build_instance(scenario, weights))
        g_dual = gradient_from_duals(sol, scenario)
        g_fd = finite_difference_phi(scenario, weights, h=1e-4)
        denom = max(float(np.max(np.abs(g_fd))), 1e-12)
        rel = float(np.max(np.abs(g_dual - g_fd))) / denom
        worst = max(worst, rel)
        assert rel <= 1e-3, (seed, rel)
        checked += 1
    assert checked >= 20
    print(
        f"\nACCEPTANCE 1 PASS: gradient fidelity <= 1e-3 on {checked} scenarios "
        f"(worst {worst:.2e}, {skipped} degenerate skipped)"
    )


def test_criterion_2_small_lp_oracle(model):
    """Optimal utilities on every fixture with at most 4 agents match an
    independently built and independently solved LP to 1e-5, including
    the two hand-derived analytic fixtures."""
    two = Scenario(
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((0, 2)), model, default_commodities(2)
    )
    sol_two = solve_mcfp(build_instance(two, [1.0, 1.0]))
    assert sol_two.phi == pytest.approx(2 * E1, abs=1e-5)

    bridge = Scenario(
        np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([[1.0, 0.0]]), model, default_commodities(2)
    )
    sol_bridge = solve_mcfp(build_instance(bridge, [1.0, 1.0]))
    assert sol_bridge.phi == pytest.approx(2 * (E1 + E4), abs=1e-5)

    cases = [(two, "adhoc"), (bridge, "adhoc"), (bridge, "ap:0"), (bridge, "subset:1")]
    for seed in range(8):
        scenario = spawn_scenario(
            ScenarioConfig(num_task=2, num_relay=seed % 3, rng_seed=700 + seed), model
        )
        cases.append((scenario, ["adhoc", "ap:0", "ap:1", "subset:0"][seed % 4]))
    worst = 0.0
    for scenario, kind in cases:
        assert scenario.num_agents <= 4
        inst = build_instance(scenario, weight_preset(kind, 2))
        sol = solve_mcfp(inst)
        reference = oracle_phi(inst)
        worst = max(worst, abs(sol.phi - reference))
        assert sol.phi == pytest.approx(reference, abs=1e-5)
    print(
        f"\nACCEPTANCE 2 PASS: {len(cases)} small instances match the independent "
        f"LP oracle to 1e-5 (worst |diff| {worst:.2e}); analytic fixtures 2e-1 "
        f"and 2(e-1+e-4) reproduced"
    )


def test_criterion_3a_pair_converges_to_midpoint(pair_trace):
    dist = float(np.linalg.norm(pair_trace.final_relay_positions - np.zeros(2)))
    assert dist <= 1e-2
    print(f"\nACCEPTANCE 3a PASS: two-task run ends {dist:.2e} km from the segment midpoint")


def test_criterion_3b_square_relays_end_inside_hull(square_trace):
    final = square_trace.final_relay_positions
    assert np.all(final >= 0.0) and np.all(final <= 2.0)
    print(f"\nACCEPTANCE 3b PASS: square-team relays end inside the hull at {final.round(3).tolist()}")


def test_criterion_3c_outlier_run_strictly_improves(outlier_scenario, outlier_trace, model):
    no_relay_phi = team_utility(
        Scenario(
            outlier_scenario.task_positions, np.zeros((0, 2)), model, outlier_scenario.commodities
        ),
        np.ones(4),
    )
    assert outlier_trace.final_phi > outlier_trace.initial_phi
    assert outlier_trace.final_phi > no_relay_phi
    print(
        f"\nACCEPTANCE 3c PASS: separated-agent run raised utility "
        f"{outlier_trace.initial_phi:.4f} -> {outlier_trace.final_phi:.4f} "
        f"(no-relay baseline {no_relay_phi:.4f})"
    )


def test_criterion_4_duality_hygiene(model):
    """Every solve passes verification: feasibility, complementary
    slackness and relative gap at 1e-6, and slack capacity rows carry no
    price.  solve_mcfp refuses to return unverified output by
    construction; this sweep re-checks the reports explicitly."""
    checked = 0
    for seed in range(4):
        for num_task, num_relay in [(3, 1), (5, 2)]:
            scenario = spawn_scenario(
                ScenarioConfig(num_task=num_task, num_relay=num_relay, rng_seed=400 + seed), model
            )
            for kind in ["adhoc", "ap:0", f"subset:0,{num_task - 1}"]:
                inst = build_instance(scenario, weight_preset(kind, num_task))
                report = verify_solution(inst, solve_mcfp(inst))
                assert report.passed and report.tol == 1e-6, (seed, num_task, kind, report)
                assert report.gap <= 1e-6
                assert report.slack_mu_max <= 1e-6
                checked += 1
    print(f"\nACCEPTANCE 4 PASS: {checked} solves verified (gap, slackness, slack prices <= 1e-6)")


def test_criterion_5_ap_weights_pull_relays_toward_ap(flex_scenario, flex_traces):
    ap_index = 2
    ap_pos = flex_scenario.task_positions[ap_index]
    dist_adhoc = float(
        np.linalg.norm(flex_traces["adhoc"].final_relay_positions - ap_pos, axis=1).mean()
    )
    dist_ap = float(
        np.linalg.norm(flex_traces["ap"].final_relay_positions - ap_pos, axis=1).mean()
    )
    assert dist_ap < dist_adhoc
    print(
        f"\nACCEPTANCE 5 PASS: mean relay distance to the access point "
        f"{dist_ap:.3f} km under one-hot weights vs {dist_adhoc:.3f} km under uniform weights"
    )


def test_criterion_6_dynamic_invariants(model):
    """A 20 s lockstep run at dt = 0.2 s with a pinned access point:
    101 snapshots, per-tick relay displacement at most v_max*dt = 0.018 km,
    task agents stay in the box, reflection preserves speed, and a fixed
    seed reproduces the timeline byte for byte."""
    scenario = spawn_scenario(ScenarioConfig(num_task=5, num_relay=2, rng_seed=11), model)
    weights = weight_preset("ap:0", 5)
    cfg = MotionConfig(duration=20.0, dt=0.2, rng_seed=77, pinned_tasks=(0,))
    timeline = run_simulation(scenario, weights, cfg)

    assert timeline.num_snapshots == 101
    for a, b in zip(timeline.states, timeline.states[1:]):
        step = np.linalg.norm(b.relay_positions - a.relay_positions, axis=1)
        assert np.all(step <= cfg.v_max * cfg.dt + 1e-12)
    for st in timeline.states:
        assert np.all(st.task_positions >= 0.0) and np.all(st.task_positions <= timeline.box_side)
        np.testing.assert_array_equal(st.task_positions[0], scenario.task_positions[0])

    # reflection preserves speed: bounce a fast agent off the wall directly
    pos = np.array([[timeline.box_side - 0.001, 1.0]])
    vel = np.array([[0.2, -0.1]])
    _, vel_out = step_task(
        pos, vel, MotionConfig(accel_std=0.0), np.random.default_rng(0), timeline.box_side
    )
    assert np.linalg.norm(vel_out) == pytest.approx(np.linalg.norm(vel), abs=1e-15)

    again = run_simulation(scenario, weights, cfg)
    assert again.to_csv() == timeline.to_csv()
    print(
        "\nACCEPTANCE 6 PASS: 101 snapshots, relay steps <= 0.018 km, tasks boxed, "
        "speed-preserving bounces, byte-identical replay"
    )


def test_criterion_7_bench_scaling_shape(tmp_path):
    """Mean solve time strictly increases over team sizes 2, 5, 10 with
    10 repeats each; absolute times are hardware-bound and not asserted."""
    out = tmp_path / "bench"
    rc = cli_main(["bench", "--sizes", "2,5,10", "--repeats", "10", "--out", str(out)])
    assert rc == 0
    rows = (out / "bench.csv").read_text().strip().splitlines()[1:]
    parsed = [(int(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
    assert [size for size, _ in parsed] == [2, 5, 10]
    means = [mean for _, mean in parsed]
    assert means[0] < means[1] < means[2]
    print(
        "\nACCEPTANCE 7 PASS: mean solve time grows with team size "
        + " -> ".join(f"{m * 1e3:.1f} ms" for m in means)
    )


def test_criterion_8_ascent_schedule_fidelity(
    pair_trace, square_trace, outlier_trace, backtracking_traces
):
    """With the default schedule (step 0.4 decayed by 0.97) the final
    utility never falls below the initial one on any small-team fixture;
    with backtracking the recorded utility is nondecreasing everywhere."""
    for trace in (pair_trace, square_trace, outlier_trace):
        assert trace.records[0].alpha == pytest.approx(0.4)
        assert trace.final_phi >= trace.initial_phi
    for trace in backtracking_traces:
        assert np.all(np.diff(trace.phi_series()) >= 0.0)
    print(
        "\nACCEPTANCE 8 PASS: fixed-schedule runs end at or above their start; "
        "backtracking runs are monotone per iteration"
    )
