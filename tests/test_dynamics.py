import numpy as np
import pytest

from relayflow import (
    MotionConfig,
    Scenario,
    ScenarioConfig,
    SimState,
    SimTimeline,
    SimulationError,
    SolverOptions,
    default_commodities,
    run_simulation,
    spawn_scenario,
    step_relay,
    step_task,
)

STILL = MotionConfig(accel_std=0.0)


def test_motion_config_validation():
    with pytest.raises(ValueError):
        MotionConfig(dt=0.0)
    with pytest.raises(ValueError):
        MotionConfig(v_max=-1.0)
    with pytest.raises(ValueError):
        MotionConfig(box_size=0.0)
    with pytest.raises(ValueError, match="negative"):
        MotionConfig(pinned_tasks=(-1,))
    with pytest.raises(TypeError):
        MotionConfig(pinned_tasks=(0.5,))
    with pytest.raises(ValueError, match="accel_std"):
        MotionConfig(accel_std=-0.01)
    with pytest.raises(ValueError, match="duration"):
        MotionConfig(duration=-1.0)
    assert MotionConfig(accel_std=0.04).accel_sigma == pytest.approx(0.2)
    assert MotionConfig(duration=20.0, dt=0.2).num_steps == 100


def test_step_task_at_rest_stays_put():
    pos = np.array([[1.0, 1.0]])
    vel = np.zeros((1, 2))
    new_pos, new_vel = step_task(pos, vel, STILL, np.random.default_rng(0), box_side=5.0)
    np.testing.assert_array_equal(new_pos, pos)
    np.testing.assert_array_equal(new_vel, vel)


def test_step_task_integrates_velocity():
    pos = np.array([[1.0, 1.0]])
    vel = np.array([[0.1, 0.0]])
    new_pos, new_vel = step_task(pos, vel, STILL, np.random.default_rng(0), box_side=50.0)
    np.testing.assert_allclose(new_pos, [[1.02, 1.0]], atol=1e-15)
    np.testing.assert_allclose(new_vel, vel)


def test_step_task_reflects_off_wall():
    side = 2.0
    pos = np.array([[side - 0.001, 1.0]])
    vel = np.array([[0.1, 0.0]])
    new_pos, new_vel = step_task(pos, vel, STILL, np.random.default_rng(0), box_side=side)
    expected_x = 2 * side - (side - 0.001 + 0.02)
    np.testing.assert_allclose(new_pos, [[expected_x, 1.0]], atol=1e-15)
    np.testing.assert_allclose(new_vel, [[-0.1, 0.0]])


def test_step_task_corner_reflects_both_axes():
    side = 1.0
    pos = np.array([[0.99, 0.99]])
    vel = np.array([[0.2, 0.3]])
    new_pos, new_vel = step_task(pos, vel, STILL, np.random.default_rng(0), box_side=side)
    assert np.all(new_pos >= 0.0) and np.all(new_pos <= side)
    np.testing.assert_allclose(new_vel, [[-0.2, -0.3]])
    # reflection preserves speed
    assert np.linalg.norm(new_vel) == pytest.approx(np.linalg.norm(vel))


def test_step_task_pinned_agent_never_moves():
    cfg = MotionConfig(accel_std=0.01, pinned_tasks=(0,))
    pos = np.array([[0.5, 0.5], [1.0, 1.0]])
    vel = np.array([[0.0, 0.0], [0.05, 0.0]])
    rng = np.random.default_rng(4)
    for _ in range(25):
        pos, vel = step_task(pos, vel, cfg, rng, box_side=3.0)
    np.testing.assert_array_equal(pos[0], [0.5, 0.5])
    np.testing.assert_array_equal(vel[0], [0.0, 0.0])


def test_step_relay_zero_direction():
    pos = np.array([[1.0, 2.0]])
    out = step_relay(pos, np.zeros((1, 2)), MotionConfig())
    np.testing.assert_array_equal(out, pos)


def test_step_relay_slow_direction_moves_proportionally():
    cfg = MotionConfig(v_max=0.09, dt=0.2)
    d = np.array([[0.05, 0.0]])
    out = step_relay(np.zeros((1, 2)), d, cfg)
    np.testing.assert_allclose(out, [[0.01, 0.0]], atol=1e-15)


def test_step_relay_fast_direction_hits_speed_cap():
    cfg = MotionConfig(v_max=0.09, dt=0.2)
    d = np.array([[1.0, 0.0]])
    out = step_relay(np.zeros((1, 2)), d, cfg)
    np.testing.assert_allclose(out, [[0.018, 0.0]], atol=1e-15)


@pytest.fixture(scope="module")
def mobile_scenario():
    return spawn_scenario(ScenarioConfig(num_task=4, num_relay=2, rng_seed=7))


def test_snapshot_count(mobile_scenario):
    cfg = MotionConfig(duration=2.0, dt=0.2, rng_seed=1)
    timeline = run_simulation(mobile_scenario, np.ones(4), cfg)
    assert timeline.num_snapshots == 11
    np.testing.assert_allclose(timeline.times(), np.arange(11) * 0.2)


def test_relay_speed_cap_every_tick(mobile_scenario):
    cfg = MotionConfig(duration=2.0, dt=0.2, rng_seed=1)
    timeline = run_simulation(mobile_scenario, np.ones(4), cfg)
    for a, b in zip(timeline.states, timeline.states[1:]):
        step = np.linalg.norm(b.relay_positions - a.relay_positions, axis=1)
        assert np.all(step <= cfg.v_max * cfg.dt + 1e-12)


def test_tasks_stay_in_box(mobile_scenario):
    cfg = MotionConfig(duration=3.0, dt=0.2, rng_seed=5)
    timeline = run_simulation(mobile_scenario, np.ones(4), cfg)
    for st in timeline.states:
        assert np.all(st.task_positions >= 0.0)
        assert np.all(st.task_positions <= timeline.box_side)


def test_lockstep_runs_are_byte_identical(mobile_scenario):
    cfg = MotionConfig(duration=1.0, dt=0.2, rng_seed=9)
    a = run_simulation(mobile_scenario, np.ones(4), cfg)
    b = run_simulation(mobile_scenario, np.ones(4), cfg)
    assert a.to_csv() == b.to_csv()


def test_static_tasks_hold_utility_near_optimum(mobile_scenario):
    # with frozen tasks the run reduces to speed-capped pursuit of the
    # optimized configuration; optima of the min-utility sit at kinks
    # (tied bottleneck cuts), so the fixed-speed update flutters across
    # the kink by at most one tick of travel instead of decreasing
    cfg = MotionConfig(duration=2.0, dt=0.2, accel_std=0.0, rng_seed=0)
    timeline = run_simulation(mobile_scenario, np.ones(4), cfg)
    phis = timeline.phi_series()
    assert phis.max() <= phis[0] + 1e-2  # no real improvement is left to find
    assert phis.min() >= phis[0] - 3 * cfg.v_max * cfg.dt  # flutter stays banded


def test_pinned_task_constant_through_run(mobile_scenario):
    cfg = MotionConfig(duration=1.0, dt=0.2, rng_seed=3, pinned_tasks=(1,))
    timeline = run_simulation(mobile_scenario, np.ones(4), cfg)
    first = timeline.states[0].task_positions[1]
    for st in timeline.states:
        np.testing.assert_array_equal(st.task_positions[1], first)


def test_timeline_csv_shape(mobile_scenario):
    cfg = MotionConfig(duration=0.4, dt=0.2, rng_seed=1)
    timeline = run_simulation(mobile_scenario, np.ones(4), cfg, pre_optimize=False)
    lines = timeline.to_csv().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["tick", "time_s", "phi"]
    assert header[3:5] == ["task0_x", "task0_y"]
    assert header[-2:] == ["relay1_x", "relay1_y"]
    assert len(lines) == timeline.num_snapshots + 1
    doc = timeline.to_json_dict()
    assert doc["mode"] == "lockstep"
    assert doc["deterministic"] is True
    assert len(doc["snapshots"]) == timeline.num_snapshots
    assert "task_velocities" in doc["snapshots"][0]


def test_empty_timeline_writes_a_header_only_csv(tmp_path):
    timeline = SimTimeline([], box_side=1.0)
    assert timeline.to_csv() == "tick,time_s,phi\n"
    timeline.save(csv_path=tmp_path / "timeline.csv")
    assert (tmp_path / "timeline.csv").read_text() == "tick,time_s,phi\n"
    assert timeline.to_json_dict()["snapshots"] == []


def test_timeline_csv_and_json_of_a_hand_built_snapshot():
    state = SimState(
        time=0.2, phi=0.75,
        task_positions=np.array([[0.0, 1.0], [2.0, 3.0]]), task_velocities=np.array([[0.1, 0.0], [0.0, 0.0]]),
        relay_positions=np.array([[0.5, 0.25]]), directions=np.array([[-1.0, 0.0]]),
    )
    timeline = SimTimeline([state], box_side=3.0)
    assert timeline.to_csv() == (
        "tick,time_s,phi,task0_x,task0_y,task1_x,task1_y,relay0_x,relay0_y\n"
        "0,0.2,0.75,0.0,1.0,2.0,3.0,0.5,0.25\n"
    )
    doc = timeline.to_json_dict()
    # the key order of timeline.json: run fields, then each snapshot's fields as declared
    assert list(doc) == ["mode", "deterministic", "box_side", "snapshots"]
    assert list(doc["snapshots"][0]) == [
        "time", "phi", "task_positions", "task_velocities", "relay_positions", "directions",
    ]
    assert doc["snapshots"][0]["task_velocities"] == [[0.1, 0.0], [0.0, 0.0]]


def test_run_rejects_tasks_outside_box(model):
    scenario = Scenario(
        np.array([[-1.0, 0.0], [1.0, 0.0]]),
        np.array([[0.0, 0.0]]),
        model,
        default_commodities(2),
    )
    with pytest.raises(ValueError):
        run_simulation(scenario, np.ones(2), MotionConfig(duration=0.4))


def test_run_rejects_bad_pin_index(mobile_scenario):
    # a negative index would otherwise pin a task counted from the end
    for pins in [(9,), (-1,)]:
        with pytest.raises(ValueError):
            run_simulation(
                mobile_scenario, np.ones(4), MotionConfig(duration=0.4, pinned_tasks=pins)
            )


def test_solver_failure_attaches_partial_timeline(mobile_scenario):
    calls = {"n": 0}

    def flaky_engine(lp, opts):
        from relayflow.lp import solve_interior_point

        calls["n"] += 1
        result = solve_interior_point(lp, opts)
        if calls["n"] > 2:
            result.status = "numerical"
            result.message = "injected failure"
        return result

    with pytest.raises(SimulationError) as excinfo:
        run_simulation(
            mobile_scenario,
            np.ones(4),
            MotionConfig(duration=1.0, dt=0.2, rng_seed=0),
            pre_optimize=False,
            opts=SolverOptions(engine=flaky_engine),
        )
    partial = excinfo.value.partial_timeline
    assert partial is not None
    assert partial.num_snapshots == 2
