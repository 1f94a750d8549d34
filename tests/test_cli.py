import dataclasses
import json

import numpy as np
import pytest

from relayflow import (
    CapacityModel,
    Scenario,
    ScenarioConfig,
    default_commodities,
    load_scenario,
    save_scenario,
    spawn_scenario,
)
from relayflow import mcfp as mcfp_module
from relayflow.cli import (
    EXIT_GRADCHECK,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    main,
)
from relayflow.lp import blas_thread_controls

E1 = np.exp(-1.0)


@pytest.fixture()
def two_agent_file(tmp_path, model):
    scenario = Scenario(
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((0, 2)), model, default_commodities(2)
    )
    path = tmp_path / "two.json"
    save_scenario(path, scenario, [1.0, 1.0])
    return path


@pytest.fixture()
def pair_file(tmp_path):
    out = tmp_path / "spawned"
    assert main(["spawn", "--preset", "pair", "--out", str(out)]) == EXIT_OK
    return out / "scenario.json"


def test_exit_codes_are_distinct():
    codes = {EXIT_OK, EXIT_INPUT, EXIT_SOLVER, EXIT_VERIFY, EXIT_GRADCHECK}
    assert len(codes) == 5


def test_spawn_writes_scenario_and_manifest(tmp_path, monkeypatch):
    out = tmp_path / "sp"
    # the manifest records the command line main parsed, not the host's
    monkeypatch.setattr("sys.argv", ["host", "--flag"])
    argv = ["spawn", "--num-task", "3", "--num-relay", "1", "--seed", "4", "--out", str(out)]
    assert main(argv) == EXIT_OK
    doc = json.loads((out / "scenario.json").read_text())
    assert len(doc["task_agents"]) == 3
    assert len(doc["relay_agents"]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "spawn"
    assert manifest["version"]
    assert manifest["argv"] == argv
    assert "argv" not in manifest["parameters"]


def test_spawn_team5x4_preset_spawns_five_tasks_and_four_relays(tmp_path):
    out = tmp_path / "team"
    rc = main(["spawn", "--preset", "team5x4", "--seed", "3", "--density", "2", "--out", str(out)])
    assert rc == EXIT_OK
    scenario, weights = load_scenario(out / "scenario.json")
    # the preset fixes the team size and keeps --seed and --density
    expected = spawn_scenario(ScenarioConfig(5, 4, 2.0, 3))
    np.testing.assert_array_equal(scenario.task_positions, expected.task_positions)
    np.testing.assert_array_equal(scenario.relay_positions, expected.relay_positions)
    np.testing.assert_array_equal(weights, np.ones(5))


def test_spawn_unknown_preset(tmp_path):
    assert main(["spawn", "--preset", "nope", "--out", str(tmp_path / "x")]) == EXIT_INPUT


def test_solve_two_agent_fixture(tmp_path, two_agent_file):
    out = tmp_path / "solve"
    assert main(["solve", "--scenario", str(two_agent_file), "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "solution.json").read_text())
    assert doc["phi"] == pytest.approx(2 * E1, abs=1e-6)
    assert doc["status"] == "optimal"
    assert "PASS" in (out / "report.txt").read_text()
    assert (out / "manifest.json").exists()


def test_solve_zero_weights(tmp_path, two_agent_file):
    out = tmp_path / "solve0"
    rc = main([
        "solve", "--scenario", str(two_agent_file), "--weights", "subset:0", "--out", str(out),
    ])
    assert rc == EXIT_OK
    doc = json.loads((out / "solution.json").read_text())
    # only commodity 0 counts; its single edge carries rate e^-1
    assert doc["phi"] == pytest.approx(E1, abs=1e-6)


def test_solve_with_every_weight_zero_reports_unsigned_zero_residuals(tmp_path, pair_file, capsys):
    # no LP is solved, and verification runs on the zero solution alone
    doc = json.loads(pair_file.read_text())
    doc["weights"] = [0.0, 0.0]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "solve"
    assert main(["solve", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "verification: PASS" in printed
    assert "dual residual: 0.000e+00" in printed
    assert "-0.000e+00" not in printed
    assert (out / "report.txt").read_text() == printed


def test_solve_unreadable_file_is_input_error(tmp_path):
    rc = main(["solve", "--scenario", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    assert rc != EXIT_VERIFY


@pytest.mark.parametrize("command", ["solve", "ascend", "simulate", "gradcheck"])
def test_malformed_file_is_input_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    rc = main([command, "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    assert "input error: cannot read scenario" in capsys.readouterr().err


def test_relay_row_of_four_numbers_is_input_error(tmp_path, pair_file, capsys):
    doc = json.loads(pair_file.read_text())
    doc["relay_agents"] = [[0.2, 0.1, 0.5, 0.3]]
    bad = tmp_path / "four.json"
    bad.write_text(json.dumps(doc))
    rc = main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    assert "relay positions must have shape (R, 2)" in capsys.readouterr().err


def test_agent_index_that_is_not_an_integer_is_input_error(tmp_path, pair_file, capsys):
    doc = json.loads(pair_file.read_text())
    doc["commodities"][0]["sources"] = "1"  # a string, not a list of agent indices
    bad = tmp_path / "string.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["solve", "--scenario", str(bad), "--out", str(out)]) == EXIT_INPUT
    assert "cannot be interpreted as an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value", [("--tol", "nan"), ("--tol", "inf"), ("--alpha", "nan"), ("--alpha", "inf")]
)
def test_ascend_rejects_a_step_or_tolerance_that_is_not_finite(tmp_path, pair_file, capsys, option, value):
    out = tmp_path / "o"
    rc = main(["ascend", "--scenario", str(pair_file), f"{option}={value}", "--out", str(out)])
    assert rc == EXIT_INPUT
    assert "must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_ascend_quick_exit_with_huge_tolerance(tmp_path, pair_file):
    out = tmp_path / "asc"
    rc = main(["ascend", "--scenario", str(pair_file), "--tol", "10", "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2  # header, baseline solve, one refinement


def test_ascend_outputs_and_determinism(tmp_path, pair_file):
    args = ["ascend", "--scenario", str(pair_file), "--tol", "1e-3", "--svg"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "utility.svg").exists()
    final = json.loads((out_a / "final_scenario.json").read_text())
    assert len(final["relay_agents"]) == 1
    trace = json.loads((out_a / "trace.json").read_text())
    assert trace["iterations"] == len(trace["records"])


def test_simulate_snapshot_count_and_manifest(tmp_path):
    sp = tmp_path / "team"
    assert main(["spawn", "--num-task", "3", "--num-relay", "1", "--seed", "2", "--out", str(sp)]) == EXIT_OK
    out = tmp_path / "sim"
    rc = main([
        "simulate", "--scenario", str(sp / "scenario.json"), "--duration", "2.0",
        "--seed", "5", "--svg", "--out", str(out),
    ])
    assert rc == EXIT_OK
    rows = (out / "timeline.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 11
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["deterministic"] is True
    assert manifest["blas_pinned"] == [ctl.name for ctl in blas_thread_controls()]
    assert (out / "utility.svg").exists()


def test_simulate_rejects_negative_pin_task(tmp_path):
    sp = tmp_path / "team"
    main(["spawn", "--num-task", "3", "--num-relay", "1", "--seed", "2", "--out", str(sp)])
    rc = main([
        "simulate", "--scenario", str(sp / "scenario.json"), "--duration", "0.4",
        "--pin-task", "-1", "--no-pre-optimize", "--out", str(tmp_path / "sim"),
    ])
    assert rc == EXIT_INPUT
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "option, value",
    [("--vmax", "nan"), ("--box", "nan"), ("--duration", "inf"), ("--dt", "nan"), ("--accel-std", "inf")],
)
def test_simulate_rejects_motion_values_that_are_not_finite(tmp_path, pair_file, capsys, option, value):
    out = tmp_path / "sim"
    # the last --duration given wins, so a short run unless the test sets it
    rc = main([
        "simulate", "--scenario", str(pair_file), "--duration", "0.4", f"{option}={value}",
        "--no-pre-optimize", "--out", str(out),
    ])
    assert rc == EXIT_INPUT
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_bench_csv_format(tmp_path):
    out = tmp_path / "bench"
    rc = main(["bench", "--sizes", "2,3", "--repeats", "2", "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "bench.csv").read_text().strip().splitlines()
    assert rows[0] == "size,mean_s,std_s"
    parsed = [row.split(",") for row in rows[1:]]
    assert [int(row[0]) for row in parsed] == [2, 3]
    assert all(float(row[1]) > 0 for row in parsed)


def test_bench_single_repeat_reports_zero_std(tmp_path):
    out = tmp_path / "bench1"
    assert main(["bench", "--sizes", "2", "--repeats", "1", "--out", str(out)]) == EXIT_OK
    row = (out / "bench.csv").read_text().strip().splitlines()[1].split(",")
    assert float(row[2]) == 0.0


def test_bench_rejects_bad_sizes(tmp_path):
    assert main(["bench", "--sizes", "a,b", "--out", str(tmp_path / "x")]) == EXIT_INPUT


def test_gradcheck_passes_on_small_team(tmp_path):
    sp = tmp_path / "team"
    main(["spawn", "--num-task", "3", "--num-relay", "1", "--seed", "6", "--out", str(sp)])
    out = tmp_path / "gc"
    rc = main([
        "gradcheck", "--scenario", str(sp / "scenario.json"), "--trials", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    report = (out / "gradcheck.txt").read_text()
    assert "PASS" in report


def test_gradcheck_failure_exit_code(tmp_path):
    sp = tmp_path / "team"
    main(["spawn", "--num-task", "3", "--num-relay", "1", "--seed", "6", "--out", str(sp)])
    rc = main([
        "gradcheck", "--scenario", str(sp / "scenario.json"), "--trials", "2",
        "--threshold", "1e-15", "--out", str(tmp_path / "gc2"),
    ])
    assert rc == EXIT_GRADCHECK
    assert rc != EXIT_INPUT


def test_gradcheck_skips_a_configuration_whose_prices_move_under_a_nudge(tmp_path, capsys):
    # the first trial's offset lands the relay on the bisector of the pair,
    # where both links of each relay path have the same capacity: the
    # price splits between them there, and a 1e-7 km nudge tips it to one
    offset = np.random.default_rng(0).normal(0.0, 0.15, (1, 2))
    relays = np.array([[0.0, 0.4]]) - offset
    scenario = Scenario(
        np.array([[-1.0, 0.0], [1.0, 0.0]]), relays, CapacityModel(), default_commodities(2)
    )
    path = tmp_path / "bisector.json"
    save_scenario(path, scenario, [1.0, 1.0])
    out = tmp_path / "gc"
    rc = main(["gradcheck", "--scenario", str(path), "--trials", "2", "--seed", "0", "--out", str(out)])
    assert rc == EXIT_OK
    report = (out / "gradcheck.txt").read_text()
    assert "configurations checked: 1" in report
    assert "configurations skipped as degenerate: 1" in report


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gradcheck_rejects_nonpositive_trials(tmp_path, pair_file, trials):
    out = tmp_path / "gc0"
    rc = main(["gradcheck", "--scenario", str(pair_file), "--trials", trials, "--out", str(out)])
    assert rc == EXIT_INPUT
    assert not (out / "gradcheck.txt").exists()


@pytest.mark.parametrize(
    "option, value",
    [("--threshold", "nan"), ("--threshold", "-1"), ("--threshold", "inf"), ("--h", "nan"), ("--h", "0")],
)
def test_gradcheck_rejects_a_step_or_threshold_that_is_not_positive(tmp_path, pair_file, capsys, option, value):
    out = tmp_path / "gc"
    rc = main(["gradcheck", "--scenario", str(pair_file), f"{option}={value}", "--out", str(out)])
    assert rc == EXIT_INPUT
    assert f"{option} must be finite and positive" in capsys.readouterr().err
    assert not (out / "gradcheck.txt").exists()


@pytest.mark.parametrize("density", ["inf", "nan", "0"])
def test_spawn_rejects_a_density_that_is_not_finite_and_positive(tmp_path, capsys, density):
    out = tmp_path / "team"
    rc = main(["spawn", "--num-task", "3", f"--density={density}", "--out", str(out)])
    assert rc == EXIT_INPUT
    assert "density must be finite and positive" in capsys.readouterr().err
    assert not (out / "scenario.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--sizes", "2", "--repeats", "0"], "need at least one size and one repeat"),
        (["gradcheck", "--scenario", "{relayless}"], "no relay agents"),
        (["ascend", "--scenario", "{relayless}", "--decay", "0"], "decay must lie in (0, 1]"),
        (["ascend", "--scenario", "{relayless}", "--decay", "1.5"], "decay must lie in (0, 1]"),
        (["ascend", "--scenario", "{relayless}", "--max-iters", "0"], "max_iters must be at least 1"),
    ],
    ids=["bench-repeats", "gradcheck-no-relays", "ascend-decay-0", "ascend-decay-1.5", "ascend-max-iters"],
)
def test_input_a_command_cannot_run_exits_two_and_writes_nothing(
    tmp_path, two_agent_file, capsys, argv, message
):
    out = tmp_path / "o"
    argv = [str(two_agent_file) if arg == "{relayless}" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_returns_two(tmp_path, pair_file):
    assert main(["solve"]) == 2  # missing required arguments
    # the solve target is fixed: an old command line stops instead of running
    out = tmp_path / "o"
    assert main(["solve", "--scenario", str(pair_file), "--gap-tol", "1e-8", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.fixture()
def team_file(tmp_path):
    # inside its navigation box, so simulate takes it as well
    out = tmp_path / "team"
    assert main(["spawn", "--num-task", "3", "--num-relay", "1", "--seed", "2", "--out", str(out)]) == EXIT_OK
    return out / "scenario.json"


def inject_solve_failures(monkeypatch, failure, healthy):
    """Let ``healthy`` flow solves through, then fail every later one: with a
    verification report that does not pass, or with an LP result that is not
    optimal."""
    calls = []
    if failure == "verification":
        real_verify = mcfp_module.verify_solution

        def verify(inst, sol):
            calls.append(inst)
            report = real_verify(inst, sol)
            return report if len(calls) <= healthy else dataclasses.replace(report, primal_residual=1.0)

        monkeypatch.setattr(mcfp_module, "verify_solution", verify)
    else:
        real_solve = mcfp_module.solve

        def solve(lp, opts=None):
            calls.append(lp)
            result = real_solve(lp, opts)
            if len(calls) <= healthy:
                return result
            return dataclasses.replace(result, status="numerical", message="injected failure")

        monkeypatch.setattr(mcfp_module, "solve", solve)


# command line, healthy solves before the failure, file the partial run leaves
FAILING_COMMANDS = {
    "solve": ([], 0, None),
    "bench": (["--sizes", "2", "--repeats", "1"], 0, None),
    "gradcheck": (["--trials", "1"], 0, None),
    "ascend": ([], 2, "trace.csv"),
    "simulate": (["--duration", "1.0", "--no-pre-optimize"], 2, "timeline.csv"),
    # the pre-optimizing ascent fails, before any snapshot
    "simulate-pre-optimize": (["--duration", "1.0"], 2, None),
}


@pytest.mark.parametrize("failure, code", [("verification", EXIT_VERIFY), ("lp-status", EXIT_SOLVER)])
@pytest.mark.parametrize("case", list(FAILING_COMMANDS))
def test_every_command_exits_with_the_code_of_its_failed_solve(
    tmp_path, team_file, monkeypatch, capsys, case, failure, code
):
    command = case.split("-")[0]
    extra, healthy, partial = FAILING_COMMANDS[case]
    scenario = [] if command == "bench" else ["--scenario", str(team_file)]
    out = tmp_path / "o"
    inject_solve_failures(monkeypatch, failure, healthy)
    assert main([command, *scenario, *extra, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "solver failure:" in err
    if command in ("ascend", "simulate"):
        assert json.loads((out / "manifest.json").read_text())["command"] == command
    if partial is not None:
        rows = (out / partial).read_text().strip().splitlines()
        assert len(rows) == 1 + healthy
    if case == "ascend":
        assert "at iteration 2: " in err
