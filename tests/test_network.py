import json

import numpy as np
import pytest

from relayflow import (
    CommoditySpec,
    Scenario,
    ScenarioConfig,
    area_side,
    default_commodities,
    load_scenario,
    save_scenario,
    spawn_scenario,
    weight_preset,
)
from relayflow.network import (
    ScenarioFormatError,
    scenario_from_dict,
    scenario_to_dict,
    validate_weights,
)


def test_default_commodities_two_agents():
    coms = default_commodities(2)
    assert [(c.sink, c.sources) for c in coms] == [(0, (1,)), (1, (0,))]


def test_default_commodities_three_agents():
    coms = default_commodities(3)
    assert coms[0].sources == (1, 2)
    assert len(coms) == 3
    assert sorted(c.sink for c in coms) == [0, 1, 2]


def test_default_commodities_rejects_single_agent():
    with pytest.raises(ValueError):
        default_commodities(1)


def test_commodity_validation():
    with pytest.raises(ValueError):
        CommoditySpec(sink=0, sources=())
    with pytest.raises(ValueError):
        CommoditySpec(sink=1, sources=(1, 2))
    with pytest.raises(ValueError):
        CommoditySpec(sink=-1, sources=(0,))


def test_area_side_rule():
    assert area_side(25, 1.0) == pytest.approx(5.0)
    assert area_side(4, 1.0) == pytest.approx(2.0)


def test_spawn_is_deterministic():
    cfg = ScenarioConfig(num_task=6, num_relay=3, rng_seed=99)
    a = spawn_scenario(cfg)
    b = spawn_scenario(cfg)
    np.testing.assert_array_equal(a.task_positions, b.task_positions)
    np.testing.assert_array_equal(a.relay_positions, b.relay_positions)
    c = spawn_scenario(ScenarioConfig(num_task=6, num_relay=3, rng_seed=100))
    assert not np.array_equal(a.task_positions, c.task_positions)


def test_spawn_positions_inside_square():
    for num_task, density in [(25, 1.0), (4, 1.0), (9, 4.0)]:
        cfg = ScenarioConfig(num_task=num_task, num_relay=num_task // 2, density=density, rng_seed=1)
        scenario = spawn_scenario(cfg)
        side = area_side(num_task, density)
        pts = scenario.positions()
        assert np.all(pts >= 0.0) and np.all(pts <= side)


def test_spawn_builds_default_commodities():
    scenario = spawn_scenario(ScenarioConfig(num_task=4, num_relay=1, rng_seed=0))
    assert len(scenario.commodities) == 4
    assert sorted(c.sink for c in scenario.commodities) == [0, 1, 2, 3]
    assert scenario.relay_indices() == (4,)


def test_weight_presets():
    np.testing.assert_array_equal(weight_preset("adhoc", 5), np.ones(5))
    np.testing.assert_array_equal(weight_preset("ap:2", 5), [0, 0, 1, 0, 0])
    np.testing.assert_array_equal(weight_preset("subset:0,1", 4), [1, 1, 0, 0])


def test_weight_preset_errors():
    with pytest.raises(ValueError):
        weight_preset("ap:5", 5)
    with pytest.raises(ValueError):
        weight_preset("subset:0,9", 4)
    with pytest.raises(ValueError):
        weight_preset("bogus", 3)
    with pytest.raises(ValueError):
        validate_weights([1.0, -0.5], 2)


def test_scenario_json_round_trip(tmp_path, model):
    scenario = spawn_scenario(ScenarioConfig(num_task=3, num_relay=2, rng_seed=5), model)
    weights = weight_preset("subset:1", 3)
    path = tmp_path / "scenario.json"
    save_scenario(path, scenario, weights)
    loaded, w2 = load_scenario(path)
    np.testing.assert_allclose(loaded.task_positions, scenario.task_positions)
    np.testing.assert_allclose(loaded.relay_positions, scenario.relay_positions)
    np.testing.assert_array_equal(w2, weights)
    assert loaded.commodities == scenario.commodities
    assert loaded.capacity_model == scenario.capacity_model


def test_scenario_json_field_order(tmp_path, model):
    scenario = Scenario(
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((0, 2)), model, default_commodities(2)
    )
    path = tmp_path / "s.json"
    save_scenario(path, scenario, [1.0, 1.0])
    doc = json.loads(path.read_text())
    assert list(doc) == ["capacity_model", "task_agents", "relay_agents", "commodities", "weights"]
    assert list(doc["capacity_model"]) == ["d0_km", "exponent"]
    assert list(doc["commodities"][0]) == ["sink", "sources"]


def test_load_rejects_malformed_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioFormatError):
        load_scenario(bad)
    bad.write_text(json.dumps({"task_agents": [[0, 0]]}))
    with pytest.raises(ScenarioFormatError):
        load_scenario(bad)
    with pytest.raises(ScenarioFormatError):
        load_scenario(tmp_path / "missing.json")


def test_scenario_validation(model):
    with pytest.raises(ValueError):
        Scenario(np.array([[np.nan, 0.0]]), np.zeros((0, 2)), model)
    with pytest.raises(ValueError):
        Scenario(
            np.array([[0.0, 0.0], [1.0, 1.0]]),
            np.zeros((0, 2)),
            model,
            (CommoditySpec(sink=0, sources=(5,)),),
        )
    with pytest.raises(ValueError):
        ScenarioConfig(num_task=3, num_relay=1, density=0.0)


def test_scenario_from_dict_reads_relay_positions_only_in_pairs(model):
    scenario = Scenario(
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.5, 0.5]]), model, default_commodities(2)
    )
    doc = scenario_to_dict(scenario, [1.0, 1.0])
    for relays, count in (([[0.2, 0.1], [0.5, 0.3]], 2), ([0.2, 0.1], 1), ([], 0)):
        doc["relay_agents"] = relays
        assert scenario_from_dict(doc)[0].num_relay == count
    for relays in ([[0.2, 0.1, 0.5, 0.3]], [0.2, 0.1, 0.5, 0.3], [[[0.2, 0.1]]]):
        doc["relay_agents"] = relays
        with pytest.raises(ValueError, match="relay positions"):
            scenario_from_dict(doc)


def test_with_relay_positions_keeps_tasks(model):
    scenario = spawn_scenario(ScenarioConfig(num_task=3, num_relay=2, rng_seed=2), model)
    moved = scenario.with_relay_positions(scenario.relay_positions + 0.5)
    np.testing.assert_array_equal(moved.task_positions, scenario.task_positions)
    np.testing.assert_allclose(moved.relay_positions, scenario.relay_positions + 0.5)
    with pytest.raises(ValueError):
        scenario.with_relay_positions(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="relay positions"):
        scenario.with_relay_positions(np.array([[0.2, 0.1, 0.5, 0.3]]))
