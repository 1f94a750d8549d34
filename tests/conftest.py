import numpy as np
import pytest

from relayflow import (
    AscentConfig,
    CapacityModel,
    Scenario,
    ScenarioConfig,
    ascend,
    default_commodities,
    spawn_scenario,
    weight_preset,
)

PAIR_TASKS = np.array([[-1.0, 0.0], [1.0, 0.0]])
PAIR_RELAYS = np.array([[0.3, 0.4]])
SQUARE_TASKS = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
SQUARE_RELAYS = np.array([[0.6, 0.4], [1.5, 1.7]])
OUTLIER_TASKS = np.array([[0.0, 0.0], [0.8, 0.0], [0.0, 0.8], [3.2, 0.6]])
OUTLIER_RELAYS = np.array([[0.5, 0.5], [1.4, 0.4]])


@pytest.fixture(scope="session")
def model():
    return CapacityModel()


def _small_team(tasks, relays, model):
    return Scenario(tasks, relays, model, default_commodities(len(tasks)))


@pytest.fixture(scope="session")
def pair_scenario(model):
    return _small_team(PAIR_TASKS, PAIR_RELAYS, model)


@pytest.fixture(scope="session")
def square_scenario(model):
    return _small_team(SQUARE_TASKS, SQUARE_RELAYS, model)


@pytest.fixture(scope="session")
def outlier_scenario(model):
    return _small_team(OUTLIER_TASKS, OUTLIER_RELAYS, model)


@pytest.fixture(scope="session")
def pair_trace(pair_scenario):
    return ascend(pair_scenario, np.ones(2))


@pytest.fixture(scope="session")
def square_trace(square_scenario):
    return ascend(square_scenario, np.ones(4))


@pytest.fixture(scope="session")
def outlier_trace(outlier_scenario):
    return ascend(outlier_scenario, np.ones(4))


@pytest.fixture(scope="session")
def backtracking_traces(pair_scenario, square_scenario, outlier_scenario):
    cfg = AscentConfig(backtracking=True)
    return [
        ascend(pair_scenario, np.ones(2), cfg),
        ascend(square_scenario, np.ones(4), cfg),
        ascend(outlier_scenario, np.ones(4), cfg),
    ]


@pytest.fixture(scope="session")
def flex_scenario(model):
    # fixed team used by the weight-flexibility comparison
    return spawn_scenario(ScenarioConfig(num_task=5, num_relay=4, rng_seed=42), model)


@pytest.fixture(scope="session")
def flex_traces(flex_scenario):
    return {
        "adhoc": ascend(flex_scenario, weight_preset("adhoc", 5)),
        "ap": ascend(flex_scenario, weight_preset("ap:2", 5)),
    }


@pytest.fixture(scope="session")
def team5x4():
    """The CLI's team5x4 preset (5 tasks, 4 relays, spawn seed 0) and its
    ``adhoc`` weights: a flow LP above the dense threshold."""
    scenario = spawn_scenario(ScenarioConfig(num_task=5, num_relay=4, rng_seed=0))
    return scenario, weight_preset("adhoc", len(scenario.commodities))


@pytest.fixture(scope="session")
def mission_team():
    """The demo mission's team (5 tasks, 2 relays, spawn seed 21) and its
    ``ap:0`` weights: seven agents, so its flow LP of 2 444 entries goes
    to HiGHS."""
    scenario = spawn_scenario(ScenarioConfig(num_task=5, num_relay=2, rng_seed=21))
    return scenario, weight_preset("ap:0", len(scenario.commodities))


@pytest.fixture()
def two_agents_unit(model):
    """Two task agents one km apart, no relays."""
    return Scenario(
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        np.zeros((0, 2)),
        model,
        default_commodities(2),
    )


@pytest.fixture()
def bridge_scenario(model):
    """Two task agents two km apart with a relay at the midpoint."""
    return Scenario(
        np.array([[0.0, 0.0], [2.0, 0.0]]),
        np.array([[1.0, 0.0]]),
        model,
        default_commodities(2),
    )


@pytest.fixture()
def pair_with_offset_relay(model):
    """The two-task layout with the relay starting off the midpoint."""
    return Scenario(
        np.array([[-1.0, 0.0], [1.0, 0.0]]),
        np.array([[0.3, 0.4]]),
        model,
        default_commodities(2),
    )
