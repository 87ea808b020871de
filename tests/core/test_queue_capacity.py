"""One ``queue-capacity`` stage property sets C on every runtime.

Section 4's load factors and thresholds scale with the input-queue
capacity C, so the same configuration must give a stage the same C on
the simulated, threaded and networked runtimes.
"""

import pytest

from repro.core.runtime_sim import SimulatedRuntime, SourceBinding
from repro.core.runtime_threads import ThreadedRuntime
from repro.grid.config import AppConfig, StageConfig
from repro.grid.deployer import Deployer
from repro.grid.registry import ServiceRegistry
from repro.net.worker import Worker, default_repository
from repro.simnet.engine import Environment
from repro.simnet.topology import Network

CODE = "repo://count-samps/relay"


def _core(runtime, properties):
    """The stage core a runtime builds for one stage with ``properties``."""
    config = AppConfig(
        name="capacity", stages=[StageConfig("relay", CODE, properties=properties)]
    )
    if runtime == "sim":
        env = Environment()
        network = Network(env)
        network.create_host("h0")
        registry = ServiceRegistry()
        registry.register_network(network)
        deployment = Deployer(registry, default_repository()).deploy(config)
        sim = SimulatedRuntime(env, network, deployment)
        sim.bind_source(SourceBinding("src", "relay", [1], rate=1.0))
        sim.run()
        return sim._stages["relay"].core
    if runtime == "threaded":
        threaded = ThreadedRuntime.from_config(config)
        return threaded._stages["relay"].core
    worker = Worker()
    worker._register_stage(
        {"stage": "relay", "code": CODE, "properties": dict(properties)}
    )
    return worker._stages["relay"].core


@pytest.mark.parametrize("properties,capacity", [({"queue-capacity": "5"}, 5), ({}, 200)])
@pytest.mark.parametrize("runtime", ["sim", "threaded", "net"])
def test_queue_capacity_property_sets_c(runtime, properties, capacity):
    core = _core(runtime, properties)
    assert core.queue.capacity == capacity
    assert core.estimator.capacity == float(capacity)
