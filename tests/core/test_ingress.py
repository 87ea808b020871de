"""Source ingress on every runtime: one check, paced delivery, batch age.

Every runtime checks a source binding with :func:`repro.core.ingress.check_source`,
so a bad binding fails with one message everywhere.  A paced source must
deliver the rate it was asked for on the wall-clock runtimes, and the
coordinator's batched feeder must honour the batch age bound while it
waits for the next paced item.

The sink is referenced by ``py://`` URL so networked worker processes
can import it.
"""

import time
from typing import Any, Iterator, List

import pytest

from repro.core.api import StreamProcessor
from repro.core.batching import BatchPolicy
from repro.core.runtime_sim import RuntimeError_, SimulatedRuntime, SourceBinding
from repro.core.runtime_threads import ThreadedRuntime, ThreadedRuntimeError
from repro.grid.config import AppConfig, StageConfig
from repro.grid.deployer import Deployer
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.net.coordinator import NetworkedRuntime, NetworkedRuntimeError
from repro.simnet.engine import Environment
from repro.simnet.hosts import CpuCostModel
from repro.simnet.topology import Network


class ArrivalSink(StreamProcessor):
    """Records the wall-clock time each item reaches ``on_item``."""

    cost_model = CpuCostModel()

    def __init__(self) -> None:
        self.arrivals: List[List[float]] = []

    def on_item(self, payload: Any, context: Any) -> None:
        self.arrivals.append([time.monotonic(), payload])

    def result(self) -> Any:
        return self.arrivals


SINK_URL = f"py://{__name__}:ArrivalSink"


def _net_config() -> AppConfig:
    return AppConfig(name="ingress", stages=[StageConfig("sink", SINK_URL)], streams=[])


def _bind_zero_rate(runtime: str) -> None:
    if runtime == "sim":
        env = Environment()
        network = Network(env)
        network.create_host("h0")
        registry = ServiceRegistry()
        registry.register_network(network)
        repository = CodeRepository()
        repository.publish("repo://ingress/sink", ArrivalSink)
        config = AppConfig(
            name="ingress", stages=[StageConfig("sink", "repo://ingress/sink")], streams=[]
        )
        deployment = Deployer(registry, repository).deploy(config)
        sim = SimulatedRuntime(env, network, deployment)
        sim.bind_source(SourceBinding("src", "sink", [1], rate=0.0))
    elif runtime == "threaded":
        threaded = ThreadedRuntime()
        threaded.add_stage("sink", ArrivalSink())
        threaded.bind_source("src", "sink", [1], rate=0.0)
    else:
        NetworkedRuntime(_net_config(), workers=1).bind_source("src", "sink", [1], rate=0.0)


@pytest.mark.parametrize(
    "runtime,error",
    [("sim", RuntimeError_), ("threaded", ThreadedRuntimeError), ("net", NetworkedRuntimeError)],
)
def test_zero_rate_fails_with_one_message_on_every_runtime(runtime, error):
    with pytest.raises(error) as caught:
        _bind_zero_rate(runtime)
    assert str(caught.value) == "source 'src': rate must be > 0, got 0.0"


RATE = 5000.0
ITEMS = 2500


@pytest.mark.parametrize("runtime", ["threaded", "net"])
def test_paced_source_delivers_the_requested_rate(runtime):
    if runtime == "threaded":
        threaded = ThreadedRuntime(adaptation_enabled=False)
        threaded.add_stage("sink", ArrivalSink())
        threaded.bind_source("src", "sink", range(ITEMS), rate=RATE)
        arrivals = threaded.run(timeout=60.0).final_value("sink")
    else:
        net = NetworkedRuntime(_net_config(), workers=1, adaptation_enabled=False)
        net.bind_source("src", "sink", range(ITEMS), rate=RATE)
        arrivals = net.run(timeout=60.0).final_value("sink")
    assert [payload for _, payload in arrivals] == list(range(ITEMS))
    achieved = (ITEMS - 1) / (arrivals[-1][0] - arrivals[0][0])
    assert achieved >= 0.9 * RATE, f"{runtime} delivered {achieved:.0f} items/s"


def _stamped(count: int) -> Iterator[float]:
    """Payloads carrying the wall-clock time the feeder took them."""
    for _ in range(count):
        yield time.monotonic()


def test_batched_paced_feeder_honours_the_batch_age_bound():
    net = NetworkedRuntime(
        _net_config(), workers=1, adaptation_enabled=False, batch=BatchPolicy(32, 0.02)
    )
    net.bind_source("src", "sink", _stamped(8), rate=10.0)
    arrivals = net.run(timeout=60.0).final_value("sink")
    assert len(arrivals) == 8
    lag = max(arrived - taken for arrived, taken in arrivals)
    assert lag < 0.060, f"an item waited {lag * 1000:.1f} ms in the source batch"
