"""Unit tests for the sans-IO stage core, driven without any runtime.

A fake clock and a fake queue stand in for the driver; every test talks
to :class:`repro.core.stagecore.StageCore` directly.  The last test is a
structural guard: the core is the one concrete stage context, so no
runtime can fork its own copy again.
"""

import ast
from pathlib import Path
from typing import Any, List, Optional

import pytest

import repro
from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.adaptation.protocol import LoadException, LoadExceptionKind
from repro.core.api import ProcessorError, StreamProcessor
from repro.core.batching import BatchPolicy
from repro.core.ingress import SourceBinding, check_source, resolve_source
from repro.core.items import Item
from repro.core.stagecore import OutEdge, StageCore, owner_select
from repro.obs.registry import MetricsRegistry
from repro.resilience.checkpoint import StageCheckpoint
from repro.resilience.policy import DeadLetterQueue, ResilienceConfig
from repro.simnet.hosts import CpuCostModel
from repro.streams.arrivals import ConstantArrivals


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class FakeQueue:
    """Satisfies the estimator's QueueLike protocol with a settable length."""

    def __init__(self, capacity: int = 10) -> None:
        self.capacity = capacity
        self.length = 0

    @property
    def current_length(self) -> int:
        return self.length

    @property
    def recent_average(self) -> float:
        return float(self.length)


class SetupError(Exception):
    pass


def make_core(
    batch: Optional[BatchPolicy] = None,
    policy: Optional[AdaptationPolicy] = None,
    resilience: Optional[ResilienceConfig] = None,
    name: str = "stage",
) -> StageCore:
    return StageCore(
        name,
        {},
        FakeQueue(),
        policy or AdaptationPolicy(),
        MetricsRegistry(),
        clock=FakeClock(),
        error=SetupError,
        batch=batch,
        resilience=resilience,
        dead_letters=DeadLetterQueue() if resilience is not None else None,
    )


def by_slot(payload: Any) -> int:
    """A partitioner stand-in: the payload *is* its owner's slot."""
    return int(payload)


def family(count: int, skip: int = -1) -> List[OutEdge]:
    return [
        OutEdge(f"t#{slot}", f"relay#{slot}", "relay", slot)
        for slot in range(count)
        if slot != skip
    ]


def routed(core: StageCore, payload: Any, stream: Optional[str] = None) -> List[int]:
    core.emit(payload, stream=stream)
    return [index for index, _, _ in core.drain(0.0)]


# -- route units -------------------------------------------------------------


class TestRouteUnits:
    def test_solo_edges_fan_out_and_filter_by_name(self):
        core = make_core()
        core.wire([OutEdge("a", "x"), OutEdge("b", "y")], {})
        assert [unit.edges for unit in core.units] == [[0], [1]]
        assert routed(core, 1) == [0, 1]
        assert routed(core, 1, stream="b") == [1]

    def test_full_family_routes_to_exactly_the_owner(self):
        core = make_core()
        core.wire(family(3), {"relay": (3, owner_select(by_slot))})
        (unit,) = core.units
        assert unit.select is not None
        assert unit.edges == [0, 1, 2]
        assert unit.accepts == {"t", "t#0", "t#1", "t#2"}
        assert [routed(core, slot) for slot in (2, 0, 1)] == [[2], [0], [1]]
        assert core.registry.value("shard.relay#2.items") == 1.0

    def test_partial_family_falls_back_to_solo_units(self):
        core = make_core()
        core.wire(family(3, skip=1), {"relay": (3, owner_select(by_slot))})
        assert [(unit.select, unit.edges) for unit in core.units] == [
            (None, [0]),
            (None, [1]),
        ]
        assert core.units[0].accepts == {"t#0", "t"}
        # No partitioner over a ragged slot set: a broadcast reaches both.
        assert routed(core, 2) == [0, 1]

    def test_explicit_replica_stream_overrides_the_owner(self):
        core = make_core()
        core.wire(family(3), {"relay": (3, owner_select(by_slot))})
        assert routed(core, 2, stream="t#1") == [1]
        assert routed(core, 2, stream="t") == [2]

    def test_declared_name_reaches_a_renamed_replica_edge(self):
        # A replica's outbound stream "t" is expanded to "t#0"; a
        # processor written against the declaration still names "t".
        core = make_core()
        core.wire([OutEdge("t#0", "sink")], {})
        assert routed(core, "x", stream="t") == [0]
        with pytest.raises(ProcessorError, match="unknown stream 'u'"):
            core.emit("x", stream="u")

    def test_selection_sees_the_explicit_slot(self):
        calls = []

        def select(payload: Any, slot: Optional[int]) -> int:
            calls.append((payload, slot))
            return 0 if slot is None else slot

        core = make_core()
        core.wire(family(2), {"relay": (2, select)})
        routed(core, "p")
        routed(core, "q", stream="t#1")
        assert calls == [("p", None), ("q", 1)]


# -- draining and flushing ---------------------------------------------------


class TestDrain:
    def test_unbuffered_edges_are_yielded_for_immediate_send(self):
        core = make_core()
        core.wire([OutEdge("a", "x"), OutEdge("b", "y")], {})
        core.emit("p", size=3.0)
        core.emit("q", size=5.0, stream="b")
        assert list(core.drain(1.0)) == [(0, "p", 3.0), (1, "p", 3.0), (1, "q", 5.0)]
        assert core.pending == []
        assert core.take_full() == []
        assert core.metrics.items_out.value == 2.0
        assert core.metrics.bytes_out.value == 8.0
        assert core.batch_metrics is None

    def test_buffered_edges_fill_and_flush_with_accounting(self):
        core = make_core(batch=BatchPolicy(max_items=2, max_delay=0.5))
        core.wire([OutEdge("a", "x", buffered=True), OutEdge("b", "y")], {})
        core.emit("p")
        assert list(core.drain(1.0)) == [(1, "p", 8.0)]
        assert core.take_full() == []
        core.emit("q")
        assert list(core.drain(1.25)) == [(1, "q", 8.0)]
        assert core.take_full() == [0]
        assert core.take_batch(0) == [("p", 8.0, 1.0, None, None), ("q", 8.0, 1.25, None, None)]
        assert core.take_batch(0) == []
        assert core.take_batch(1) == []  # unbuffered edge: nothing to ship
        metrics = core.batch_metrics
        assert metrics is not None
        assert metrics.batches.value == 1.0
        assert metrics.items.value == 2.0
        assert metrics.flush_size.count == 1
        assert metrics.age_flushes.value == 0.0

    def test_age_bound_deadline_and_age_flush(self):
        core = make_core(batch=BatchPolicy(max_items=8, max_delay=0.5))
        clock = core.clock
        core.wire([OutEdge("a", "x", buffered=True)], {})
        assert core.flush_timeout() is None
        core.emit("p")
        assert list(core.drain(2.0)) == []
        clock.t = 2.25  # type: ignore[attr-defined]
        assert core.flush_timeout() == pytest.approx(0.25)
        assert core.due() == []
        clock.t = 2.5  # type: ignore[attr-defined]
        assert core.due() == [0]
        clock.t = 3.0  # type: ignore[attr-defined]
        assert core.flush_timeout() == 0.0
        assert len(core.take_batch(0, age=True)) == 1
        assert core.batch_metrics is not None
        assert core.batch_metrics.age_flushes.value == 1.0
        assert core.flush_timeout() is None

    def test_time_scale_applies_to_the_age_bound(self):
        core = StageCore(
            "s", {"batch-max-items": "4"}, FakeQueue(), AdaptationPolicy(),
            MetricsRegistry(), clock=FakeClock(), error=SetupError,
            batch=BatchPolicy(max_items=2, max_delay=0.5), time_scale=0.1,
        )
        assert core.batch is not None
        assert core.batch.max_items == 4
        assert core.batch.max_delay == pytest.approx(0.05)

    def test_bad_batch_property_raises_the_driver_error(self):
        with pytest.raises(SetupError, match="stage 's'"):
            StageCore(
                "s", {"batch-max-items": "many"}, FakeQueue(), AdaptationPolicy(),
                MetricsRegistry(), clock=FakeClock(), error=SetupError,
            )


# -- the Section 4 monitor tick ----------------------------------------------


class Tunable(StreamProcessor):
    def __init__(self, initial: float = 50.0) -> None:
        self.initial = initial
        self.restored: Any = None

    def setup(self, context):
        context.specify_parameter("k", self.initial, 10.0, 100.0, 1.0, -1)

    def on_item(self, payload, context):
        pass

    def restore(self, state):
        self.restored = state


class TestTick:
    def test_adjusts_exactly_every_adjust_every_samples(self):
        core = make_core(policy=AdaptationPolicy(adjust_every=3))
        core.setup(Tunable())
        adjusted_at = [
            sample for sample in range(1, 10) if core.tick(float(sample))[1]
        ]
        assert adjusted_at == [3, 6, 9]
        assert [name for name, _ in core.tick(10.0)[1]] == []
        assert core.metrics.queue_len.values[:3] == [0.0, 0.0, 0.0]

    def test_exception_goes_to_in_process_upstream(self):
        core = make_core(policy=AdaptationPolicy(adjust_every=1), name="down")
        upstream = make_core(name="up")
        core.upstream.append(upstream)
        core.queue.length = 10  # saturated: the score climbs to overload
        reported = [core.tick(float(t))[0] for t in range(1, 20)]
        exceptions = [e for e in reported if e is not None]
        assert exceptions
        assert all(e.kind is LoadExceptionKind.OVERLOAD for e in exceptions)
        assert upstream.metrics.exceptions_received.value == len(exceptions)
        assert core.metrics.exceptions_reported.value == len(exceptions)

    def test_disabled_exceptions_are_not_reported(self):
        core = make_core(policy=AdaptationPolicy(exceptions_enabled=False))
        core.queue.length = 10
        assert all(core.tick(float(t))[0] is None for t in range(1, 20))

    def test_receive_counts_for_the_next_adjustment(self):
        core = make_core()
        core.receive(LoadException(LoadExceptionKind.UNDERLOAD, "down", 0.0))
        assert core.exceptions.aggregate() == (0, 1)
        assert core.metrics.exceptions_received.value == 1.0


# -- setup and restore -------------------------------------------------------


class EmitsInSetup(StreamProcessor):
    def setup(self, context):
        context.emit("premature")

    def on_item(self, payload, context):
        pass


class TestSetup:
    def test_first_setup_declares_and_publishes(self):
        core = make_core()
        core.setup(Tunable())
        assert core.get_suggested_value("k") == 50.0
        assert "adapt.stage.param.k" in core.registry.names("adapt.")
        with pytest.raises(ProcessorError, match="unknown parameter"):
            core.get_suggested_value("nope")
        with pytest.raises(ProcessorError, match="in setup"):
            core.specify_parameter("late", 1.0, 0.0, 2.0, 1.0, 1)

    def test_restoring_setup_binds_to_the_live_parameters(self):
        core = make_core()
        core.setup(Tunable())
        live = core.parameters["k"]
        live.set_value(30.0, 1.0)
        replacement = Tunable(initial=80.0)
        core.setup(replacement, restoring=True)
        assert core.parameters["k"] is live
        assert core.get_suggested_value("k") == 30.0
        assert core.processor is replacement
        with pytest.raises(ProcessorError, match="declared twice"):
            core.setup(Tunable())

    def test_checkpoint_overlay(self):
        core = make_core()
        core.setup(Tunable())
        core.eos.expect(2)
        core.eos.observe()
        checkpoint = core.checkpoint({"n": 3}, generation=2, cursors={"c": 4})
        assert checkpoint.parameters == {"k": 50.0}
        assert (checkpoint.generation, checkpoint.cursors, checkpoint.eos_seen) == (
            2, {"c": 4}, 1,
        )
        core.parameters["k"].set_value(20.0, 1.0)
        core.eos.restore(0)
        core.clock.t = 2.0  # type: ignore[attr-defined]
        fresh = Tunable()
        core.setup(fresh, checkpoint, restoring=True)
        assert core.get_suggested_value("k") == 50.0
        assert fresh.restored == {"n": 3}
        assert core.eos.seen == 1

    def test_partial_checkpoint_leaves_adaptation_state_alone(self):
        core = make_core()
        core.receive(LoadException(LoadExceptionKind.OVERLOAD, "down", 0.0))
        core.setup(Tunable(), StageCheckpoint(stage="stage", time=0.0, eos_seen=0))
        assert core.exceptions.aggregate() == (1, 0)

    def test_emission_during_setup_raises_and_keeps_pending(self):
        core = make_core()
        core.wire([OutEdge("a", "x")], {})
        core.emit("earlier")
        with pytest.raises(SetupError, match="emitted during setup"):
            core.setup(EmitsInSetup())
        assert core.pending == [("earlier", 8.0, None)]


# -- quarantine ----------------------------------------------------------------


class TestQuarantine:
    def test_without_resilience_errors_propagate(self):
        assert make_core().quarantine("p", ValueError("x"), "processing") is False

    def test_fail_policy_propagates(self):
        core = make_core(resilience=ResilienceConfig(error_policy="fail"))
        assert core.quarantine("p", ValueError("x"), "processing") is False

    def test_dead_letter_policy_counts_and_retains(self):
        core = make_core(resilience=ResilienceConfig(error_policy="dead-letter"))
        core.clock.t = 2.5  # type: ignore[attr-defined]
        assert core.quarantine("p", ValueError("x"), "transmission") is True
        assert core.registry.value("fault.stage.quarantined") == 1.0
        assert core.dead_letters is not None
        (letter,) = core.dead_letters.letters
        assert (letter.payload, letter.time, letter.reason) == ("p", 2.5, "transmission")


# -- the item step -------------------------------------------------------------


class FakeHop:
    def __init__(self) -> None:
        self.dequeue_t: Optional[float] = None
        self.process_t = 0.0


class EmitThenMaybeRaise(StreamProcessor):
    """Emits ``payload`` twice; a negative payload then raises."""

    cost_model = CpuCostModel()

    def __init__(self) -> None:
        self.flushes = 0

    def on_item(self, payload, context):
        context.emit(payload)
        context.emit(payload)
        if payload < 0:
            raise ValueError(f"poison {payload}")

    def flush(self, context):
        self.flushes += 1
        context.emit("final")


class FakeDet:
    def __init__(self) -> None:
        self.finalized: List[Any] = []

    def finalize_stage(self, processor: Any) -> None:
        self.finalized.append(processor)


def item(payload: Any = 1, size: float = 8.0, created_at: float = 0.0) -> Item:
    message = Item(payload=payload, size=size, origin="src", created_at=created_at)
    message.hop = FakeHop()
    return message


class TestItemStep:
    def test_unbatched_stage_counts_each_item_it_takes(self):
        core = make_core()
        core.setup(EmitThenMaybeRaise())
        core.clock.t = 4.0  # type: ignore[attr-defined]
        message = item(size=24.0)
        assert core.take(message) == 0.0
        assert (core.metrics.items_in.value, core.metrics.bytes_in.value) == (1.0, 24.0)
        assert message.hop.dequeue_t == 4.0

    def test_batched_stage_leaves_the_count_to_its_chunks(self):
        core = make_core(batch=BatchPolicy(max_items=4, max_delay=0.5))
        core.setup(EmitThenMaybeRaise())
        chunk = [item(size=24.0), item(size=8.0)]
        core.arrived(chunk)
        for message in chunk:
            core.take(message)
            assert message.hop.dequeue_t == 0.0
        assert (core.metrics.items_in.value, core.metrics.bytes_in.value) == (2.0, 32.0)

    def test_cost_follows_the_current_model_in_clock_units(self):
        core = StageCore(
            "s", {}, FakeQueue(), AdaptationPolicy(), MetricsRegistry(),
            clock=FakeClock(), error=SetupError, time_scale=0.5,
        )
        processor = EmitThenMaybeRaise()
        core.setup(processor)
        assert core.take(item()) == 0.0
        processor.cost_model = CpuCostModel(per_item=0.25, per_byte=0.5)
        assert core.take(item(size=2.0)) == pytest.approx((0.25 + 1.0) * 0.5)
        processor.work_amount = lambda payload, size: (0.0, 0.0)  # type: ignore[method-assign]
        assert core.take(item()) is None

    def test_worked_charges_busy_time_and_the_hop(self):
        core = make_core()
        message = item()
        core.worked(message, 0.25)
        assert core.metrics.busy_seconds.value == 0.25
        assert message.hop.process_t == 0.25

    def test_success_observes_latency(self):
        core = make_core()
        core.wire([OutEdge("a", "x")], {})
        core.setup(EmitThenMaybeRaise())
        core.clock.t = 3.0  # type: ignore[attr-defined]
        assert core.process(item(7, created_at=1.0)) is None
        assert core.metrics.latency.samples == [2.0]
        assert [payload for payload, _, _ in core.pending] == [7, 7]

    def test_quarantined_poison_item_drops_only_its_own_emissions(self):
        core = make_core(resilience=ResilienceConfig(error_policy="skip"))
        core.wire([OutEdge("a", "x")], {})
        core.setup(EmitThenMaybeRaise())
        assert core.process(item(5)) is None
        poison = core.process(item(-1))
        assert isinstance(poison, ValueError)
        assert [payload for payload, _, _ in core.pending] == [5, 5]
        assert core.registry.value("fault.stage.quarantined") == 1.0
        assert core.metrics.latency.count == 1

    def test_poison_item_raises_when_not_quarantined(self):
        core = make_core()
        core.wire([OutEdge("a", "x")], {})
        core.setup(EmitThenMaybeRaise())
        with pytest.raises(ValueError, match="poison -1"):
            core.process(item(-1))

    def test_second_marker_flushes_and_finalizes_exactly_once(self):
        core = make_core()
        core.wire([OutEdge("a", "x")], {})
        processor = EmitThenMaybeRaise()
        core.setup(processor)
        det = core.__dict__["_det"] = FakeDet()
        core.eos.expect(2)
        assert core.end_of_stream() is False
        assert (processor.flushes, det.finalized) == (0, [])
        assert core.end_of_stream() is True
        assert (processor.flushes, det.finalized) == (1, [processor])
        assert core.end_of_stream() is False  # an over-delivered marker
        assert (processor.flushes, det.finalized) == (1, [processor])
        assert [payload for payload, _, _ in core.pending] == ["final"]


# -- source ingress --------------------------------------------------------------


STAGES = {"filter": {}, "relay#0": {"shard-group": "relay"}, "relay#1": {"shard-group": "relay"}}


class TestIngress:
    def test_stage_target_resolves_to_that_stage(self):
        binding = SourceBinding("src", "filter", [1], item_size=lambda p: 3.0 * p)
        check_source(binding, STAGES, SetupError)
        ingress = resolve_source(binding, {"filter": "F"}, {})
        assert (ingress.targets, ingress.owner) == (["F"], None)
        assert ingress.size_of(2) == 6.0
        assert ingress.gaps() is None

    def test_group_target_resolves_to_every_replica_and_its_owner(self):
        binding = SourceBinding("src", "relay", [1], rate=4.0)
        check_source(binding, STAGES, SetupError)
        stages = {"relay#0": "R0", "relay#1": "R1"}
        ingress = resolve_source(binding, stages, {"relay": (["relay#0", "relay#1"], by_slot)})
        assert ingress.targets == ["R0", "R1"]
        assert ingress.owner is by_slot
        assert ingress.size_of("any payload") == 8.0
        gaps = ingress.gaps(time_scale=0.5)
        assert gaps is not None
        assert [next(gaps) for _ in range(2)] == [0.125, 0.125]

    def test_arrivals_override_the_rate(self):
        binding = SourceBinding("src", "filter", [1], rate=4.0, arrivals=ConstantArrivals(2.0))
        gaps = resolve_source(binding, {"filter": "F"}, {}).gaps(time_scale=2.0)
        assert gaps is not None
        assert next(gaps) == 1.0

    def test_unknown_target_is_rejected(self):
        with pytest.raises(SetupError, match="source 'src': unknown stage 'nope'"):
            check_source(SourceBinding("src", "nope", [1]), STAGES, SetupError)

    @pytest.mark.parametrize("rate", [0.0, -2.0])
    def test_non_positive_rate_is_rejected(self, rate):
        with pytest.raises(SetupError, match="source 'src': rate must be > 0"):
            check_source(SourceBinding("src", "filter", [1], rate=rate), STAGES, SetupError)


# -- structural guard ----------------------------------------------------------


def test_stagecore_is_the_only_concrete_stage_context():
    """No runtime may fork its own StageContext again.

    Walks ``src/repro``: every class deriving (transitively, by name)
    from ``StageContext`` must be the core's ``StageCore`` or the test
    helper ``api.RecordingContext``.
    """
    root = Path(repro.__file__).parent
    classes = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(("repro",) + path.relative_to(root).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = {
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                }
                classes.append((module, node.name, bases))
    derived = {"StageContext"}
    found = set()
    changed = True
    while changed:
        changed = False
        for module, name, bases in classes:
            if bases & derived and (module, name) not in found:
                found.add((module, name))
                derived.add(name)
                changed = True
    assert found == {
        ("repro.core.stagecore", "StageCore"),
        ("repro.core.api", "RecordingContext"),
    }
