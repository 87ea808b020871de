"""Outside-in GATES benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload net-saturate --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs one untraced and one traced round of the same work
(one normal-mode round each) and reports the per-layer metrics (see
perfbench/README.md).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
host fingerprint, goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import signal
import sys
import tempfile
import traceback
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: End-to-end metrics: (name, unit), measured with tracing off.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("items_per_s", "items/s"),
    ("cpu_us_per_item", "us"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "fraction"),
)

#: Per-layer metrics: (name, unit), from the traced run.  A layer a
#: workload does not exercise reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("grid.launch_s", "s"),
    ("net.coordinator.spawn_to_setup_s", "s"),
    ("net.coordinator.setup_to_first_item_s", "s"),
    ("simnet.events_per_item", "1/item"),
    ("simnet.processes_per_item", "1/item"),
    ("simnet.kernel_self_us_per_item", "us/item"),
    ("simnet.link_messages", "count"),
    ("simnet.sim_time_s", "sim-s"),
    ("core.adaptation.ticks", "count"),
    ("core.adaptation.tick_us", "us"),
    ("core.adaptation.final_k", "count"),
    ("streams.sketch_update_us_per_item", "us/item"),
    ("streams.summary_bytes_to_center", "bytes"),
    ("stage.relay.on_item_share", "fraction"),
    ("stage.relay.emit_us", "us"),
    ("stage.sink.on_item_share", "fraction"),
    ("stage.filter.on_item_share", "fraction"),
    ("stage.filter.emit_us", "us"),
    ("stage.join.on_item_share", "fraction"),
    ("net.protocol.items_per_frame", "items/frame"),
    ("net.protocol.bytes_per_item", "bytes/item"),
    ("net.protocol.encode_us_per_frame", "us/frame"),
    ("net.protocol.decode_us_per_frame", "us/frame"),
    ("net.channels.credit_stalls_per_kitem", "1/kitem"),
    ("net.channels.credit_wait_share", "fraction"),
    ("net.channels.in_flight_peak", "items"),
    ("net.channels.send_us_per_call", "us"),
    ("core.batching.mean_flush_size", "items"),
    ("core.batching.age_flush_share", "fraction"),
    ("core.runtime_threads.queue_mean.relay", "items"),
    ("core.runtime_threads.queue_mean.sink", "items"),
    ("core.sharding.skew", "ratio"),
    ("obs.counter_incs_per_item", "1/item"),
    ("obs.registry_us_per_item", "us/item"),
    ("proc.bench.unattributed_us_per_item", "us/item"),
    ("proc.worker-0.unattributed_us_per_item", "us/item"),
    ("proc.worker-1.unattributed_us_per_item", "us/item"),
    ("source.lag_p99_ms", "ms"),
    ("trace.overhead", "fraction"),
)


def prepare_paths() -> bool:
    """Import the program from ``src/`` of this checkout; False if it is missing."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return False
    # The script's own directory comes off the path: its modules are
    # imported as the ``perfbench`` package.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
        p for p in sys.path if os.path.abspath(p or ".") != here
    ]
    # Networked workers import the benchmark's stage module too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    # Temporary files (the networked runtime's UNIX sockets) stay in the
    # checkout.  A socket path longer than the platform limit (about 100
    # bytes, so a checkout path over about 70) makes workers use TCP.
    os.makedirs(OUT_DIR, exist_ok=True)
    os.environ["TMPDIR"] = OUT_DIR
    tempfile.tempdir = None
    return True


def host_fingerprint() -> Dict[str, Any]:
    """What a result may only be compared against on the same host."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu or platform.processor() or "unknown",
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def fresh_round(workload: Any, items: int, traced: bool = False) -> Any:
    """One round, after collecting the previous rounds' garbage.

    A user's run starts in a fresh process; without the collection a
    round could pay for the cyclic garbage of the one before it.
    """
    gc.collect()
    return workload.round(items, traced=traced)


def measure(workload: Any, seconds: float) -> Tuple[List[Any], List[float]]:
    """Warm up, then the measured rounds and the extra set-up samples."""
    workload.warmup()
    count, items = workload.plan(seconds)
    rounds = [fresh_round(workload, items) for _ in range(count)]
    setups = [r.setup_s for r in rounds]
    setups += [fresh_round(workload, 0).setup_s for _ in range(workload.SETUP_REPS)]
    return rounds, setups


def end_to_end(rounds: List[Any], setups: List[float]) -> Dict[str, float]:
    """Medians over rounds (latency: over every round's 0.25 s slices)."""
    slices = [s for r in rounds for s in r.slices]
    return {
        "items_per_s": _median([r.items_per_s for r in rounds]),
        "cpu_us_per_item": _median([r.cpu_s / r.delivered * 1e6 for r in rounds]),
        "latency_p50_ms": _median([p50 for p50, _ in slices]),
        "setup_s": _median(setups),
        "peak_rss_mb": max(r.rss_kb for r in rounds) / 1024.0,
        "accuracy": _median([r.accuracy for r in rounds]),
    }


def _role(stage: str) -> str:
    """``relay#1`` -> ``relay``; ``filter-3`` -> ``filter``."""
    for sep in ("#", "-"):
        head, _, tail = stage.rpartition(sep)
        if head and tail.isdigit():
            return head
    return stage


def per_layer(ref: Any, traced: Any) -> Dict[str, float]:
    """Per-layer metrics: counts from the untraced round, times from the traced one."""
    rows = [
        (proc, name, parent, calls, total, self_)
        for proc, entry in traced.procs.items()
        for name, parent, calls, total, self_ in entry["agg"]
    ]
    items = traced.delivered or 1

    def calls_of(name: str) -> int:
        return sum(r[3] for r in rows if r[1] == name)

    def total_us(name: str) -> float:
        return sum(r[4] for r in rows if r[1] == name) / 1e3

    def self_us(name: str) -> float:
        return sum(r[5] for r in rows if r[1] == name) / 1e3

    def per_call(name: str) -> float:
        return total_us(name) / calls_of(name) if calls_of(name) else 0.0

    out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    layer = ref.layer
    out["grid.launch_s"] = layer.get("launch_s", 0.0)
    out["net.coordinator.spawn_to_setup_s"] = layer.get("spawn_to_setup_s", 0.0)
    out["net.coordinator.setup_to_first_item_s"] = layer.get("setup_to_first_item_s", 0.0)
    out["simnet.events_per_item"] = calls_of("simnet.step") / items
    out["simnet.processes_per_item"] = calls_of("simnet.process") / items
    out["simnet.kernel_self_us_per_item"] = self_us("simnet.step") / items
    out["simnet.link_messages"] = layer.get("link_messages", 0.0)
    out["simnet.sim_time_s"] = layer.get("sim_time_s", 0.0)
    out["core.adaptation.ticks"] = float(calls_of("adapt.sample"))
    out["core.adaptation.tick_us"] = per_call("adapt.sample")
    out["core.adaptation.final_k"] = layer.get("final_k", 0.0)
    out["streams.sketch_update_us_per_item"] = total_us("sketch.update") / items
    out["streams.summary_bytes_to_center"] = layer.get("summary_bytes", 0.0)

    stages: Dict[str, set] = {}
    for r in rows:
        if r[1].startswith("on_item:"):
            stage = r[1][len("on_item:"):]
            stages.setdefault(_role(stage), set()).add(stage)
    for role, members in stages.items():
        on_items = {f"on_item:{s}" for s in members}
        busy_us = sum(r[4] for r in rows if r[1] in on_items) / 1e3
        share = f"stage.{role}.on_item_share"
        if share in out and traced.window_s > 0:
            out[share] = busy_us / 1e6 / traced.window_s / len(members)
        emits = [r for r in rows if r[1] == "emit" and r[2] in on_items]
        emit = f"stage.{role}.emit_us"
        if emit in out and emits:
            out[emit] = sum(r[4] for r in emits) / 1e3 / sum(r[3] for r in emits)

    if layer.get("frames"):
        hops = 2 * ref.delivered  # coordinator -> relay -> sink
        out["net.protocol.items_per_frame"] = hops / layer["frames"]
        out["net.protocol.bytes_per_item"] = layer["bytes"] / ref.delivered
        out["net.channels.credit_stalls_per_kitem"] = (
            layer["credit_stalls"] / ref.delivered * 1000.0
        )
        out["net.channels.credit_wait_share"] = (
            layer["credit_wait_s"] / layer["channels"] / ref.window_s
        )
        out["net.channels.in_flight_peak"] = layer["in_flight_peak"]
    traced_frames = traced.layer.get("frames", 0.0)
    if traced_frames:
        out["net.protocol.encode_us_per_frame"] = self_us("proto.encode") / traced_frames
        out["net.protocol.decode_us_per_frame"] = self_us("proto.decode") / traced_frames
    out["net.channels.send_us_per_call"] = per_call("chan.send")
    if layer.get("batches"):
        out["core.batching.mean_flush_size"] = layer["batched_items"] / layer["batches"]
        out["core.batching.age_flush_share"] = layer["age_flushes"] / layer["batches"]
    for role in ("relay", "sink"):
        out[f"core.runtime_threads.queue_mean.{role}"] = layer.get(f"queue_mean.{role}", 0.0)
    out["core.sharding.skew"] = layer.get("shard_skew", 0.0)
    out["obs.counter_incs_per_item"] = calls_of("obs.inc") / items
    out["obs.registry_us_per_item"] = total_us("obs.inc") / items

    for proc, entry in traced.procs.items():
        covered_us = sum(
            r[5] for r in rows if r[0] == proc and r[1] != "grid.launch"
        ) / 1e3
        key = f"proc.{proc}.unattributed_us_per_item"
        if key in out:
            out[key] = (entry["cpu_s"] * 1e6 - covered_us) / items
    out["source.lag_p99_ms"] = layer.get("source_lag_p99_ms", 0.0)
    if ref.items_per_s > 0:
        out["trace.overhead"] = 1.0 - traced.items_per_s / ref.items_per_s
    return out


def _write_record(name: str, record: Dict[str, Any], spans: List[List[Any]]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}.json"), "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    if spans:
        path = os.path.join(OUT_DIR, f"{name}.spans.jsonl")
        with open(path, "w", encoding="utf-8") as out:
            for span in spans:
                out.write(json.dumps(span) + "\n")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare_paths():
        return 2
    # On SIGTERM unwind normally, so the runtimes stop and reap their workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    host = host_fingerprint()
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            workload.warmup()
            _, items = workload.plan(args.seconds)
            ref = fresh_round(workload, items)
            traced = fresh_round(workload, items, traced=True)
            rounds = [ref, traced]
            metrics = per_layer(ref, traced)
            units = dict(PER_LAYER)
        else:
            rounds, setups = measure(workload, args.seconds)
            metrics = end_to_end(rounds, setups)
            units = dict(END_TO_END)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    repeats = len({r.fingerprint for r in rounds}) <= 1
    correct = failed == 0 and attempted > 0 and repeats
    width = max(len(name) for name in units)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {units[name]}")
    if not args.trace:
        slices = [s for r in rounds for s in r.slices]
        print(f"  {'latency_p99_ms':<{width}}  {_median([s[1] for s in slices]):.6g} ms "
              "(not gated: too unsteady on a shared host)")
        print(f"  {'latency_samples':<{width}}  {[r.delivered for r in rounds]} per round, "
              f"{len(slices)} slices")
    print(f"  {'failed_ratio':<{width}}  {failed / max(1, attempted):.6g} fraction "
          f"({failed} of {attempted} attempted)")
    if not repeats:
        print("  sim rounds of one seed disagree: " + str([r.fingerprint for r in rounds]))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(result, host=host, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  rounds=[{k: v for k, v in vars(r).items() if k not in ("procs", "spans")}
                          for r in rounds])
    _write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}", record,
                  [s for r in rounds for s in r.spans])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
