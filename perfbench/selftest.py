"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` names exactly the metrics and units ``run.py`` prints;
* every workload emits every end-to-end metric, non-zero and finite, with
  ``failed == 0``, and every per-layer metric in a traced round;
* ``sim-countsamps`` repeats ``accuracy`` and ``sim_time_s`` exactly for a
  seed, within one process and across two workload objects;
* a sink that loses one item makes ``failed`` non-zero on the networked
  and threaded workloads, so the correctness checks have teeth.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Nominal seconds of one tiny round, and items per source of the tiny sim.
TINY_SECONDS = 0.3
TINY_ITEMS = 1500


def main() -> int:
    sys.path.insert(0, ROOT)
    from perfbench import run

    if not run.prepare_paths():
        return 2
    from perfbench.workloads import (
        PACED_RATE,
        NetPipeline,
        SimCountSamps,
        ThreadedKeyed,
    )

    problems = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(declared == dict(table), f"BENCHMARK.json {key} matches run.py")

    workloads = {
        "sim-countsamps": SimCountSamps(7, items=TINY_ITEMS),
        "net-saturate": NetPipeline(7, "net-saturate", batched=True, rate=None),
        "net-paced": NetPipeline(7, "net-paced", batched=False, rate=PACED_RATE),
        "threaded-keyed": ThreadedKeyed(7),
    }
    for name, workload in workloads.items():
        _, items = workload.plan(TINY_SECONDS)
        rounds = [workload.round(items)]
        setups = [workload.round(0).setup_s, rounds[0].setup_s]
        metrics = run.end_to_end(rounds, setups)
        check(set(metrics) == {n for n, _ in run.END_TO_END},
              f"{name}: every end-to-end metric emitted")
        bad = [k for k, v in metrics.items() if not (math.isfinite(v) and v > 0)]
        check(not bad, f"{name}: end-to-end metrics finite and non-zero {bad or ''}")
        check(rounds[0].attempted > 0 and rounds[0].failed == 0,
              f"{name}: failed == 0 of {rounds[0].attempted} attempted")
        traced = workload.round(items, traced=True)
        layers = run.per_layer(rounds[0], traced)
        check(set(layers) == {n for n, _ in run.PER_LAYER},
              f"{name}: every per-layer metric emitted")
        check(traced.failed == 0, f"{name}: traced round failed == 0")
        if name == "sim-countsamps":
            again = SimCountSamps(7, items=TINY_ITEMS).round(items)
            same = {rounds[0].fingerprint, traced.fingerprint, again.fingerprint}
            check(len(same) == 1, f"{name}: accuracy and sim_time_s repeat for a seed")
            check(layers["simnet.events_per_item"] > 0, f"{name}: kernel events traced")
        else:
            check(layers["stage.relay.on_item_share"] > 0, f"{name}: relay spans traced")

    lossy = NetPipeline(7, "net-saturate", batched=True, rate=None,
                        sink="py://perfbench.lossy:DroppingSink").round(1000)
    check(lossy.failed > 0, f"net: a lost item fails the check (failed={lossy.failed})")
    lossy = ThreadedKeyed(7, sink="py://perfbench.lossy:DroppingKeyedSink").round(1000)
    check(lossy.failed > 0, f"threaded: a lost item fails the check (failed={lossy.failed})")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
