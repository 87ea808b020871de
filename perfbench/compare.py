"""Compare two sets of benchmark records, refusing to compare across hosts.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
``run.py`` writes to ``.perfbench/`` (copy them aside between commits).
For every workload and end-to-end metric it prints the median of each
set and the change, and marks a change worse than the metric's bound in
``BENCHMARK.json``.  Exit status: 0 no regression, 1 regression, 2 the
records come from different hosts or cannot be compared.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> Tuple[List[Dict[str, Any]], Dict[str, Dict[str, List[float]]]]:
    """Host fingerprints and ``{workload: {metric: [values]}}`` of untraced records."""
    hosts, values = [], {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as record_file:
            record = json.load(record_file)
        hosts.append(record["host"])
        per_metric = values.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return hosts, values


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = {m["name"]: m for m in json.load(spec_file)["end_to_end"]}
    (old_hosts, old), (new_hosts, new) = load(argv[0]), load(argv[1])
    hosts = {json.dumps(h, sort_keys=True) for h in old_hosts + new_hosts}
    if not old_hosts or not new_hosts:
        print("compare: no *-trace0.json records in one of the sets", file=sys.stderr)
        return 2
    if len(hosts) != 1:
        print("compare: records come from different hosts; re-measure both sets on one "
              "host:\n  " + "\n  ".join(sorted(hosts)), file=sys.stderr)
        return 2
    regressed = False
    for workload in sorted(set(old) & set(new)):
        print(workload)
        for name, metric in spec.items():
            if name not in old[workload] or name not in new[workload]:
                continue
            before = statistics.median(old[workload][name])
            after = statistics.median(new[workload][name])
            change = (after - before) / before if before else 0.0
            worse = -change if metric["better"] == "higher" else change
            flag = ""
            if worse > metric["bound"]:
                flag, regressed = "  REGRESSION", True
            print(f"  {name:16s} {before:12.6g} -> {after:12.6g} {metric['unit']:9s}"
                  f" {change:+8.1%} (bound {metric['bound']:.0%}){flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
