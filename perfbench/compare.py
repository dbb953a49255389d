"""Compare two sets of benchmark runs.

    python3 perfbench/run.py --workload gold-build --seed 1 >> before.log   # repeat per seed
    python3 perfbench/compare.py before.log after.log

Each file holds the stdout of one or more runs of ``run.py``. For every
workload and metric found in both, prints the median and quartile spread of
each side and the relative change; end-to-end metrics that worsen by more
than their bound in ``BENCHMARK.json`` are marked. Runs made with different
kernel backends are not comparable: the script refuses them and exits 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line)["record"] for line in fh if line.startswith('{"record"')]


def by_metric(recs: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for r in recs:
        for name, value in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(value)
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = records(argv[0]), records(argv[1])
    backends = {r["backend"] for r in before + after}
    if len(backends) != 1:
        print(f"refusing to compare runs from different kernel backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    a, b = by_metric(before), by_metric(after)
    print(f"backend {backends.pop()}")
    print(f"{'workload':<18} {'metric':<42} {'before':>12} {'after':>12} {'change':>8} "
          f"{'spread':>8}")
    for key in sorted(a.keys() & b.keys()):
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = mb / ma - 1 if ma else 0.0
        bound = bounds.get(key[1])
        worse = bound is not None and (change if bound["better"] == "lower" else -change) > bound["bound"]
        print(f"{key[0]:<18} {key[1]:<42} {ma:>12.6g} {mb:>12.6g} {change:>+8.1%} "
              f"{spread(a[key]):>8.1%}{'  worse than bound' if worse else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
