"""Compare two result sets of the benchmark, metric by metric.

    python3 benchmarks/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that `run.py --out FILE` appended (untraced runs
only are compared). Runs are paired in file order per workload, so run the
two sides alternately: base, new, new, base, ...

For every workload and end-to-end metric the table gives each side's median
and quartiles, the pairs the new side won out of the pairs run (ties count
for neither), and a verdict:

* improved   -- at least ten pairs, the new side wins at least nine tenths
  of them, and the medians differ by more than the base side's quartile
  distance;
* worse      -- the new median is worse than the base median by more than
  the metric's bound from BENCHMARK.json;
* unresolved -- the spread of either side (quartile distance over median)
  is wider than the bound and not every new run beats every base run;
* no worse   -- otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    """Metric values per workload, in file order: {workload: [metrics, ...]}."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"] == 0:
                metrics = record["result"]["metrics"]
                runs[record["workload"]].append({k: v["value"] for k, v in metrics.items()})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs won by new, pairs run) under the rule in the docstring."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    b1, b2, b3 = quartiles(base)
    n1, n2, n3 = quartiles(new)
    gain = sign * (n2 - b2)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > b3 - b1:
        return "improved", wins, len(pairs)
    spread = max((b3 - b1) / abs(b2) if b2 else 0.0, (n3 - n1) / abs(n2) if n2 else 0.0)
    all_better = all(sign * (n - b) > 0 for b in base for n in new)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(b2):
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text())
    base, new = load(args.base), load(args.new)
    worse = False
    header = (f"{'workload':<8} {'metric':<12} {'unit':<5} {'base q1/med/q3':>32} "
              f"{'new q1/med/q3':>32} {'won':>7}  verdict")
    print(header)
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r[name] for r in base[workload] if name in r]
            n = [r[name] for r in new[workload] if name in r]
            if not b or not n:
                continue
            result, wins, pairs = verdict(b, n, metric["better"], metric["bound"])
            worse |= result == "worse"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{workload:<8} {name:<12} {metric['unit']:<5} {fmt(quartiles(b)):>32} "
                  f"{fmt(quartiles(n)):>32} {wins:>3}/{pairs:<3}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
