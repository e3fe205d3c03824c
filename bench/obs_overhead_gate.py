#!/usr/bin/env python3
"""Gate the observability layer's hot-path cost at <= 2% of throughput.

Usage: obs_overhead_gate.py OBS_ON_JSON OBS_OFF_JSON [--max-loss 0.02]

Both inputs are raw google-benchmark JSON (bench_micro --benchmark_out=...)
from the same machine and commit, each benchmark read at its `median`
aggregate when the run used --benchmark_repetitions (the single run
otherwise): OBS_ON_JSON from the default build
(QPS_OBS_METRICS=1), OBS_OFF_JSON from a tree configured with
-DQPS_OBS_METRICS=OFF -DQPS_OBS_TRACE=OFF.  Every benchmark reporting
items_per_second in BOTH files is compared; the engine end-to-end series
(names containing "EstimatePpc") runs the full instrumented estimator, so
those are the gated ones -- each must keep at least (1 - max_loss) of the
uninstrumented build's trials/sec.  Other shared benchmarks are printed
for the record but not gated (they never touch the metrics registry, so a
delta there is machine noise, not observability cost).

Exit code doubles as the CI gate: 0 within budget, 1 over, 2 usage.
"""
import json
import sys

GATED_SUBSTRING = "EstimatePpc"


def load_rates(path):
    """items_per_second per benchmark: the median aggregate of a repeated
    run, else the single iteration run."""
    with open(path) as f:
        raw = json.load(f)
    rates = [b for b in raw["benchmarks"] if "items_per_second" in b]
    medians = {b["run_name"]: b["items_per_second"] for b in rates
               if b.get("aggregate_name") == "median"}
    if medians:
        return medians
    return {b["name"]: b["items_per_second"] for b in rates}


def main() -> int:
    args = sys.argv[1:]
    max_loss = 0.02
    if len(args) >= 2 and args[-2] == "--max-loss":
        max_loss = float(args[-1])
        args = args[:-2]
    if len(args) != 2:
        print(f"usage: {sys.argv[0]} OBS_ON_JSON OBS_OFF_JSON "
              f"[--max-loss FRACTION]")
        return 2

    on = load_rates(args[0])
    off = load_rates(args[1])
    shared = sorted(set(on) & set(off))
    if not any(GATED_SUBSTRING in name for name in shared):
        print(f"obs_overhead_gate: no '{GATED_SUBSTRING}' benchmark common "
              f"to both files -- nothing to gate, failing")
        return 1

    failures = []
    for name in shared:
        ratio = on[name] / off[name]
        gated = GATED_SUBSTRING in name
        ok = ratio >= 1.0 - max_loss
        marker = "GATE" if gated else "info"
        print(f"[{marker}] {name}: obs-on {on[name]:.0f} / obs-off "
              f"{off[name]:.0f} items/sec = {ratio:.4f}"
              + ("" if ok else f"  (below {1.0 - max_loss:.2f})"))
        if gated and not ok:
            failures.append(name)

    if failures:
        print(f"observability overhead above {max_loss:.0%}: {failures}")
        return 1
    print(f"observability overhead within {max_loss:.0%} on all gated "
          f"benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
