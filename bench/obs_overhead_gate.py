#!/usr/bin/env python3
"""Gate the observability layer's hot-path cost at <= 2% of throughput.

Usage: obs_overhead_gate.py OBS_ON_BENCH_MICRO OBS_OFF_BENCH_MICRO
                            [--max-loss 0.02]

Both arguments are bench_micro executables built from the same commit:
OBS_ON_BENCH_MICRO from the default build (metrics, trace and fault points
compiled in), OBS_OFF_BENCH_MICRO from a tree configured with
-DQPS_OBS_METRICS=OFF -DQPS_OBS_TRACE=OFF -DQPS_FAULT=OFF.  The gate runs
the engine end-to-end series (--benchmark_filter=EstimatePpc, the full
instrumented estimator) for ROUNDS rounds, alternating the two builds --
on, off, on, off, ... -- so both sides of every round see the same host
load.  Each benchmark's on/off items_per_second ratio is taken per round,
and the gate reads the median of those per-round ratios: each must keep at
least (1 - max_loss) of the uninstrumented build's trials/sec.  Dividing
the medians of two runs taken minutes apart instead lets host drift
(15-40% over minutes on a shared runner) decide the gate.

Exit code doubles as the CI gate: 0 within budget, 1 over or a failed run,
2 usage.
"""
import json
import statistics
import subprocess
import sys

GATED_FILTER = "EstimatePpc"
ROUNDS = 7


def run_rates(binary):
    """items_per_second per benchmark from one bench_micro run."""
    out = subprocess.run(
        [binary, f"--benchmark_filter={GATED_FILTER}",
         "--benchmark_format=json"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return {b["name"]: b["items_per_second"]
            for b in json.loads(out)["benchmarks"]
            if "items_per_second" in b}


def main() -> int:
    args = sys.argv[1:]
    max_loss = 0.02
    if len(args) >= 2 and args[-2] == "--max-loss":
        max_loss = float(args[-1])
        args = args[:-2]
    if len(args) != 2:
        print(f"usage: {sys.argv[0]} OBS_ON_BENCH_MICRO OBS_OFF_BENCH_MICRO "
              f"[--max-loss FRACTION]")
        return 2
    on_binary, off_binary = args

    ratios = {}
    for round_index in range(ROUNDS):
        try:
            on = run_rates(on_binary)
            off = run_rates(off_binary)
        except (OSError, subprocess.CalledProcessError, ValueError) as e:
            print(f"obs_overhead_gate: round {round_index + 1} failed: {e}")
            return 1
        for name in sorted(set(on) & set(off)):
            ratios.setdefault(name, []).append(on[name] / off[name])
        print(f"round {round_index + 1}/{ROUNDS}: " + ", ".join(
            f"{name} {ratios[name][-1]:.4f}" for name in sorted(ratios)))

    complete = {name: r for name, r in ratios.items() if len(r) == ROUNDS}
    if not complete:
        print(f"obs_overhead_gate: no '{GATED_FILTER}' benchmark reported by "
              f"both builds in every round -- nothing to gate, failing")
        return 1

    failures = []
    for name, per_round in sorted(complete.items()):
        median = statistics.median(per_round)
        ok = median >= 1.0 - max_loss
        print(f"[GATE] {name}: median on/off ratio over {ROUNDS} rounds = "
              f"{median:.4f} (rounds {min(per_round):.4f}-"
              f"{max(per_round):.4f})"
              + ("" if ok else f"  (below {1.0 - max_loss:.2f})"))
        if not ok:
            failures.append(name)

    if failures:
        print(f"observability overhead above {max_loss:.0%}: {failures}")
        return 1
    print(f"observability overhead within {max_loss:.0%} on all gated "
          f"benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
