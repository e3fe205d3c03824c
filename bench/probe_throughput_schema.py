#!/usr/bin/env python3
"""Distill bench_micro's probe-throughput run into the stable BENCH schema.

Reads one or more raw google-benchmark JSON files (bench_micro
--benchmark_out=...), taking each benchmark's median over all of its
repetitions in all the files (the single run when there is one), and writes
BENCH_micro_probe.json in the same {experiment, metrics, checks, all_pass}
shape every other BENCH_*.json artifact uses, under STABLE metric
names -- `probe_trials/<Case>/<path>_trials_per_sec` and
`speedup/<series>/<Case>` -- so the per-commit artifacts are
machine-comparable PR-over-PR instead of raw benchmark dumps.

Benchmarks pair up by suffix:
  BM_ProbeTrials_Generic_X / BM_ProbeTrials_Hot_X  -> speedup/hot_vs_generic/X
  BM_ProbeTrials_Hot_X     / BM_ProbeTrials_Batch_X -> speedup/batch_vs_hot/X
  BM_ProbeTrials_Batch_X   / BM_ProbeTrials_Simd_X  -> speedup/simd_vs_batch/X
  BM_ProbeTrials_Hot_X     / BM_ProbeTrials_RandBatch_X
                           -> speedup/randomized_batch_vs_hot/X
  BM_EstimatePpcGenericLambda / BM_EstimatePpcHotPath / BM_EstimatePpcBitSliced
                           -> the engine end-to-end series
The Batch tier pins the single-word table (W = 1) so simd_vs_batch isolates
the lane-width gain; Simd and RandBatch run the production W = 4 table.
Pairs whose gain is small next to host noise (DetCw55 and DetTree63: one-
and two-word universes leave W = 4 little to win) get a second raw file of
extra interleaved repetitions, which pool with the first run's.
Every speedup is gated > 1 (a path that stops beating its baseline fails
the job); the exit code doubles as the CI gate.
"""
import json
import statistics
import sys


def load_rates(paths):
    """items_per_second per benchmark: the median over every repetition of
    it in `paths` (the aggregates google-benchmark appends are skipped)."""
    samples = {}
    for path in paths:
        with open(path) as f:
            raw = json.load(f)
        for b in raw["benchmarks"]:
            if "items_per_second" not in b or b.get("run_type") == "aggregate":
                continue
            name = b.get("run_name", b["name"])
            samples.setdefault(name, []).append(b["items_per_second"])
    return {name: statistics.median(values)
            for name, values in samples.items()}

GENERIC, HOT, BATCH = "_Generic_", "_Hot_", "_Batch_"
SIMD, RANDBATCH = "_Simd_", "_RandBatch_"


def main() -> int:
    if len(sys.argv) < 3:
        print(f"usage: {sys.argv[0]} RAW_BENCHMARK_JSON [RAW_BENCHMARK_JSON...]"
              " OUT_SCHEMA_JSON")
        return 2
    raw_paths, out_path = sys.argv[1:-1], sys.argv[-1]
    rate = load_rates(raw_paths)

    metrics, checks = {}, {}

    def case_of(name, tag):
        return name.split(tag, 1)[1]

    def record(case, path, value):
        metrics[f"probe_trials/{case}/{path}_trials_per_sec"] = value

    def gate(series, case, numerator, denominator):
        speedup = numerator / denominator
        metrics[f"speedup/{series}/{case}"] = speedup
        checks[f"{series}/{case}"] = speedup > 1.0
        print(f"{series}/{case}: {speedup:.2f}x "
              f"({denominator:.0f} -> {numerator:.0f} trials/sec)")
        return speedup

    for name in sorted(rate):
        if GENERIC in name:
            record(case_of(name, GENERIC), "generic", rate[name])
        elif HOT in name:
            record(case_of(name, HOT), "hot", rate[name])
        elif BATCH in name:
            record(case_of(name, BATCH), "batch", rate[name])
        elif SIMD in name:
            record(case_of(name, SIMD), "simd", rate[name])
        elif RANDBATCH in name:
            record(case_of(name, RANDBATCH), "randomized_batch", rate[name])

    # Pairing is strict: a Generic benchmark without its Hot counterpart, a
    # Batch one without its Hot baseline, a Simd one without its W = 1
    # Batch twin, or a RandBatch one without its scalar Hot baseline, is a
    # broken suite and must fail the job (KeyError), not silently drop the
    # gate.
    for name in sorted(rate):
        if GENERIC in name:
            case = case_of(name, GENERIC)
            gate("hot_vs_generic", case, rate[name.replace(GENERIC, HOT)],
                 rate[name])
        elif BATCH in name:
            case = case_of(name, BATCH)
            gate("batch_vs_hot", case, rate[name],
                 rate[name.replace(BATCH, HOT)])
        elif SIMD in name:
            case = case_of(name, SIMD)
            gate("simd_vs_batch", case, rate[name],
                 rate[name.replace(SIMD, BATCH)])
        elif RANDBATCH in name:
            case = case_of(name, RANDBATCH)
            gate("randomized_batch_vs_hot", case, rate[name],
                 rate[name.replace(RANDBATCH, HOT)])

    # Engine end-to-end (estimate_ppc on Maj63): generic lambda vs. the
    # engine's scalar loop (both validating witnesses) vs. the bit-sliced
    # kernel, which runs whenever validation is off.
    metrics["engine/estimate_ppc/generic_trials_per_sec"] = \
        rate["BM_EstimatePpcGenericLambda"]
    metrics["engine/estimate_ppc/hot_trials_per_sec"] = \
        rate["BM_EstimatePpcHotPath"]
    metrics["engine/estimate_ppc/bitsliced_trials_per_sec"] = \
        rate["BM_EstimatePpcBitSliced"]
    gate("engine_hot_vs_generic", "EstimatePpc",
         rate["BM_EstimatePpcHotPath"], rate["BM_EstimatePpcGenericLambda"])
    gate("engine_batch_vs_hot", "EstimatePpc",
         rate["BM_EstimatePpcBitSliced"], rate["BM_EstimatePpcHotPath"])

    report = {
        "experiment": "micro_probe",
        "metrics": metrics,
        "checks": checks,
        "all_pass": all(checks.values()),
    }
    with open(out_path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    failures = sorted(name for name, ok in checks.items() if not ok)
    if failures:
        print(f"speedup gates failed: {failures}")
        return 1
    print(f"all {len(checks)} speedup gates passed; schema -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
