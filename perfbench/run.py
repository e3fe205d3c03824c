#!/usr/bin/env python3
"""The repository benchmark: builds qps_perfbench from this checkout and
runs one workload.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --compare BASE_ROW.json NEW_ROW.json

Run it from the root of a checkout.  The program (perfbench/src, linked
against libqps from src/) is configured and built into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use;
later runs rebuild incrementally.  Build output goes to stderr; the last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"}: every end-to-end metric of BENCHMARK.json with --trace 0,
every per-layer metric with --trace 1.

A traced run also writes its ledger row -- per-layer metrics plus CPU
model, SIMD ISA, lane width, nproc and commit -- to
perfbench/ledger/latest/WORKLOAD.json, unless its stage replay failed to
reproduce the engine bit for bit (engine.decomp_match = 0).  --compare
diffs two rows: end-to-end metrics against their BENCHMARK.json bounds,
per-layer metrics against a 10% threshold, and exits 1 on a regression.

perfbench/README.md documents the workloads and every metric.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_grid", "mc_half", "exact_dp", "sweep_sharded")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
LAYER_THRESHOLD = 0.10


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no qps source tree at {ROOT / 'src'}", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the build tree too.
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited {done.returncode}")
    return out_dir / "qps_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def read_commit():
    """The checkout's commit from .git, without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args):
    exe = build(build_dir())
    work_dir = build_dir() / "work"
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"qps_perfbench exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("qps_perfbench printed no result")
    result = json.loads(lines[-1])
    context = {}
    for line in lines[:-1]:
        if line.startswith("perfbench-context "):
            context = json.loads(line[len("perfbench-context "):])
    expected = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(expected):
        fail("metric set differs from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(expected))}")
    if args.trace:
        write_ledger_row(args, result, context)
    print(json.dumps(result))


def write_ledger_row(args, result, context):
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if metrics.get("engine.decomp_match", 1) != 1:
        print("perfbench: stage replay does not match the engine; ledger row "
              "withheld", file=sys.stderr)
        return
    row = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": read_commit(),
        "cpu_model": context.get("cpu_model", "unknown"),
        "simd_isa": context.get("simd_isa", "unknown"),
        "lane_width": context.get("lane_width", 0),
        "nproc": context.get("nproc", 0),
        "threads": context.get("threads", 0),
        "metrics": metrics,
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
    }
    path = HERE / "ledger" / "latest" / f"{args.workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(row, indent=1, sort_keys=True) + "\n")
    print(f"perfbench: ledger row written to {path.relative_to(ROOT)}",
          file=sys.stderr)


def compare(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        rules[m["name"]] = (m["better"], LAYER_THRESHOLD)
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    print(f"base {base.get('workload')} @ {base.get('commit')} "
          f"({base.get('cpu_model')}, {base.get('simd_isa')} W={base.get('lane_width')})")
    print(f"new  {new.get('workload')} @ {new.get('commit')} "
          f"({new.get('cpu_model')}, {new.get('simd_isa')} W={new.get('lane_width')})")
    regressions = 0
    for name in sorted(set(base["metrics"]) & set(new["metrics"])):
        old, now = base["metrics"][name], new["metrics"][name]
        better, bound = rules.get(name, ("lower", LAYER_THRESHOLD))
        if old == 0:
            verdict, change = ("same" if now == 0 else "n/a"), 0.0
        else:
            change = (now - old) / abs(old)
            worse = change > bound if better == "lower" else -change > bound
            verdict = "REGRESSION" if worse else "ok"
            regressions += worse
        print(f"{name:40s} {old:16.6g} {now:16.6g} {change:+8.1%}  {verdict}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.workload is None:
        parser.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
