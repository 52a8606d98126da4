#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The program is built with CMake under
.bench_build/perfbench (the first run builds, later runs only rebuild what
changed). The last line of standard output is the program's JSON result;
see perfbench/README.md for the workloads and metrics.

--smoke runs every workload of BENCHMARK.json on tiny inputs, traced and
untraced, and checks that each run passes its output checks and prints
exactly the metrics BENCHMARK.json names, each with its unit.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD / "perfbench"
RUN_TIMEOUT_S = 170

# OpenMP team of each workload. The serving worker is a thread the program
# does not create, so its team size can only come from OMP_NUM_THREADS.
TEAM = {
    "gcn-proteins-t1": 1,
    "serve-mixed": 2,
}


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run(workload, seed, seconds, trace, smoke=False, capture=False):
    if workload not in TEAM:
        sys.exit(f"run.py: unknown workload {workload!r}")
    env = dict(os.environ, OMP_NUM_THREADS=str(TEAM[workload]))
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(PROGRAM), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-file", str(trace_dir / f"{workload}-seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None)


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, 1, 1, trace, smoke=True, capture=True)
            lines = proc.stdout.decode().strip().splitlines()
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: output check failed")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                units = sorted(n for n in set(got) & set(expected)
                               if got[n] != expected[n])
                problems.append(f"{label}: missing {missing}, extra {extra}, "
                                f"wrong unit {units}")
            print(f"smoke {label}: {len(got)} metrics", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        return run(args.workload, args.seed, args.seconds,
                   args.trace).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
