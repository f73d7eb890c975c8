#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR when
it is set, else .bench_build/; scratch files of the run go under the
build directory and are removed when the run ends. The last line of
standard output is the result object (see README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("olap_hot", "ingest_mixed", "flash_crowd")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr, never stdout."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("step failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target",
               "perfbench", "perfbench_counting", "perfbench_selftest"])
    run_quiet([os.path.join(build_dir, "perfbench_selftest")])


def check_catalogue(result, trace):
    """The printed metric names must be the ones BENCHMARK.json lists."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(result["metrics"].keys())
    if sorted(want) != sorted(got):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(want) - set(got)), sorted(set(got) - set(want))))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR")
        or os.path.join(ROOT, ".bench_build"))
    build(build_dir)

    binary = "perfbench_counting" if args.trace == "1" else "perfbench"
    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--workdir", workdir]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.decode(errors="replace")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("perfbench exited with %d" % proc.returncode)
    check_catalogue(json.loads(lines[-1]), args.trace == "1")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
