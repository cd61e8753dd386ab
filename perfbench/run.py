#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload kv_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first call configures and builds the
library and the benchmark driver with CMake under the build directory
($CARGO_TARGET_DIR if set, else .bench_build); later calls rebuild only
what changed.  Build output goes to standard error.  Standard output ends
with the driver's one-line JSON result.

Beyond the driver's own checks, this script keeps the simulated-metric
fingerprint of every (binary, workload, seed, size) it has run and fails
the run if the same binary and seed ever produce a different one.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    def step(cmd):
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", out, "-j", "4"])
    binary = os.path.join(out, "perfbench")
    if not os.path.exists(binary):
        fail("build produced no perfbench binary")
    return binary


def option(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def check_fingerprint(out, binary, args, stdout):
    """Same binary + same seed must give the same simulated results."""
    lines = [l for l in stdout.splitlines() if l.startswith("sim_fingerprint ")]
    if not lines:
        return
    with open(binary, "rb") as f:
        binary_hash = hashlib.sha256(f.read()).hexdigest()[:16]
    key = "/".join([binary_hash, option(args, "--workload", ""),
                    option(args, "--seed", "1"), option(args, "--size", "full")])
    path = os.path.join(out, "fingerprints.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    fingerprint = lines[-1].split()[1]
    if seen.setdefault(key, fingerprint) != fingerprint:
        print(stdout, end="")
        fail(f"sim fingerprint {fingerprint} differs from {seen[key]} "
             f"recorded by an earlier run of the same binary and seed")
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)


def main():
    args = sys.argv[1:]
    out = build_dir()
    binary = build(out)
    if option(args, "--trace", "0") == "1" and "--trace-out" not in args:
        workload = option(args, "--workload", "run")
        args += ["--trace-out", os.path.join(out, f"trace-{workload}.csv")]
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode == 0:
        check_fingerprint(out, binary, args, proc.stdout)
    print(proc.stdout, end="")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
