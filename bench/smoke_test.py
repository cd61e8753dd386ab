#!/usr/bin/env python3
"""Smoke-run one bench binary and check its results JSON.

  bench/smoke_test.py BENCH                a tiny run whose --json document
                                           must be one object with "bench"
                                           and "schema_version"
  bench/smoke_test.py --unwritable BENCH [FLAG]
                                           FLAG /dev/full (default --json)
                                           must exit 2

Registered as a ctest per bench by exs_add_bench (bench/CMakeLists.txt).
"""

import json
import os
import subprocess
import sys
import tempfile

SMOKE_ARGS = ["--quick", "--runs", "1", "--messages", "40"]


def run(bench, path, flag="--json"):
    return subprocess.run([bench, *SMOKE_ARGS, flag, path],
                          stdout=subprocess.DEVNULL).returncode


def main(argv):
    if argv[0] == "--unwritable":
        flag = argv[2] if len(argv) > 2 else "--json"
        rc = run(argv[1], "/dev/full", flag)
        if rc != 2:
            print(f"{flag} /dev/full exited {rc}, expected 2")
            return 1
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.json")
        rc = run(argv[0], path)
        if rc != 0:
            print(f"bench exited {rc}")
            return 1
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"no readable results JSON: {e}")
            return 1
    if not isinstance(doc, dict) or not {"bench", "schema_version"} <= doc.keys():
        print("results JSON is not an object with bench and schema_version")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
