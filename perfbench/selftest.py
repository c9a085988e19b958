#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

For every workload, makes a 2-s run normally (must exit 0 with
correct=true and no failed op) and one with --self-test, which makes op
0's expected output deliberately wrong (must exit non-zero with
correct=false and at least one failed op). Then runs from a directory holding only
BENCHMARK.json and perfbench/, where the library sources are missing: the
build must fail and the run must exit non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pipeline", "spec", "serve", "embed"]
SECONDS = 2


def run(root, workload, seconds, extra):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", str(seconds),
           "--trace", "0"] + extra
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    return p.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    ok = True
    for w in WORKLOADS:
        rc, res = run(ROOT, w, SECONDS, [])
        good = rc == 0 and res and res["correct"] and res["failed"] == 0
        rc2, res2 = run(ROOT, w, SECONDS, ["--self-test"])
        caught = (rc2 != 0 and res2 and not res2["correct"]
                  and res2["failed"] >= 1)
        print(f"{w:9s} normal run: {'pass' if good else 'FAIL'} (exit {rc}); "
              f"wrong expectation: {'caught' if caught else 'MISSED'} "
              f"(exit {rc2}, failed {res2 and res2['failed']})")
        ok = ok and good and caught

    # The bare tree lives under the (ignored) build directory.
    bare = os.path.join(ROOT, ".bench_build", "bare-tree")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env_dir = os.environ.pop("CARGO_TARGET_DIR", None)
    rc, res = run(bare, "embed", 1, [])
    if env_dir is not None:
        os.environ["CARGO_TARGET_DIR"] = env_dir
    shutil.rmtree(bare, ignore_errors=True)
    bare_ok = rc != 0 and res is None
    print(f"bare tree: {'refused' if bare_ok else 'NOT REFUSED'} (exit {rc})")
    ok = ok and bare_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
