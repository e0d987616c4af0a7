#!/usr/bin/env python3
"""Build the clbench harness from this checkout and run one workload.

Usage, from the root of a checkout:

    python3 clbench/run.py --workload synth_cold --seed 1 --seconds 10 --trace 0

The harness and the clgen-serve daemon it drives are built with CMake into
$CARGO_TARGET_DIR/clbench (default .bench_build/clbench). The harness prints
what it measured; this script passes its report through and ends with one
JSON line holding correct, attempted, failed and the metrics BENCHMARK.json
names: the end_to_end ones with --trace 0, the per_layer ones with --trace 1.
It exits non-zero, printing no result, when the sources or the build are
missing or the harness fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170


def fail(msg):
    print(f"clbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("src/clgen/Pipeline.h", "examples/serve_tool.cpp",
                   "tests/golden/experiment_table1.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "clbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    # Relative paths keep the daemon's socket path short.
    work = os.path.relpath(os.path.join(target, f"work-{os.getpid()}"))
    traces = os.path.join(target, "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "clbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--work", work,
           "--serve-bin", os.path.join(build_dir, "clgen-serve"),
           "--reference", os.path.join(HERE, "reference.txt"),
           "--trace-out",
           os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    # Its own session, so the daemons it starts can be stopped with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"harness did not finish within {DEADLINE_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    # Let any daemon killed above finish exiting before removing its
    # store.
    time.sleep(0.05)
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"harness exited with status {proc.returncode}")

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    wrong = [n for n, unit in wanted.items()
             if result["metrics"].get(n, {}).get("unit") != unit]
    if wrong:
        fail(f"harness did not measure {', '.join(wrong)} in the declared unit")
    result["metrics"] = {n: result["metrics"][n] for n in wanted}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
