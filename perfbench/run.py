#!/usr/bin/env python3
"""Serving benchmark for bfdn-serve.

Builds the daemon (release) and the benchmark harness from source, then
runs one workload and forwards the harness's result line:

    python3 perfbench/run.py --workload warm-rtt --seed 1 --seconds 36 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is the
harness's: 0 when every reply passed its check.

    python3 perfbench/run.py --smoke

runs every workload at a tiny size, traced and untraced, and checks that
each metric named in BENCHMARK.json is emitted with its unit.

Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root); the harness's scratch stores live beneath it.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm-rtt", "cold-compute", "store-tier"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(target):
    """Builds bfdn-serve from the repository's workspace and the harness
    from its own package; returns their paths, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "bfdn-service", "--bin", "bfdn-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        except OSError as e:
            log(f"cannot run cargo: {e}")
            return None
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return None
    release = os.path.join(target, "release")
    return os.path.join(release, "bfdn-serve"), os.path.join(release, "perfbench")


def run_harness(harness, serve, target, workload, seed, seconds, trace, smoke=False, capture=False):
    """Runs one workload in its own process group, so a timeout takes the
    harness and any daemon it started down together."""
    cmd = [harness, "--serve", serve, "--work-dir", os.path.join(target, "perfbench-work"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, ""
    finally:
        # Reap anything left in the group (a daemon whose harness died).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, (out or b"").decode()


def smoke(harness, serve, target):
    """Every workload, untraced and traced, at a tiny size: each metric of
    BENCHMARK.json must come out with its unit and a finite value."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS, "workload list drifted"
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_harness(harness, serve, target, workload, 7, 2, trace, smoke=True, capture=True)
            where = f"{workload} --trace {trace}"
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: not correct ({result['failed']} of {result['attempted']} failed)")
            got = result["metrics"]
            names = {m["name"] for m in wanted[trace]}
            if set(got) != names:
                problems.append(f"{where}: missing {sorted(names - set(got))}, extra {sorted(set(got) - names)}")
            for m in wanted[trace]:
                g = got.get(m["name"])
                if g is None:
                    continue
                if g["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} in {g['unit']}, expected {m['unit']}")
                if not isinstance(g["value"], (int, float)) or not math.isfinite(g["value"]):
                    problems.append(f"{where}: {m['name']} = {g['value']}")
            log(f"smoke {where}: {len(got)} metrics")
    for p in problems:
        log(f"smoke FAILED: {p}")
    if not problems:
        log("smoke passed")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny run of every workload; checks the metric list")
    args = p.parse_args()
    if not args.smoke and not args.workload:
        p.error("--workload is required (or --smoke)")
    target = target_dir()
    built = build(target)
    if built is None:
        return 1
    serve, harness = built
    if args.smoke:
        return smoke(harness, serve, target)
    code, _ = run_harness(harness, serve, target, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
