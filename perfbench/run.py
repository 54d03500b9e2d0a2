#!/usr/bin/env python3
"""Runs one workload of the streammpc end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <t> \
        --trace <0|1>

Run from the repository root.  The first call builds perfbench/ (which
compiles the library from src/) into $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild incrementally.  The workload runs in its
own process, so its peak RSS and thread pools are its own.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports BENCHMARK.json's end_to_end metrics.
--trace 1 runs the workload untraced and then traced (two processes) and
reports the per_layer metrics, with trace.overhead_ratio = traced / untraced
updates_per_s; the check fails if the two runs report different counts.
The traced run's spans go to <build dir>/trace-<workload>-<seed>.jsonl.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_ENV = ("SMPC_SHARDS", "SMPC_SCHED", "SMPC_GROW", "SMPC_SIM_THREADS",
              "SMPC_GUTTER_THREADS")
DEADLINE_S = 170  # the whole call, build excluded


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    out.mkdir(parents=True, exist_ok=True)
    binary = out / "perfbench" / "perfbench"
    with open(out / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "perfbench" / "Makefile").exists():
            steps.append(["cmake", "-S", str(HERE), "-B",
                          str(out / "perfbench"), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out / "perfbench"), "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode:
                fail("build failed: " + " ".join(cmd))
    return binary


def run_binary(binary, args, trace, deadline, trace_out=None):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the traced run")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {DEADLINE_S} s")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def select(result, declared):
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def count_mismatches(a, b):
    """Names of counts that differ between two runs of one stream."""
    bad = [n for n in a["counts"]
           if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
    if a["env"]["stream_digest"] != b["env"]["stream_digest"]:
        bad.append("stream_digest")
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    pinned = [k for k in PINNED_ENV if k in os.environ]
    if pinned:
        fail("refusing to run with " + ", ".join(pinned) + " set", 2)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found", 2)
    spec = json.loads(spec_path.read_text())

    binary = build(build_dir())
    deadline = time.monotonic() + DEADLINE_S
    base = run_binary(binary, args, False, deadline)
    correct = bool(base["correct"])
    attempted, failed = int(base["attempted"]), int(base["failed"])
    if not args.trace:
        metrics = select(base, spec["end_to_end"])
    else:
        trace_out = build_dir() / f"trace-{args.workload}-{args.seed}.jsonl"
        traced = run_binary(binary, args, True, deadline, trace_out)
        correct = correct and bool(traced["correct"])
        attempted += int(traced["attempted"])
        failed += int(traced["failed"])
        bad = count_mismatches(base, traced)
        if bad:
            print("traced and untraced counts differ: " + ", ".join(bad),
                  file=sys.stderr)
            correct = False
        plain = base["metrics"]["updates_per_s"]["value"]
        traced["metrics"]["trace.overhead_ratio"] = {
            "value": traced["metrics"]["updates_per_s"]["value"] / plain
            if plain else 0.0,
            "unit": "ratio"}
        metrics = select(traced, spec["per_layer"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
