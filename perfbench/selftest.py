#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py [--seconds <t>] [--seed <n>]

For every workload the benchmark binary knows, checks that
  * the same seed twice gives identical counts and an identical stream;
  * a traced run gives the same counts as an untraced one;
  * a different seed gives a different stream;
and that serve-mixed gives the same writer-side counts with 0 and 2 readers.
Counts are the metrics the binary marks as pure functions of (workload,
seed, seconds): rounds_per_batch, comm_words_per_update,
memory_words_per_vertex, wrong_answer_ratio and every per-layer counter.
Exits non-zero when any check fails.
"""
import argparse
import json
import subprocess
import sys

from run import ROOT, build, build_dir, count_mismatches

WORKLOADS = ("insert-bulk", "delete-churn", "serve-mixed", "stream-seq")


def run(binary, workload, seed, seconds, trace=False, readers=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if readers is not None:
        cmd += ["--readers", str(readers)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=1)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    binary = build(build_dir())
    failures = 0

    def check(name, bad):
        nonlocal failures
        failures += bool(bad)
        print(("FAIL " if bad else "PASS ") + name
              + (": " + ", ".join(bad) if bad else ""), flush=True)

    for w in WORKLOADS:
        first = run(binary, w, args.seed, args.seconds)
        again = run(binary, w, args.seed, args.seconds)
        check(f"{w}: same seed, same counts", count_mismatches(first, again))
        traced = run(binary, w, args.seed, args.seconds, trace=True)
        check(f"{w}: traced counts equal untraced",
              count_mismatches(first, traced))
        other = run(binary, w, args.seed + 1, args.seconds)
        same = (other["env"]["stream_digest"] == first["env"]["stream_digest"])
        check(f"{w}: another seed changes the stream",
              ["stream_digest"] if same else [])
        if first["env"]["readers"] > 0:
            alone = run(binary, w, args.seed, args.seconds, readers=0)
            check(f"{w}: writer counts with 0 and "
                  f"{first['env']['readers']} readers",
                  count_mismatches(first, alone))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
