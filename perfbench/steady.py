#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --quick

Run it from the root of a checkout. The default mode runs two sets of
ten runs of every workload, one build, each run `run_seconds` long with
its own seed (set 1: seeds 1..10, set 2: seeds 1001..1010). For every
workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median) against
the metric's bound, and how far the second median moved from the first.
It also checks that both sets fail exactly the same share of their
operations. It exits non-zero if a spread exceeds its bound, a median
moves by more than its bound in the worse direction, the failed shares
differ, or a run is not correct.

`--quick` makes one one-second traced run of every workload instead. A
traced run also runs untraced rounds, so it makes every check of an
untraced run, checks that every end-to-end metric was measured, and
adds the traced-only checks (child spans within their parent, the
`allocate` plan budgets, a warm predictor that simulates nothing). The
mode checks each run's correctness and that it prints exactly the
per-layer metrics BENCHMARK.json names, and makes one untraced run of
`sweep_warm`, the shortest workload, to check the end-to-end names. It
runs two of these at a time and finishes in under a minute once the
benchmark is built.
"""

import json
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

RUNS = 10


def run(command, workload, seed, seconds, trace):
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t = time.time()
    proc = subprocess.run(args, capture_output=True, text=True)
    took = time.time() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1]), took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def quick(bench):
    ok = True
    names = {0: sorted(m["name"] for m in bench["end_to_end"]),
             1: sorted(m["name"] for m in bench["per_layer"])}
    plan = [(w["name"], 1) for w in bench["workloads"]] + [("sweep_warm", 0)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(
            lambda job: run(bench["command"], job[0], 1, 1, job[1]), plan))
    for (workload, trace), (res, took) in zip(plan, results):
        good = res["correct"] and sorted(res["metrics"]) == names[trace]
        ok &= good
        print(f"{workload:<16} trace={trace} correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"metrics={'ok' if sorted(res['metrics']) == names[trace] else 'MISMATCH'} "
              f"({took:.1f}s)")
    return ok


def full(bench):
    ok = True
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for w in (w["name"] for w in bench["workloads"]):
        sets = []
        for base in (0, 1000):
            results = []
            for seed in range(base + 1, base + RUNS + 1):
                res, took = run(bench["command"], w, seed, seconds, 0)
                print(f"  {w} seed {seed}: {took:.1f}s correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"wall_s={res['metrics']['wall_s']['value']:.6g}", flush=True)
                ok &= res["correct"]
                results.append(res)
            sets.append(results)
        shares = [{r["failed"] / r["attempted"] for r in s} for s in sets]
        same = len(shares[0] | shares[1]) == 1
        ok &= same
        print(f"{w}: failed share {'identical' if same else 'DIFFERS'}: {sorted(shares[0] | shares[1])}")
        print(f"  {'metric':<18} {'median1':>12} {'q1':>12} {'q3':>12} {'spread1':>8} "
              f"{'median2':>12} {'spread2':>8} {'move':>8} {'bound':>6}")
        for name, m in bounds.items():
            v = [[r["metrics"][name]["value"] for r in s] for s in sets]
            med1, q1, q3, s1 = spread(v[0])
            med2, _, _, s2 = spread(v[1])
            move = (med2 - med1) / abs(med1) if med1 else 0.0
            worse = move if m["better"] == "lower" else -move
            bad = worse > m["bound"] or max(s1, s2) > m["bound"]
            loose = max(s1, s2) > m["bound"] / 3
            ok &= not bad
            flag = "FAIL" if bad else ("wide" if loose else "")
            print(f"  {name:<18} {med1:>12.6g} {q1:>12.6g} {q3:>12.6g} {s1:>8.2%} "
                  f"{med2:>12.6g} {s2:>8.2%} {move:>+8.2%} {m['bound']:>6} {flag}")
    return ok


def main():
    args = sys.argv[1:]
    if args not in ([], ["--quick"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args:
        ok = quick(bench)
        print("checks pass" if ok else "checks FAILED")
    else:
        ok = full(bench)
        print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
