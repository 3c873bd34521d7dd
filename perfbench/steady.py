#!/usr/bin/env python3
"""Steadiness check: rerun workloads over several seeds and report, for
each end-to-end metric, the median, quartiles and spread against its bound.

    python3 perfbench/steady.py --seeds 1,2,3,4,5 [--compare RAW.json]

Every workload of BENCHMARK.json runs once per seed for its run_seconds.
Spread is (Q3 - Q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4); a metric is steady when its spread is
below a third of its bound. With --compare, the raw results of an earlier
set (other seeds, same code) are read too, and each median's shift towards
"worse" from that set to this one is printed against the bound. Seeds are
passed to run.py, which generates the inputs; the program under test only
sees those inputs. Raw results go to perfbench/out/steady-<time>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %s: exit %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one run per seed")
    parser.add_argument("--compare", metavar="RAW.json",
                        help="raw results of an earlier set to compare medians with")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = spec["end_to_end"]
    earlier = json.load(open(args.compare)) if args.compare else {}
    raw = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            r = run_once(workload, seed, spec["run_seconds"])
            results.append(r)
            print("%-13s seed %-6d correct=%s attempted=%d failed=%d" %
                  (workload, seed, r["correct"], r["attempted"], r["failed"]),
                  file=sys.stderr, flush=True)
        raw[workload] = results
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("\n%s: %d runs, failed share %s, all correct: %s" %
              (workload, len(results), shares, all(r["correct"] for r in results)))
        steady &= all(r["correct"] for r in results)
        before = earlier.get(workload)
        if before:
            old_shares = sorted({r["failed"] / r["attempted"] for r in before})
            print("  earlier set: failed share %s" % old_shares)
            steady &= old_shares == shares
        print("  %-26s %12s %12s %12s %8s %6s  %s%s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "spread/bound",
               "  shift/bound" if before else ""))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bound / 3
            shift_text = ""
            if before:
                old_med = statistics.median(r["metrics"][name]["value"] for r in before)
                shift = (med - old_med) / old_med
                if m["better"] == "higher":
                    shift = -shift
                ok &= shift <= bound
                shift_text = "  %+.2f" % (shift / bound)
            steady &= ok
            print("  %-26s %12.6g %12.6g %12.6g %8.4f %6.2f  %12.2f%s%s" %
                  (name, med, q1, q3, spread, bound, spread / bound, shift_text,
                   "" if ok else "  <-- not steady"))
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    path = os.path.join(ROOT, "perfbench", "out",
                        "steady-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(raw, f, indent=1)
    print("\nraw results: %s" % os.path.relpath(path, ROOT))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
