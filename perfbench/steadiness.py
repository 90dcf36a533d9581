#!/usr/bin/env python3
"""Checks that two sets of benchmark runs of the same code agree.

    python3 perfbench/steadiness.py [--runs 10]

Run from the root of a checkout. For each workload of BENCHMARK.json it
makes two sets of `--runs` runs of `perfbench/run.py`, interleaved (set A
run i, set B run i, A run i+1, ...), every run with its own seed: set A
takes seeds 1 .. runs, set B the next `runs` seeds. Run length comes from
BENCHMARK.json. For every end-to-end metric it prints each set's quartiles
and median (Python's statistics.quantiles, n=4), the spread (quartile
distance over median) and the shift of set B's median against set A's in
the metric's worse direction, and says whether the sets agree within the
metric's bound:

  * the spread of each set is within the bound (not required of setup_s,
    a single cold set-up per run), and
  * the two medians differ by at most the bound, either way, and
  * the share of failed operations is the same in both sets.

Every run's JSON result is written to `<build dir>/steadiness.json`.
Exits 1 when a workload disagrees.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("steadiness: run failed (exit %d): %s" %
                 (done.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("steadiness: output check failed: " + " ".join(cmd))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    raw = {}
    all_agree = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, offset in (("A", 1), ("B", 1 + args.runs)):
                seed = offset + i
                sets[name].append(run_once(workload, seed, bench["run_seconds"]))
                print("%s: set %s run %d (seed %d) done" %
                      (workload, name, i + 1, seed), file=sys.stderr)
        raw[workload] = sets
        print("\n%s (%d runs per set, %d s each)" %
              (workload, args.runs, bench["run_seconds"]))
        print("  %-22s %-28s %-28s %6s %6s %6s %5s" %
              ("metric", "set A q1/median/q3", "set B q1/median/q3",
               "sprdA", "sprdB", "shift", "bound"))
        agree = True
        for m in bench["end_to_end"]:
            qa = statistics.quantiles(
                [r["metrics"][m["name"]]["value"] for r in sets["A"]], n=4)
            qb = statistics.quantiles(
                [r["metrics"][m["name"]]["value"] for r in sets["B"]], n=4)
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            sign = 1.0 if m["better"] == "lower" else -1.0
            shift = sign * (qb[1] - qa[1]) / qa[1]
            ok = abs(shift) <= m["bound"]
            if m["name"] != "setup_s":
                ok = ok and max(spread_a, spread_b) <= m["bound"]
            agree = agree and ok
            print("  %-22s %-28s %-28s %6.3f %6.3f %+6.3f %5.2f %s" %
                  (m["name"], "%.4g/%.4g/%.4g" % tuple(qa),
                   "%.4g/%.4g/%.4g" % tuple(qb), spread_a, spread_b, shift,
                   m["bound"], "ok" if ok else "DISAGREE"))
        share = {name: sum(r["failed"] for r in runs) /
                 sum(r["attempted"] for r in runs)
                 for name, runs in sets.items()}
        agree = agree and share["A"] == share["B"]
        print("  failed share: set A %.6g, set B %.6g" % (share["A"], share["B"]))
        print("  verdict: %s" % ("sets agree" if agree else "sets DISAGREE"))
        all_agree = all_agree and agree
        sys.stdout.flush()

    os.makedirs(build_root, exist_ok=True)
    with open(os.path.join(build_root, "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1)
    sys.exit(0 if all_agree else 1)


if __name__ == "__main__":
    main()
