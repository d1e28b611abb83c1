#!/usr/bin/env python3
"""Noise study: run each workload on consecutive seeds and record every
end-to-end metric's median and quartiles.

Run from the repository root:

    python3 perfbench/noise.py --runs 10 --out perfbench/NOISE.json
    python3 perfbench/noise.py --runs 5 --workload cold-code

A metric's spread is (q3 - q1) / median, with the quartiles that
statistics.quantiles(values, n=4) gives.  Each spread is printed beside
its bound from BENCHMARK.json; the exit status is 1 when any spread
other than setup_s's reaches a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

# Seeds 1..10 are the ones NOISE.json was measured on.  This one was
# never run while the benchmark was tuned: later changes re-check a
# claimed gain on it.
HELD_OUT_SEED = 4242

# How each host metric avoids resting on sub-second timing.
SUB_SECOND = {
    "setup_s": "median of at least three set-ups and at least 2 s of "
               "set-up in each run; spec-sweep's set-up builds and "
               "natively runs all 28 workloads (about 1.5 s each)",
    "op_ms_p50": "median over the run's rounds of each round's "
                 "percentile: 168 ops a round on spec-sweep (3 rounds) and "
                 "fuzz-churn (about 20 rounds), the five-module ladder on "
                 "cold-code (about 4 rounds)",
    "guest_minsn_per_s": "total guest instructions over total host time "
                         "inside run calls: about 20 s a run on spec-sweep, "
                         "about 8 s on fuzz-churn, about 2.5 s on cold-code",
    "static_kinsn_per_s (cold analysis)": "total analyzed instructions over "
                                          "total analysis time: about 6 s a "
                                          "run on cold-code, 5 s on "
                                          "fuzz-churn, 0.8 s on spec-sweep",
    "warm analysis": "ir.store_warm_s is a per-layer metric of the traced "
                     "run, not a bounded end-to-end metric",
}


def run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("perfbench/noise.py: %s seed %d failed with exit %d"
                 % (workload, seed, p.returncode))
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description="perfbench noise study")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {
        "seeds": seeds,
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": bench["run_seconds"],
        "spread": "(q3 - q1) / median, quartiles from "
                  "statistics.quantiles(values, n=4)",
        "sub_second": SUB_SECOND,
        "workloads": {},
    }
    steady = True
    for w in args.workload or [x["name"] for x in bench["workloads"]]:
        t0 = time.time()
        values = {}
        for seed in seeds:
            res = run(w, seed, bench["run_seconds"])
            if not res["correct"] or res["failed"]:
                sys.exit("perfbench/noise.py: %s seed %d reported failures"
                         % (w, seed))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        took = time.time() - t0
        print("%s: %d runs in %.0f s" % (w, len(seeds), took))
        metrics = {}
        for name, bound in bounds.items():
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med if med else 0.0
            ok = name == "setup_s" or spread < bound / 3
            steady = steady and ok
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": round(spread, 5), "bound": bound}
            print("  %-28s median %-14.6g spread %.4f  bound %.2f%s"
                  % (name, med, spread, bound, "" if ok else "  <- >= bound/3"))
        report["workloads"][w] = {"seconds_for_all_runs": round(took), "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
