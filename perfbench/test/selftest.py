#!/usr/bin/env python3
"""Self-test of the benchmark: its oracle, its determinism, its traced
run and the committed emit record.  Run from the repository root; it
takes a few minutes:

    python3 perfbench/test/selftest.py

1. A corrupted reference output, and a corrupted emitted accounting
   identity, each make a run fail: failed > 0, correct false, exit 1.
2. Two runs with one seed give bit-identical simulated metrics
   (untraced) and counts (traced), on every workload.
3. The traced run's span dump reloads with one JSON object per line and
   one line per span; every span but an op's root has its parent in the
   dump, inside which it lies; self times account for the traced wall
   within 5%.
4. spec-sweep's emitted and hybrid geomeans over the emittable C
   workloads equal the ones recorded in BENCH_emit.json.
5. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""
import json
import os
import re
import shutil
import subprocess
import sys

WORKLOADS = ["spec-sweep", "cold-code", "fuzz-churn"]
SIMULATED = [
    "slowdown_null_geo", "slowdown_jasan_hybrid_geo", "slowdown_jasan_dyn_geo",
    "slowdown_jcfi_hybrid_geo", "slowdown_jasan_emitted_geo", "emitted_size_ratio",
]
COUNTS = [
    "rules.count", "rules.bytes", "ir.bytes_per_insn", "dbt.blocks_translated",
    "dbt.block_execs", "dbt.fastpath_share", "dbt.traces_built",
    "dbt.translate_cycle_share", "jasan.checks_executed",
    "jasan.checks_elided_share", "emit.sites_executed", "emit.refusals",
    "fuzz.mismatches", "trace.spans", "ops.per_round",
]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace=0, extra=(), cwd=None):
    """One round (--seconds 0) with seed 1: (exit code, stdout lines, result)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, cwd=cwd)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p.returncode, lines, result


def values(result, names):
    return {n: result["metrics"][n]["value"] for n in names}


def check_dump(workload, lines):
    line = next((l for l in lines if l.startswith("perfbench: trace ")), "")
    m = re.search(r"spans=(\d+) .*share of traced wall=([0-9.]+) .*file=(\S+)", line)
    check(m is not None, "%s: traced run reports its span dump" % workload)
    if m is None:
        return
    n, share, path = int(m.group(1)), float(m.group(2)), m.group(3)
    with open(path) as f:
        spans = [json.loads(l) for l in f]
    check(len(spans) == n, "%s: dump reloads with one line per span (%d)" % (workload, n))
    by_id = {s["id"]: s for s in spans}
    orphans = 0
    for s in spans:
        p = by_id.get(s["parent"])
        if s["parent"] < 0:
            orphans += s["name"] != "op"
        elif p is None or s["start"] < p["start"] or s["end"] > p["end"] or s["op"] != p["op"]:
            orphans += 1
    check(orphans == 0, "%s: no orphaned span" % workload)
    check(abs(1.0 - share) <= 0.05,
          "%s: self times account for the traced wall (%.4f)" % (workload, share))


def check_emit(lines):
    with open("BENCH_emit.json") as f:
        rec = json.load(f)
    line = next((l for l in lines if "emittable C workloads" in l), "")
    m = re.search(r"workloads (\d+), geomean slowdown emitted ([0-9.]+)x, hybrid ([0-9.]+)x", line)
    check(m is not None and m.group(1) == str(len(rec["workloads"]))
          and float(m.group(2)) == rec["geomean_slowdown_emit"]
          and float(m.group(3)) == rec["geomean_slowdown_hybrid"],
          "spec-sweep geomeans match BENCH_emit.json (%s)" % line)


def main():
    for mode in ["output", "identity"]:
        code, _, res = run("fuzz-churn", extra=["--corrupt", mode])
        check(code != 0 and res is not None and res["failed"] > 0 and not res["correct"],
              "--corrupt %s: the run fails (exit %d, %s)" % (mode, code, res and res["failed"]))
    for w in WORKLOADS:
        a, b = run(w), run(w)
        check(a[0] == 0 and b[0] == 0, "%s: untraced runs pass" % w)
        if a[2] and b[2]:
            check(values(a[2], SIMULATED) == values(b[2], SIMULATED),
                  "%s: simulated metrics bit-identical across two runs" % w)
        ta, tb = run(w, trace=1), run(w, trace=1)
        check(ta[0] == 0 and tb[0] == 0, "%s: traced runs pass" % w)
        if ta[2] and tb[2]:
            check(values(ta[2], COUNTS) == values(tb[2], COUNTS),
                  "%s: counts bit-identical across two runs" % w)
        check_dump(w, ta[1])
        if w == "spec-sweep":
            check_emit(a[1])
    bare = os.path.join("perfbench", "_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_out"))
    code, lines, _ = run("fuzz-churn", cwd=bare)
    check(code != 0 and not lines, "bare directory: exit %d, no result" % code)
    shutil.rmtree(bare)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
