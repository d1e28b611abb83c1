#!/usr/bin/env python3
"""Build the benchmark from source and make one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spec-sweep --seed 1 --seconds 25 --trace 0

Build output goes to standard error.  The benchmark prints its metrics
as the last line of standard output.  Exit status: the benchmark's own
(0 when every op passed its checks, 1 when one failed), 2 when there is
no repository to build or the build fails, 3 when the run overran its
time limit.
"""
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_LIMIT_S = 175


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a janitizer checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    build = subprocess.run(["dune", "build", "./perfbench/bench.exe"],
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([EXE] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run overran %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    # SIGTERM unwinds through main's finally, which stops the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
