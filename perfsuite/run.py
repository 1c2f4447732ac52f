#!/usr/bin/env python3
"""Build the benchmark and measure one workload.

Run from the root of a dagmap checkout:

    python3 perfsuite/run.py --workload iscas_rich --seed 1 --seconds 15 --trace 0

The workloads and metrics are described in perfsuite/README.md. The
last line of standard output is the JSON result; build output goes to
standard error. Exits non-zero when the build fails, when any
operation fails its correctness check, or when the run overruns.
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfsuite", "main.exe")
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfsuite: run me from the root of a dagmap checkout")
    # No shared dune cache: the build writes only inside the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfsuite/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfsuite: build failed")
    # Own process group, so an overrun can stop the children as well.
    proc = subprocess.Popen([EXE, "run"] + sys.argv[1:], start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfsuite: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
