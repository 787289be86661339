"""Checks that the host-speed sampler sees the host and not the workload.

Usage: python3 perfbench/hostcheck.py [--phases 40] [--phase-seconds 0.8]

Runs the sampler of hostspeed.py, pinned like a worker, beside three loads
that differ only in the memory traffic they make, in alternating phases:

    quiet   pure-Python arithmetic on a few KB
    python  pure-Python random reads over a list of about 300 MB
    numpy   numpy streaming over 64 MB arrays (the GIL released)

and prints, for the python and numpy loads, the mean ratio of each phase's
slowdown to that of the quiet phase before it, with its standard error.  A
ratio of 1 means the workload's traffic does not move the divisor; host
drift between adjacent phases averages out over the pairs.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

import numpy as np

from hostspeed import HostSpeed, pin_to_one_cpu


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--phases", type=int, default=40)
    ap.add_argument("--phase-seconds", type=float, default=0.8)
    args = ap.parse_args()

    pin_to_one_cpu()
    rng = random.Random(1)
    big = list(range(8_000_000))
    idx = [rng.randrange(len(big)) for _ in range(20_000)]
    arr = np.ones(4_000_000, dtype=np.complex128)

    def quiet():
        s = 0
        for i in range(20_000):
            s += i * i % 7

    def python():
        s = 0
        for i in idx:
            s += big[i]

    def numpy():
        float(np.abs(np.exp(arr * 0.1) * arr).sum())

    loads = {"quiet": quiet, "python": python, "numpy": numpy}
    slowdown = {k: [] for k in loads}
    host = HostSpeed().start()
    try:
        host.phase()
        for _ in range(args.phases):
            for name, load in loads.items():
                end = time.perf_counter() + args.phase_seconds
                while time.perf_counter() < end:
                    load()
                slowdown[name].append(host.phase()[0])
    finally:
        host.stop()
    for name in ("python", "numpy"):
        ratios = [a / b for a, b in zip(slowdown[name], slowdown["quiet"])]
        se = statistics.stdev(ratios) / len(ratios) ** 0.5
        print(f"{name}/quiet slowdown ratio {statistics.mean(ratios):.4f} "
              f"+- {se:.4f} over {len(ratios)} phase pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
