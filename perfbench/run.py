"""Benchmark of the cycliczeta CLI: four workloads over the exact and the
numeric pipelines, timed end to end (tracing off) and per layer (tracing on).

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Run from the root of a checkout.  Load is a closed loop: one caller, one
`cycliczeta.cli.main(argv)` call at a time, single-threaded.  Each
repetition of a workload runs in a fresh process, so every repetition pays
the cold `weak_orders` cache as a user's CLI run does; there is no warm-up,
no relation cache (`--cache-dir` unset, MZF_CACHE_DIR removed) and the
default `--parallel 1`.  Repetitions continue while the next one is expected
to end within --seconds: at least one, and with --trace 1 at least two
untraced (their spread is reported beside the trace) and one traced.
Set-up is also timed in extra set-up-only processes, so `setup_s` is a
median over several set-ups in every run.

Times are read at a fixed host speed: every repetition runs pinned to one
vCPU and samples that vCPU's speed while it works (hostspeed.py), and
`wall_s` and `setup_s` are its measured seconds divided by the slowdown it
saw.  The unscaled wall time and
the slowdown are printed beside them and reported per layer as
`host.raw_wall_s` and `host.slowdown`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The exit code is non-zero,
with no result printed, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 3
# A run must end within 180 s: no repetition starts past HARD_LIMIT_S and
# none may run past REP_TIMEOUT_S from the start of the run.
HARD_LIMIT_S = 150.0
REP_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to an operation failing)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("MZF_CACHE_DIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(name: str, seed: int, *flags: str, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: a repetition exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    setups = [_spawn(name, seed, "--setup-only", timeout=60)
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    longest = 0.0
    while True:
        use_trace = trace and len(plain) >= 2 and len(traced) < len(plain) - 1
        flags = ("--trace",) if use_trace else ()
        t = time.perf_counter()
        remaining = REP_TIMEOUT_S - (t - start)
        rep = _spawn(name, seed, *flags, timeout=max(remaining, 1.0))
        longest = max(longest, time.perf_counter() - t)
        (traced if use_trace else plain).append(rep)
        setups.append(rep)
        elapsed = time.perf_counter() - start
        if trace and not (traced and len(plain) >= 2):
            continue
        if elapsed + longest > min(seconds, HARD_LIMIT_S):
            break

    reps = plain + traced
    return {
        "plain": plain,
        "traced": traced,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "setups": len(setups),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "errors": [e for r in reps for e in r["errors"]],
    }


def end_to_end(res: dict) -> dict:
    plain = res["plain"]
    return {
        "wall_s": (statistics.median([r["wall_s"] for r in plain]), "s"),
        "setup_s": (res["setup_s"], "s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in plain]), "MiB"),
    }


def per_layer(res: dict) -> dict:
    plain_wall = [r["wall_s"] for r in res["plain"]]
    traced_wall = [r["wall_s"] for r in res["traced"]]
    names = {}
    for r in res["traced"]:
        for k, (v, unit) in r["layers"].items():
            names.setdefault(k, (unit, []))[1].append(v)
    out = {k: (statistics.median(vs), unit) for k, (unit, vs) in names.items()}
    med_plain = statistics.median(plain_wall)
    out["trace.wall_s"] = (statistics.median(traced_wall), "s")
    out["trace.untraced_wall_s"] = (med_plain, "s")
    out["trace.overhead_s"] = (statistics.median(traced_wall) - med_plain, "s")
    out["trace.untraced_spread"] = ((max(plain_wall) - min(plain_wall)) / med_plain,
                                    "ratio")
    out.update(host_metrics(res))
    return out


def host_metrics(res: dict) -> dict:
    """The untraced repetitions' unscaled wall time and host slowdown."""
    plain = res["plain"]
    return {
        "host.raw_wall_s": (statistics.median([r["wall_raw_s"] for r in plain]), "s"),
        "host.slowdown": (statistics.median([r["slowdown"] for r in plain]), "ratio"),
    }


def report(name: str, res: dict, metrics: dict, trace: bool):
    """Human-readable lines; the JSON result line comes after them."""
    n_plain, n_traced = len(res["plain"]), len(res["traced"])
    print(f"# workload {name}: {n_plain} untraced and {n_traced} traced "
          f"repetitions, {res['setups']} set-ups")
    shown = dict(metrics) if trace else {**metrics, **host_metrics(res)}
    for k, (v, unit) in shown.items():
        print(f"{name}  {k} = {v:.6g} {unit}")
    print(f"{name}  fail_ratio = {res['failed']}/{res['attempted']} "
          f"(operations failed / attempted)")
    for e in res["errors"]:
        print(f"{name}  FAILED {' '.join(e['argv'])}: {e['error']}")
    if trace and res["traced"]:
        missing = res["traced"][-1].get("missing") or []
        if missing:
            print(f"{name}  absent (binding not found): {', '.join(missing)}")


def as_json_metrics(metrics: dict, prefix: str = "") -> dict:
    return {prefix + k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.RECORDED_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "cycliczeta" / "__init__.py").is_file():
            raise BenchError(f"no package source under {ROOT / 'src'}")
        problems = selftest.run()
        if problems:
            raise BenchError("output checks failed their self-test:\n"
                             + "\n".join(problems))
        if args.workload == "all":
            runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
        else:
            runs = [(args.workload, bool(args.trace))]
        total_metrics, attempted, failed = {}, 0, 0
        for name, trace in runs:
            res = run_workload(name, args.seed, args.seconds, trace)
            metrics = per_layer(res) if trace else end_to_end(res)
            report(name, res, metrics, trace)
            prefix = f"{name}/" if args.workload == "all" else ""
            total_metrics.update(as_json_metrics(metrics, prefix))
            attempted += res["attempted"]
            failed += res["failed"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": total_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
