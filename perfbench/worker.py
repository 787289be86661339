"""One cold repetition of a workload, in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace]
           [--setup-only]

Imports the package from the checkout's `src/`, prepares the inputs (the
set-up phase), then calls `cycliczeta.cli.main(argv)` once per operation
with standard output captured (the timed phase), and checks every output
after the clock stops.  A host-speed sampler runs through both phases (see
hostspeed.py).  With --trace the spans are written to
perfbench/out/spans-<workload>-seed<n>.json.  Prints one JSON object as its
last line.
"""

import time

T0 = time.perf_counter()

from hostspeed import HostSpeed, pin_to_one_cpu  # noqa: E402

pin_to_one_cpu()
HOST = HostSpeed().start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from cycliczeta import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"cycliczeta was imported from {cli.__file__}, not {src}")
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build_ops(args.workload, args.seed, workdir)
        setup_raw_s = time.perf_counter() - T0
        setup_slowdown, _ = HOST.phase()
        setup = {"setup_raw_s": setup_raw_s, "setup_slowdown": setup_slowdown,
                 "setup_s": setup_raw_s / setup_slowdown}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(f"{args.workload}/seed{args.seed}/pid{os.getpid()}")
            tracer.install()

        outputs = []
        wall_s = 0.0
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(list(op.argv))
            except Exception as exc:  # an operation that raises counts as failed
                rc = f"{type(exc).__name__}: {exc}"
            wall_s += time.perf_counter() - t
            outputs.append((rc, out.getvalue(), err.getvalue()))
        slowdown, _ = HOST.phase()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        results = []
        for op, (rc, out, err) in zip(ops, outputs):
            error = None
            if rc != 0:
                error = f"exit {rc}: {err.strip()[-300:]}"
            else:
                try:
                    op.check(out)
                except workloads.CheckError as exc:
                    error = f"wrong output: {exc}"
            results.append({"argv": op.argv, "error": error})
    finally:
        HOST.stop()
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()

    rep = {
        **setup,
        "wall_raw_s": wall_s,
        "slowdown": slowdown,
        "wall_s": wall_s / slowdown,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results),
        "failed": sum(r["error"] is not None for r in results),
        "errors": [r for r in results if r["error"] is not None],
    }
    if tracer is not None:
        rep["layers"] = tracer.metrics(wall_s)
        rep["missing"] = tracer.missing
        tracer.dump(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
