"""Regenerate the benchmark's stored data from the package in `src/`.

Usage:
    python3 perfbench/record.py expected   # numeric outputs at the recorded seed
    python3 perfbench/record.py rank-input # the w10 cyclic relation set (~1 min)

`expected/<workload>.json` holds the outputs of the numeric workloads at
`workloads.RECORDED_SEED`, which later runs at that seed must reproduce.
`data/relations-w10-cyclic.json.gz` is the generator's output for
`relations --weight 10 --family cyclic`, compressed, with the sha256 of the
uncompressed bytes beside it.  The generator's row order is kept: the rank
layer's cost depends on it.  Only rerun these on purpose, because they
redefine what counts as a correct output.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cycliczeta import cli  # noqa: E402

import workloads  # noqa: E402


def _call(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def record_expected():
    seed = workloads.RECORDED_SEED
    for name in workloads.STORED:
        outputs = []
        for op in workloads.WORKLOADS[name](seed, None):
            text = _call(op.argv)
            op.check(text)
            outputs.append({"argv": op.argv, "output": json.loads(text)})
        path = workloads.EXPECTED_DIR / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"seed": seed, "outputs": outputs}, indent=1) + "\n")
        print(f"wrote {path}")


def record_rank_input():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp) / "w10.json"
        _call(["relations", "--weight", "10", "--family", "cyclic",
               "--budget-max-weight", "10", "--out", str(out)])
        data = out.read_bytes()
    workloads.DATA_DIR.mkdir(parents=True, exist_ok=True)
    workloads.RANK_W10_FILE.write_bytes(gzip.compress(data, compresslevel=9, mtime=0))
    digest = hashlib.sha256(data).hexdigest()
    workloads.RANK_W10_SHA256.write_text(f"{digest}  relations-w10-cyclic.json\n")
    print(f"wrote {workloads.RANK_W10_FILE} ({len(data)} bytes uncompressed, "
          f"sha256 {digest})")


if __name__ == "__main__":
    jobs = {"expected": record_expected, "rank-input": record_rank_input}
    if len(sys.argv) != 2 or sys.argv[1] not in jobs:
        raise SystemExit(__doc__)
    jobs[sys.argv[1]]()
