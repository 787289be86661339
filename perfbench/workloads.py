"""The benchmark's workloads: seeded inputs and output checks.

Every workload is a list of operations; an operation is one call of the
public CLI entry point `cycliczeta.cli.main(argv)`.  Each operation carries
a check of its standard output, so a wrong answer counts as a failed
operation exactly like a non-zero exit or an exception.

Numeric arguments get fixed real parts (inside the convergence domain W of
their shape) and imaginary parts drawn from U(-0.5, 0.5) by the seed, so
every seed evaluates the same sums at the same cost.  The two exact
workloads have no numeric argument: the seed does not change their input.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE / "data"
EXPECTED_DIR = HERE / "expected"

# The seed whose numeric outputs are stored under expected/.
RECORDED_SEED = 1
# Tolerance for comparing a numeric output with the stored one: every
# number must satisfy |got - want| <= RTOL * |want| + ATOL.  Reordered
# floating-point sums (chunking, FFT convolution) move values by ~1e-14
# relative; a wrong term moves them by far more than 1e-9.
RTOL = 1e-9
ATOL = 1e-12

# Rank-table rows of the seed code for weights 3..9.  Computed values, not
# reference values: the reference prints 10 for weight-6 cyclic.
TABLE_W9 = {
    "csf": (1, 2, 4, 6, 12, 18, 34),
    "derivation": (1, 2, 5, 10, 22, 44, 90),
    "cyclic": (1, 2, 5, 11, 25, 52, 110),
}

RANK_W10_FILE = DATA_DIR / "relations-w10-cyclic.json.gz"
RANK_W10_SHA256 = DATA_DIR / "relations-w10-cyclic.json.sha256"
# Computed by the seed code, not a reference value; 249 is the stored
# reference count over all known relations at weight 10.
RANK_W10 = {"rank": 227, "rows": 1596, "symbols": 256}
ALL_REF_W10 = 249

# (shape, real parts per block) for the identity checks at matched
# truncations: the acceptance-suite configurations plus shape (2,2).
THEOREM_SHAPES = (
    ("1", ((3.0,),)),
    ("2", ((1.5, 2.5),)),
    ("1,1", ((1.5,), (1.6,))),
    ("2,1", ((1.2, 2.2), (1.5,))),
    ("2,2", ((1.2, 2.2), (1.5, 2.5))),
)
# The plain-chain sums: every window series and the full cyclic series.
CHAIN_SHAPES = (
    ("2,2", ((1.2, 2.2), (1.5, 2.5))),
    ("2,1", ((1.2, 2.2), (1.5,))),
)
MT_REAL = (2.0, 1.0, 1.0)
MZF_REAL = (1.5, 1.5, 2.0)
COUPLED_N = "250,500,1000"
MT_N = "1000,2000,4000"
ZETA_C_N = "62500,125000,250000"
MZF_N = "1000000,2000000,4000000"


class CheckError(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    argv: list[str]
    check: Callable[[str], None]


def _complex_arg(rng: random.Random, re: float) -> str:
    return f"{re!r}{rng.uniform(-0.5, 0.5):+.6f}i"


def _blocks_arg(rng: random.Random, blocks) -> str:
    return ";".join(",".join(_complex_arg(rng, re) for re in blk) for blk in blocks)


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def _close(got, want, path: str = "$"):
    """Recursive comparison: integers exactly, floats within RTOL/ATOL."""
    if isinstance(want, dict):
        _require(isinstance(got, dict) and got.keys() == want.keys(),
                 f"{path}: keys differ")
        for k in want:
            _close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want),
                 f"{path}: lengths differ")
        for t, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{path}[{t}]")
    elif isinstance(want, bool) or isinstance(want, int):
        _require(type(got) is type(want) and got == want,
                 f"{path}: {got!r} != {want!r}")
    else:
        _require(isinstance(got, (int, float)) and math.isfinite(got)
                 and abs(got - want) <= RTOL * abs(want) + ATOL,
                 f"{path}: {got!r} differs from stored {want!r}")


def _refinements(obj, n_list: str) -> list:
    refs = obj.get("refinements") if isinstance(obj, dict) else None
    ns = [int(n) for n in n_list.split(",")]
    _require(isinstance(refs, list) and [r[0] for r in refs] == ns,
             f"refinements are not at N = {ns}")
    _require(obj.get("cutoff") == ns[-1], "cutoff is not the last refinement")
    return refs


def check_theorem(text: str, n_list: str):
    """The identity residual strictly decreases over the refinements."""
    refs = _refinements(_json(text), n_list)
    resid = [r[5] for r in refs]
    _require(all(math.isfinite(q) for q in resid), "non-finite residual")
    _require(all(b < a for a, b in zip(resid, resid[1:])),
             f"residuals {resid} do not strictly decrease")


def check_converging(text: str, n_list: str):
    """|S(N) - S(N/2)| < |S(N/2) - S(N/4)| over three doubling cutoffs."""
    refs = _refinements(_json(text), n_list)
    vals = [complex(r[1], r[2]) for r in refs]
    _require(all(math.isfinite(abs(v)) for v in vals), "non-finite value")
    steps = [abs(b - a) for a, b in zip(vals, vals[1:])]
    _require(steps[1] < steps[0], f"differences {steps} do not decrease")


def check_table(text: str):
    rows = _json(text).get("rows")
    _require(isinstance(rows, list) and [r.get("weight") for r in rows]
             == list(range(3, 10)), "table rows are not weights 3..9")
    for fam, want in TABLE_W9.items():
        got = tuple(r.get(fam) for r in rows)
        _require(got == want, f"{fam} row {got} != {want}")
    for r in rows:
        w = r["weight"]
        _require(r["csf"] <= r["cyclic"] and r["derivation"] <= r["cyclic"],
                 f"weight {w}: a sub-family exceeds the cyclic family")
        _require(all(r[f] <= r["all_ref"] for f in TABLE_W9),
                 f"weight {w}: a family exceeds all_ref")


def check_rank(text: str):
    obj = _json(text)
    _require(obj == RANK_W10, f"rank output {obj} != {RANK_W10}")
    _require(obj["rank"] <= ALL_REF_W10, "rank exceeds the weight-10 all_ref")


def _with_stored(check: Callable[[str], None], want) -> Callable[[str], None]:
    def both(text: str):
        check(text)
        _close(_json(text), want)

    return both


def _attach_stored(name: str, seed: int, ops: list[Op]) -> list[Op]:
    stored = json.loads((EXPECTED_DIR / f"{name}.json").read_text())
    if stored["seed"] != seed or [e["argv"] for e in stored["outputs"]] != [
        op.argv for op in ops
    ]:
        raise RuntimeError(f"expected/{name}.json does not match the inputs")
    return [Op(op.argv, _with_stored(op.check, e["output"]))
            for op, e in zip(ops, stored["outputs"])]


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def table_w9(seed: int, workdir: Path) -> list[Op]:
    return [Op(["table1", "--max-weight", "9", "--budget-max-weight", "9"],
               check_table)]


def load_rank_input() -> bytes:
    """The stored w10 cyclic relation set, verified against its checksum."""
    data = gzip.decompress(RANK_W10_FILE.read_bytes())
    want = RANK_W10_SHA256.read_text().split()[0]
    if hashlib.sha256(data).hexdigest() != want:
        raise RuntimeError(f"{RANK_W10_FILE.name} fails its sha256 check")
    return data


def rank_w10(seed: int, workdir: Path) -> list[Op]:
    path = workdir / "relations-w10-cyclic.json"
    path.write_bytes(load_rank_input())
    return [Op(["rank", "--in", str(path)], check_rank)]


def identity_coupled(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"identity-coupled/{seed}")
    ops = []
    for shape, blocks in THEOREM_SHAPES:
        ops.append(Op(["eval", "--kind", "theorem", "--shape", shape,
                       "--s", _blocks_arg(rng, blocks), "--N-list", COUPLED_N],
                      lambda t: check_theorem(t, COUPLED_N)))
    ops.append(Op(["eval", "--kind", "mt", "--s", _blocks_arg(rng, [MT_REAL]),
                   "--N-list", MT_N],
                  lambda t: check_converging(t, MT_N)))
    return ops


def chains_plain(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"chains-plain/{seed}")
    ops = []
    for shape, blocks in CHAIN_SHAPES:
        s = _blocks_arg(rng, blocks)
        for block in [["--i", str(i)] for i in range(1, len(blocks) + 1)] + [[]]:
            ops.append(Op(["eval", "--kind", "zeta-c", "--shape", shape, "--s", s,
                           *block, "--N-list", ZETA_C_N],
                          lambda t: check_converging(t, ZETA_C_N)))
    ops.append(Op(["eval", "--kind", "mzf", "--s", _blocks_arg(rng, [MZF_REAL]),
                   "--N-list", MZF_N],
                  lambda t: check_converging(t, MZF_N)))
    return ops


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "table-w9": table_w9,
    "rank-w10": rank_w10,
    "identity-coupled": identity_coupled,
    "chains-plain": chains_plain,
}
# Workloads whose outputs at RECORDED_SEED are stored under expected/.
STORED = ("identity-coupled", "chains-plain")


def build_ops(name: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's operations; at the recorded seed the numeric outputs
    must also match the stored ones."""
    ops = WORKLOADS[name](seed, workdir)
    if name in STORED and seed == RECORDED_SEED:
        ops = _attach_stored(name, seed, ops)
    return ops
