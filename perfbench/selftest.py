"""Self-test of the output checks: each accepts a correct output and rejects
corrupted ones.  `run.py` runs it before every benchmark run.

Usage: python3 perfbench/selftest.py    (exit 0 when every check holds)
"""

from __future__ import annotations

import copy
import json
import sys

import workloads
from workloads import CheckError

ALL_REF = {3: 1, 4: 3, 5: 6, 6: 14, 7: 29, 8: 60, 9: 123}


def _table_output() -> dict:
    rows = []
    for t, w in enumerate(range(3, 10)):
        row = {"weight": w}
        row.update({fam: vals[t] for fam, vals in workloads.TABLE_W9.items()})
        row["all_ref"] = ALL_REF[w]
        rows.append(row)
    return {"note": "all_ref is a stored reference count, not computed", "rows": rows}


def _corrupt_table():
    obj = _table_output()
    bad_value = copy.deepcopy(obj)
    bad_value["rows"][3]["cyclic"] = 10  # the weight-6 reference value
    over_ref = copy.deepcopy(obj)
    over_ref["rows"][0]["all_ref"] = 0
    missing = copy.deepcopy(obj)
    del missing["rows"][-1]
    return obj, [bad_value, over_ref, missing]


def _corrupt_theorem(obj: dict):
    resid_up = copy.deepcopy(obj)
    resid_up["refinements"][-1][5] = resid_up["refinements"][0][5] * 2
    lhs_off = copy.deepcopy(obj)
    lhs_off["lhs"][0] *= 1 + 1e-6
    return [resid_up, lhs_off]


def _corrupt_series(obj: dict):
    refs = obj["refinements"]
    stalled = copy.deepcopy(obj)
    (n0, a0, b0), (n1, a1, b1) = refs[0], refs[1]
    stalled["refinements"][2][1:] = [a1 + 2 * (a1 - a0), b1 + 2 * (b1 - b0)]
    value_off = copy.deepcopy(obj)
    value_off["value"][1] += 1e-6 * (abs(value_off["value"][1]) + 1)
    wrong_n = copy.deepcopy(obj)
    wrong_n["refinements"][0][0] //= 2
    return [stalled, value_off, wrong_n]


def _expect(problems: list[str], label: str, check, good, bads):
    try:
        check(json.dumps(good))
    except CheckError as exc:
        problems.append(f"{label}: a correct output was rejected ({exc})")
    for t, bad in enumerate(["not json"] + [json.dumps(b) for b in bads]):
        try:
            check(bad)
        except CheckError:
            continue
        problems.append(f"{label}: corruption {t} was accepted")


def run() -> list[str]:
    """Every way a check failed its self-test (empty when all hold)."""
    problems: list[str] = []
    good, bads = _corrupt_table()
    _expect(problems, "table-w9", workloads.check_table, good, bads)
    rank = dict(workloads.RANK_W10)
    _expect(problems, "rank-w10", workloads.check_rank, rank,
            [{**rank, "rank": 226}, {**rank, "rows": 587}])

    seed = workloads.RECORDED_SEED
    for name in workloads.STORED:
        stored = json.loads((workloads.EXPECTED_DIR / f"{name}.json").read_text())
        for t, (op, entry) in enumerate(zip(workloads.build_ops(name, seed, None),
                                            stored["outputs"])):
            out = entry["output"]
            bads = (_corrupt_theorem(out) if "lhs" in out else _corrupt_series(out))
            _expect(problems, f"{name} op {t}", op.check, out, bads)
    return problems


if __name__ == "__main__":
    found = run()
    for p in found:
        print(p)
    print("self-test:", "FAIL" if found else "every check rejects its corrupted outputs")
    sys.exit(1 if found else 0)
