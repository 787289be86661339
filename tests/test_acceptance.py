"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The weight-9 table check
is tagged slow (`-m slow`).  The single unreproducible reference cell
(cyclic family, weight 6) is asserted as printed and marked strict-xfail;
the companion test pins the exactly-computed value.  Analysis lives in the
reviewer notes, outside the package.
"""

import itertools
import json
import math
import random

import pytest

from cycliczeta.cli import main
from cycliczeta.decompose import (
    Composition,
    SymbolCombination,
    chain_count,
    count_lattice_points,
    weak_orders,
)
from cycliczeta.model import (
    ComplexArgs,
    Constraint,
    ConstraintSystem,
    IntArgs,
    Shape,
    VarId,
    build_constraints_S,
    build_constraints_S_i,
    build_constraints_S_ij,
    build_constraints_T_i,
)
from cycliczeta.relations import (
    csf_relation,
    cyclic_relation,
    enumerate_family,
    zeta_star_expand,
)
from cycliczeta.series import (
    TruncationPlan,
    eval_mordell_tornheim,
    eval_mzf,
    eval_theorem_residual,
    eval_zeta_tilde,
    eval_zeta_tilde_harmonic,
    harmonic_relation_check,
    combo_partial_sum,
)

ZETA4 = math.pi**4 / 90

THEOREM_CONFIGS = [
    (Shape((1,)), (3.0,)),
    (Shape((2,)), (1.5, 2.5)),
    (Shape((2,)), (1.5 + 0.5j, 2.5)),
    (Shape((1, 1)), (1.5, 1.6)),
    (Shape((2, 1)), (1.2, 2.2, 1.5)),
]

CSF_ROW = {3: 1, 4: 2, 5: 4, 6: 6, 7: 12, 8: 18}
DERIVATION_ROW = {3: 1, 4: 2, 5: 5, 6: 10, 7: 22, 8: 44}
CYCLIC_ROW = {3: 1, 4: 2, 5: 5, 6: 10, 7: 25, 8: 52}


def _ok(name: str, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def table_w8():
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["table1", "--max-weight", "8"])
    assert code == 0
    obj = json.loads(buf.getvalue())
    return {row["weight"]: row for row in obj["rows"]}


# -- criterion 1: rank-table reproduction ------------------------------------


def test_criterion_1_csf_row(table_w8):
    got = {w: table_w8[w]["csf"] for w in range(3, 9)}
    assert got == CSF_ROW
    _ok("1a cyclic-sum-formula row", str(got))


def test_criterion_1_derivation_row(table_w8):
    got = {w: table_w8[w]["derivation"] for w in range(3, 9)}
    assert got == DERIVATION_ROW
    _ok("1b derivation row", str(got))


def test_criterion_1_cyclic_row_except_weight6(table_w8):
    got = {w: table_w8[w]["cyclic"] for w in (3, 4, 5, 7, 8)}
    assert got == {w: CYCLIC_ROW[w] for w in (3, 4, 5, 7, 8)}
    _ok("1c cyclic row (weights 3,4,5,7,8)", str(got))


@pytest.mark.xfail(
    strict=True,
    reason="reference table's weight-6 cyclic count (10) is inconsistent with "
    "its own sub-family rows: the derivation configurations alone span 10 and "
    "an exactly verified extra instance is independent of them, so the family "
    "spans 11; see the reviewer notes ledger",
)
def test_criterion_1_cyclic_weight6_as_printed(table_w8):
    assert table_w8[6]["cyclic"] == CYCLIC_ROW[6]


def test_criterion_1_cyclic_weight6_computed_rank_is_11(table_w8):
    assert table_w8[6]["cyclic"] == 11
    _ok("1d cyclic weight 6 computed rank", "11 (reference prints 10; ledgered)")


@pytest.mark.slow
def test_criterion_1_weight9_rows(capsys):
    code = main(["table1", "--max-weight", "9", "--budget-max-weight", "9"])
    out = capsys.readouterr().out
    assert code == 0
    rows = {r["weight"]: r for r in json.loads(out)["rows"]}
    assert rows[9]["csf"] == 34
    assert rows[9]["derivation"] == 90
    assert rows[9]["cyclic"] == 110
    _ok("1e weight-9 rows", "csf 34, derivation 90, cyclic 110")


# -- criterion 2: the depth-one relation through the pipeline -----------------


def test_criterion_2_euler_identity():
    rel = cyclic_relation(IntArgs(Shape((1,)), (2,)))
    items = {str(comp): c for comp, c in rel.combo.items()}
    assert items == {"1,2": 1, "3": -1}
    defect = abs(combo_partial_sum(rel.combo, 10**6))
    assert defect < 1e-4
    _ok("2 Euler identity via pipeline", f"|combo(1e6)| = {defect:.2e}")


# -- criterion 3: identity residuals over refinements -------------------------


def test_criterion_3_theorem_residuals_decrease():
    plan = TruncationPlan(1000, refinements=(125, 250, 500, 1000))
    for shape, vals in THEOREM_CONFIGS:
        rep = eval_theorem_residual(ComplexArgs(shape, vals), plan)
        resids = [q for _, _, _, q in rep.refinements]
        assert all(b < a for a, b in zip(resids, resids[1:])), (shape, vals, resids)
        assert resids[-1] * 2 <= resids[0], (shape, vals, resids)
    _ok("3 identity residuals", f"{len(THEOREM_CONFIGS)} configurations")


# -- criterion 4: double-series example ---------------------------------------


def test_criterion_4_mordell_tornheim():
    z4_ref = eval_mzf([4.0], 10**6).value.real
    def defect(n):
        mt = eval_mordell_tornheim(2, 1, 1, n).value.real
        z13 = eval_mzf([1.0, 3.0], n).value.real
        return abs(mt - z13 - z4_ref)

    d4000 = defect(4000)
    assert d4000 < 5e-3
    d2000 = defect(2000)
    ratio = d4000 / d2000
    assert 0.375 <= ratio <= 0.625
    _ok("4 double-series example", f"defect(4000) = {d4000:.2e}, halving ratio {ratio:.3f}")


# -- criterion 5: decomposition counting oracle --------------------------------


def _all_shapes(max_total):
    for total in range(1, max_total + 1):
        for d in range(1, total + 1):
            for cuts in itertools.combinations(range(1, total), d - 1):
                bounds = (0,) + cuts + (total,)
                yield Shape(tuple(bounds[t + 1] - bounds[t] for t in range(d)))


def _oracle_check(cs, cutoffs=(5, 12, 30)):
    for n in cutoffs:
        want = count_lattice_points(cs, n)
        got = sum(chain_count(len(p.levels), n) for p in weak_orders(cs))
        assert got == want, (str(cs), n, got, want)


def test_criterion_5_counting_oracle_constructed():
    checked = 0
    for shape in _all_shapes(4):
        systems = [build_constraints_S(shape)]
        for i in range(1, shape.d + 1):
            systems.append(build_constraints_S_i(shape, i))
            systems.append(build_constraints_T_i(shape, i))
            for j in range(1, shape.r[i - 1] + 1):
                systems.append(build_constraints_S_ij(shape, i, j))
        for cs in systems:
            _oracle_check(cs)
            checked += 1
    _ok("5a counting oracle, constructed systems", f"{checked} systems x 3 cutoffs")


def test_criterion_5_counting_oracle_random():
    rng = random.Random(20250809)
    for _ in range(50):
        k = rng.randint(2, 5)
        levels = [rng.randint(0, 2) for _ in range(k)]
        vs = [VarId.block(1, j + 1) for j in range(k)]
        cons = []
        for (x, y) in itertools.combinations(range(k), 2):
            if rng.random() < 0.45:
                continue
            if levels[x] == levels[y]:
                cons.append(Constraint(vs[x], "<=", vs[y]))
                if rng.random() < 0.4:
                    cons.append(Constraint(vs[y], "<=", vs[x]))
            else:
                lo, hi = (x, y) if levels[x] < levels[y] else (y, x)
                rel = "<" if rng.random() < 0.5 else "<="
                cons.append(Constraint(vs[lo], rel, vs[hi]))
        cs = ConstraintSystem(Shape((k,)), False, tuple(cons))
        _oracle_check(cs)
    _ok("5b counting oracle, random systems", "50 systems x 3 cutoffs")


# -- criterion 6: all-singleton specialization equality ------------------------


def _cyclic_sum_formula(k):
    """The classical cyclic sum formula at an all-singleton k: the rotated
    star symbols z*(k_i - m, k_(i+1), ..., k_(i-1), m + 1), 0 < m < k_i, minus
    (sum k) z(sum k + 1), with each star symbol expanded."""
    vals, total = k.values, sum(k.values)
    combo = -total * SymbolCombination({Composition((total + 1,)): 1})
    for i in range(len(vals)):
        for m in range(1, vals[i]):
            rotated = (vals[i] - m,) + vals[i + 1:] + vals[:i] + (m + 1,)
            combo = combo + zeta_star_expand(Composition(rotated))
    return combo


def test_criterion_6_csf_equals_cyclic_weight_le_8():
    checked = 0
    for w in range(3, 9):
        for shape, k in enumerate_family(w, "csf"):
            want = _cyclic_sum_formula(k)
            assert want == cyclic_relation(k).combo == csf_relation(k).combo, (w, k)
            checked += 1
    _ok("6 specialization equality", f"{checked} all-singleton configurations")


# -- criterion 7: two-path series consistency ----------------------------------


def test_criterion_7_two_path_consistency():
    plan = TruncationPlan(1000, refinements=(125, 250, 500, 1000))
    pairs = 0
    for shape, vals in THEOREM_CONFIGS:
        s = ComplexArgs(shape, vals)
        for i in range(1, shape.d + 1):
            for j in range(1, shape.r[i - 1] + 1):
                for variant in (1, 2):
                    direct = eval_zeta_tilde(s, i, j, variant, plan)
                    harmonic = eval_zeta_tilde_harmonic(s, i, j, variant, plan)
                    dv = [v for _, v in direct.refinements]
                    hv = [v for _, v in harmonic.refinements]
                    rd = [abs(b - a) for a, b in zip(dv, dv[1:])]
                    rh = [abs(b - a) for a, b in zip(hv, hv[1:])]
                    assert all(b < a for a, b in zip(rd, rd[1:])), (shape, i, j, variant)
                    assert all(b < a for a, b in zip(rh, rh[1:])), (shape, i, j, variant)
                    gap = abs(dv[-1] - hv[-1])
                    assert gap <= rd[-1] + rh[-1], (shape, i, j, variant, gap)
                    pairs += 1
    _ok("7a two-path agreement", f"{pairs} (position, variant) pairs")


def test_criterion_7_telescoping_defect():
    # At matched box truncation the two split series are images of each
    # other under an index swap, so the defect is pure floating rounding;
    # "decreasing toward 0" holds in the degenerate form: it stays at
    # rounding level for every refinement (ledgered).
    for shape, vals in THEOREM_CONFIGS:
        s = ComplexArgs(shape, vals)
        for i in range(1, shape.d + 1):
            for j in range(1, shape.r[i - 1]):
                for n in (125, 250, 500, 1000):
                    v1 = eval_zeta_tilde(s, i, j, 1, n).value
                    v2 = eval_zeta_tilde(s, i, j + 1, 2, n).value
                    assert abs(v1 - v2) < 1e-12, (shape, i, j, n)
    _ok("7b telescoping defect", "rounding level at every refinement")


# -- criterion 8: product identity ---------------------------------------------


def test_criterion_8_harmonic_relation():
    r1 = harmonic_relation_check(2.0, 2.0, 10**4)
    r2 = harmonic_relation_check(2.0, 3.0 + 1.0j, 10**4)
    assert r1 < 1e-3 and r2 < 1e-3
    _ok("8 product identity", f"residuals {r1:.2e}, {r2:.2e}")
