import functools
import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycliczeta.decompose import count_lattice_points, weak_orders
from cycliczeta.errors import BudgetError, DomainError
from cycliczeta.model import (
    EXTRA,
    ComplexArgs,
    Constraint,
    ConstraintSystem,
    Shape,
    VarId,
    build_constraints_S,
    build_constraints_S_i,
    build_constraints_S_ij,
    build_constraints_T_i,
)
from cycliczeta import couplings, decompose, series
from cycliczeta.series import (
    TruncationPlan,
    eval_mordell_tornheim,
    eval_mzf,
    eval_theorem_residual,
    eval_zeta_C,
    eval_zeta_C_i,
    eval_zeta_tilde,
    eval_zeta_tilde_harmonic,
    harmonic_relation_check,
    mzv_partial_sum,
)

SRC = Path(__file__).resolve().parents[1] / "src"
ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854
ZETA4 = math.pi**4 / 90


def B(i, j):
    return VarId.block(i, j)


def lattice_points(cs, n_max):
    vs = list(cs.variables)
    idx = {v: t for t, v in enumerate(vs)}
    for pt in itertools.product(range(1, n_max + 1), repeat=len(vs)):
        ok = True
        for c in cs.constraints:
            a, b = pt[idx[c.lhs]], pt[idx[c.rhs]]
            if (c.rel == "<" and not a < b) or (c.rel == "<=" and not a <= b):
                ok = False
                break
        if ok:
            yield dict(zip(vs, pt))


def brute_term_sum(cs, exps, n_max, pole=None):
    """Independent pointwise enumeration of a constrained sum."""
    total = 0j
    for pt in lattice_points(cs, n_max):
        v = 1.0 + 0j
        for var, e in exps.items():
            if e != 0:
                v *= pt[var] ** (-complex(e))
        if pole is not None:
            num, den, ne, de = pole
            v *= pt[num] ** complex(ne)
            v /= pt[den] ** complex(de) * (pt[den] - pt[num])
        total += v
    return total


def constrained_sum(cs, exps, plan, pole=None):
    """The box-truncated sum over cs of prod v^-exps[v], times
    num^p / (den^q (den - num)) for pole = (num, den, p, q); the engine
    takes the exponents and the pole's variables by position."""
    vs = cs.variables
    coupling = pole and couplings.pole_coupling(vs.index(pole[0]), vs.index(pole[1]), *pole[2:])
    return series._make_report(
        plan, math.inf, None,
        lambda ns: series._eval_system(cs, [exps.get(v, 0) for v in vs], [(1.0, coupling)], ns))


# --- generic engine vs. brute force -----------------------------------------


def test_eval_constrained_sum_examples():
    sh = Shape((2,))
    a, b = B(1, 1), B(1, 2)
    lt = ConstraintSystem(sh, False, (Constraint(a, "<", b),))
    rep = constrained_sum(lt, {a: 1, b: 2}, 10_000)
    assert abs(rep.value - ZETA3) < 1e-2

    eq = ConstraintSystem(sh, False, (Constraint(a, "<=", b), Constraint(b, "<=", a)))
    rep = constrained_sum(eq, {a: 2, b: 1}, 1000)
    expected = sum(n ** (-3.0) for n in range(1, 1001))
    assert abs(rep.value - expected) < 1e-12

    free = ConstraintSystem(Shape((1,)), False, ())
    rep = constrained_sum(free, {B(1, 1): 0}, 7)
    assert rep.value == 7


def test_engine_matches_bruteforce_direct_path():
    cases = [
        (Shape((1,)), (2.5 + 0.0j,)),
        (Shape((2,)), (1.5 + 0.5j, 2.5 + 0.0j)),
        (Shape((1, 1)), (1.5 + 0.0j, 1.6 + 1.0j)),
        (Shape((2, 1)), (1.2 + 0.3j, 2.2 + 0.0j, 1.5 + 0.0j)),
        # all-singleton depth 3: exercises two middle levels between the
        # coupled pair inside one weak-order chain
        (Shape((1, 1, 1)), (1.5 + 0.0j, 1.4 + 0.2j, 1.6 + 0.0j)),
    ]
    n = 12
    for shape, vals in cases:
        s = ComplexArgs(shape, vals)
        exps = {B(i, j): s[(i, j)] for (i, j) in shape.positions()}
        exps[EXTRA] = 0
        for i in range(1, shape.d + 1):
            r_i = shape.r[i - 1]
            for j in range(1, r_i + 1):
                cs = build_constraints_S_ij(shape, i, j)
                delta = 1 if j == r_i else 0
                for variant, (ne, de) in (
                    (1, (delta, delta)),
                    (2, (s[(i, j)], s[(i, j)])),
                ):
                    got = eval_zeta_tilde(s, i, j, variant, n).value
                    want = brute_term_sum(
                        cs, exps, n, pole=(B(i, j), EXTRA, ne, de)
                    )
                    assert abs(got - want) < 1e-11, (shape, i, j, variant)
                got = eval_zeta_tilde(s, i, j, "diff", n).value
                want = brute_term_sum(
                    cs, exps, n, pole=(B(i, j), EXTRA, delta, delta)
                ) - brute_term_sum(
                    cs, exps, n, pole=(B(i, j), EXTRA, s[(i, j)], s[(i, j)])
                )
                assert abs(got - want) < 1e-11


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_engine_property_random_systems(data):
    """Random acyclic mixed systems with random exponents and an optional
    pole factor agree with pointwise enumeration."""
    k = data.draw(st.integers(min_value=2, max_value=4), label="vars")
    vs = [B(1, j + 1) for j in range(k)]
    hidden = data.draw(
        st.lists(st.integers(0, 2), min_size=k, max_size=k), label="levels"
    )
    cons = []
    for (x, y) in itertools.combinations(range(k), 2):
        if not data.draw(st.booleans(), label=f"edge{x}{y}"):
            continue
        if hidden[x] == hidden[y]:
            cons.append(Constraint(vs[x], "<=", vs[y]))
        else:
            lo, hi = (x, y) if hidden[x] < hidden[y] else (y, x)
            rel = "<" if data.draw(st.booleans(), label=f"rel{x}{y}") else "<="
            cons.append(Constraint(vs[lo], rel, vs[hi]))
    cs = ConstraintSystem(Shape((k,)), False, tuple(cons))
    exps = {}
    for v in vs:
        re = data.draw(st.floats(min_value=0.0, max_value=3.0), label=f"re{v}")
        im = data.draw(st.floats(min_value=-2.0, max_value=2.0), label=f"im{v}")
        exps[v] = complex(re, im)
    # optional pole between a strictly separated pair
    pole = None
    strict_pairs = [c for c in cons if c.rel == "<"]
    if strict_pairs and data.draw(st.booleans(), label="with_pole"):
        c = strict_pairs[0]
        pole = (c.lhs, c.rhs, complex(1), complex(1))
    n = 8
    got = constrained_sum(cs, exps, n, pole).value
    want = brute_term_sum(cs, exps, n, pole=pole)
    assert abs(got - want) < 1e-10


def test_zeta_c_matches_bruteforce():
    s = ComplexArgs(Shape((2, 1)), (1.2 + 0.3j, 2.2, 1.5))
    n = 14
    exps = {B(i, j): s[(i, j)] for (i, j) in s.shape.positions()}
    got = eval_zeta_C(s, n).value
    assert abs(got - brute_term_sum(build_constraints_S(s.shape), exps, n)) < 1e-12
    exps_n = dict(exps)
    exps_n[EXTRA] = 1
    for i in (1, 2):
        got = eval_zeta_C_i(s, i, n).value
        want = brute_term_sum(build_constraints_S_i(s.shape, i), exps_n, n)
        assert abs(got - want) < 1e-12


# direct tail summation horizon for the open-ended harmonic case
TAIL_HORIZON = 200_000


@functools.lru_cache(maxsize=None)
def tail_sum(a, m0):
    """sum of a / (t (t - a)) for m0 <= t < TAIL_HORIZON."""
    t = np.arange(m0, TAIL_HORIZON, dtype=np.float64)
    return float(np.sum(a / (t * (t - a))))


def brute_harmonic(s, i, j, variant, n):
    """Outer chain enumerated, inner variable summed directly per point."""
    shape = s.shape
    r_i = shape.r[i - 1]
    if variant == 1 and j < r_i:
        cs = build_constraints_S(shape)

        def inner(pt):
            a, b = pt[B(i, j)], pt[B(i, j + 1)]
            return sum(1.0 / (t - a) for t in range(a + 1, b))

    elif variant == 1:
        cs = build_constraints_T_i(shape, i)
        prev = shape.wrap_block(i - 1)

        def inner(pt):
            a = pt[B(i, r_i)]
            return tail_sum(a, max(a + 1, pt[B(prev, 1)]))

    elif j == 1:
        nxt = shape.wrap_block(i + 1)
        cs = build_constraints_T_i(shape, nxt)

        def inner(pt):
            c = pt[B(i, 1)]
            top = pt[B(nxt, shape.r[nxt - 1])]
            return sum(1.0 / (c - t) for t in range(1, min(c - 1, top) + 1))

    else:
        cs = build_constraints_S(shape)

        def inner(pt):
            a, b = pt[B(i, j - 1)], pt[B(i, j)]
            return sum(1.0 / (b - t) for t in range(a + 1, b))

    want = 0j
    for pt in lattice_points(cs, n):
        w = 1.0 + 0j
        for (bi, bj) in shape.positions():
            w *= pt[B(bi, bj)] ** (-complex(s[(bi, bj)]))
        want += w * inner(pt)
    return want


def harmonic_tolerance(s, i, j, variant):
    # the open-ended case is cut at the tail horizon
    return 2e-5 if (variant == 1 and j == s.shape.r[i - 1]) else 1e-11


def test_harmonic_path_matches_bruteforce():
    cases = [
        (Shape((2,)), (1.5, 2.5)),
        (Shape((2, 1)), (1.2, 2.2, 1.5)),
        (Shape((1, 1)), (1.5, 1.6)),
    ]
    n = 10
    for shape, vals in cases:
        s = ComplexArgs(shape, vals)
        for i, j in shape.positions():
            for variant in (1, 2):
                got = eval_zeta_tilde_harmonic(s, i, j, variant, n).value
                want = brute_harmonic(s, i, j, variant, n)
                assert abs(got - want) < harmonic_tolerance(s, i, j, variant), (
                    shape, i, j, variant)


# --- spec examples for the named series -------------------------------------


def test_zeta_tilde_examples():
    s = ComplexArgs(Shape((1,)), (3.0,))
    rep = eval_zeta_tilde(s, 1, 1, "diff", TruncationPlan(2000))
    assert abs(rep.value - ZETA4) < 2e-3

    s2 = ComplexArgs(Shape((1,)), (2.0,))
    rep = eval_zeta_tilde(s2, 1, 1, 2, 2)
    # only the point (n_1, n) = (1, 2) fits below the cutoff
    assert abs(rep.value - 0.25) < 1e-15

    s3 = ComplexArgs(Shape((2,)), (1.5, 2.5))
    rep = eval_zeta_tilde(
        s3, 1, 1, "diff", TruncationPlan(1000, refinements=(125, 250, 500, 1000))
    )
    vals = [v for _, v in rep.refinements]
    deltas = [abs(vals[t + 1] - vals[t]) for t in range(len(vals) - 1)]
    assert deltas[-1] < deltas[0]


def test_zeta_tilde_domain_guard():
    s = ComplexArgs(Shape((2,)), (0.5, 1.2))
    with pytest.raises(DomainError):
        eval_zeta_tilde(s, 1, 1, 1, 100)


def test_harmonic_two_path_diagnostic():
    s = ComplexArgs(Shape((2,)), (1.5, 2.5))
    h500 = eval_zeta_tilde_harmonic(s, 1, 1, 1, 500).value
    d500 = eval_zeta_tilde(s, 1, 1, 1, 500).value
    d250 = eval_zeta_tilde(s, 1, 1, 1, 250).value
    assert abs(h500 - d500) < abs(h500 - d250)


def test_zeta_c_examples():
    s = ComplexArgs(Shape((1,)), (3.0,))
    rep = eval_zeta_C_i(s, 1, 200_000)
    assert abs(rep.value - ZETA4) < 1e-4

    s2 = ComplexArgs(Shape((1, 1)), (2.0, 2.0))
    rep = eval_zeta_C(s2, 100_000)
    assert abs(rep.value - ZETA4) < 1e-4

    s3 = ComplexArgs(Shape((2,)), (1.5, 2.5))
    got = eval_zeta_C(s3, 5000).value
    want = eval_mzf([1.5, 2.5], 5000).value
    assert got == want


def test_theorem_residual_examples():
    plan = TruncationPlan(1000, refinements=(125, 250, 500, 1000))
    s = ComplexArgs(Shape((1,)), (3.0,))
    rep = eval_theorem_residual(s, plan)
    resids = [q for _, _, _, q in rep.refinements]
    assert all(b < a for a, b in zip(resids, resids[1:]))
    assert abs(rep.rhs - ZETA4) < 1e-3

    s2 = ComplexArgs(Shape((2,)), (1.5 + 0.5j, 2.5))
    rep = eval_theorem_residual(s2, TruncationPlan(1000, refinements=(250, 1000)))
    r = {n: q for n, _, _, q in rep.refinements}
    assert r[1000] < r[250]

    s3 = ComplexArgs(Shape((1, 1)), (1.5, 1.6))
    rep = eval_theorem_residual(s3, plan)
    resids = [q for _, _, _, q in rep.refinements]
    assert all(b < a for a, b in zip(resids, resids[1:]))


# --- plain nested series -----------------------------------------------------


def test_mzf_examples():
    rep = eval_mzf([2.0], 1_000_000)
    assert abs(rep.value - ZETA2) < 1e-6
    rep = eval_mzf([1.0, 2.0], 200_000)
    assert abs(rep.value - ZETA3) < 1e-4
    rep = eval_mzf([2.0 + 1.0j], TruncationPlan(100_000))
    assert rep.residual < 1e-4
    with pytest.raises(DomainError):
        eval_mzf([0.5], 100)
    with pytest.raises(ValueError):
        eval_mzf([], 100)


def test_plans_read_integer_cutoffs_only():
    for bad in (lambda: TruncationPlan(10.5), lambda: TruncationPlan(10, (2.5, 10)),
                lambda: TruncationPlan("10"), lambda: eval_mzf([2.0], 10.9),
                lambda: eval_mzf([2.0], TruncationPlan(10.0))):
        with pytest.raises(ValueError, match="cutoffs must be integers"):
            bad()
    plan = TruncationPlan(np.int64(10), refinements=(np.int32(5), 10))
    assert plan == TruncationPlan(10, (5, 10)) and type(plan.cutoff) is int
    assert eval_mzf([2.0], np.int64(10)) == eval_mzf([2.0], 10)


def test_mzv_partial_sum_matches_direct():
    want = sum(
        1.0 / (a * b**3) for b in range(1, 101) for a in range(1, b)
    )
    assert abs(mzv_partial_sum((1, 3), 100) - want) < 1e-13


def test_mordell_tornheim_examples():
    mt = eval_mordell_tornheim(2, 1, 1, 2000).value
    z13 = eval_mzf([1.0, 3.0], 2000).value
    assert abs(mt - z13 - ZETA4) < 1e-2

    # degenerate separable check: s3 = 0 splits the double sum
    with pytest.warns(UserWarning):
        small = eval_mordell_tornheim(2, 0, 0, 50)
    direct = sum(m ** (-2.0) for m in range(1, 51)) * 50
    assert abs(small.value - direct) < 1e-10

    rep = eval_mordell_tornheim(2, 2, 2, TruncationPlan(2000, refinements=(1000, 2000)))
    assert rep.residual < 1e-5


def test_mordell_tornheim_warns_outside_convergence():
    with pytest.warns(UserWarning):
        eval_mordell_tornheim(0.2, 0.2, 0.2, 20)


def test_harmonic_relation_check():
    assert harmonic_relation_check(2.0, 2.0, 10_000) < 1e-3
    assert harmonic_relation_check(2.0, 3.0 + 1.0j, 10_000) < 1e-3
    # at matched box truncation the four pieces tile the product box exactly
    assert harmonic_relation_check(2.0, 2.0, 1) < 1e-15


# --- cross-cutting invariants ------------------------------------------------


def test_numeric_oracle_engine_matches_decomposition():
    # generic engine vs. symbol-wise partial sums of the exact decomposition:
    # identical at every matched box cutoff up to rounding
    from cycliczeta.decompose import decompose_to_mzv
    from cycliczeta.series import combo_partial_sum

    cases = [
        (build_constraints_S_ij(Shape((2,)), 1, 1), {B(1, 1): 1, B(1, 2): 2, EXTRA: 2}),
        (build_constraints_S_ij(Shape((2, 1)), 1, 2), {B(1, 1): 1, B(1, 2): 1, B(2, 1): 2, EXTRA: 2}),
        (build_constraints_S_i(Shape((1, 1)), 2), {B(1, 1): 2, B(2, 1): 1, EXTRA: 1}),
    ]
    for cs, exps in cases:
        combo = decompose_to_mzv(cs, exps)
        for n in (10, 100, 400):
            got = constrained_sum(cs, exps, n).value.real
            want = combo_partial_sum(combo, n)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (str(cs), n)


def test_zero_exponent_counting_matches_oracle():
    for shape, i, j in [(Shape((2, 1)), 1, 1), (Shape((1, 1)), 2, 1)]:
        cs = build_constraints_S_ij(shape, i, j)
        exps = {v: 0 for v in cs.variables}
        for n in (5, 12, 30):
            got = constrained_sum(cs, exps, n).value
            assert int(round(got.real)) == count_lattice_points(cs, n)


def test_conjugation_symmetry_is_exact():
    s = ComplexArgs(Shape((2,)), (1.5 + 0.5j, 2.5 - 0.25j))
    v1 = eval_zeta_tilde(s, 1, 1, "diff", 200).value
    v2 = eval_zeta_tilde(s.conjugate(), 1, 1, "diff", 200).value
    assert v1 == v2.conjugate()
    m1 = eval_mzf([2 + 1j, 3 - 0.5j], 5000).value
    m2 = eval_mzf([2 - 1j, 3 + 0.5j], 5000).value
    assert m1 == m2.conjugate()
    t1 = eval_mordell_tornheim(2 + 1j, 1, 1 - 0.5j, 300).value
    t2 = eval_mordell_tornheim(2 - 1j, 1, 1 + 0.5j, 300).value
    assert t1 == t2.conjugate()


def test_determinism_bit_identical():
    s = ComplexArgs(Shape((2, 1)), (1.2 + 0.3j, 2.2, 1.5))
    a = eval_theorem_residual(s, 300)
    b = eval_theorem_residual(s, 300)
    assert a.lhs == b.lhs and a.rhs == b.rhs


def test_telescoping_defect_at_rounding_level():
    # Box truncation is symmetric under swapping the extra variable with the
    # neighbouring slot, so the two split series agree exactly at every
    # cutoff; the defect is floating rounding only.
    s = ComplexArgs(Shape((2,)), (1.5, 2.5))
    for n in (125, 250, 500):
        v1 = eval_zeta_tilde(s, 1, 1, 1, n).value
        v2 = eval_zeta_tilde(s, 1, 2, 2, n).value
        assert abs(v1 - v2) < 1e-12


def test_pole_on_unseparated_variables_is_internal_error():
    from cycliczeta.errors import InternalInvariantError

    sh = Shape((2,))
    a, b = B(1, 1), B(1, 2)
    cs = ConstraintSystem(sh, False, (Constraint(a, "<=", b),))
    with pytest.raises(InternalInvariantError):
        constrained_sum(cs, {a: 1, b: 2}, 10, pole=(a, b, 0, 0))


def test_budget_cap():
    s = ComplexArgs(Shape((1,)), (3.0,))
    with pytest.raises(BudgetError):
        eval_zeta_tilde(s, 1, 1, 1, 100_000)
    with pytest.raises(BudgetError):
        eval_mzf([2.0], 10**8)
    # refinement cutoffs count against the budget too
    with pytest.raises(BudgetError):
        eval_zeta_tilde(s, 1, 1, 1, TruncationPlan(100, refinements=(50, 100_000)))


def small_systems(depths):
    """The S, S_i, T_i and S_ij systems of every shape of the given total depths."""
    systems = []
    for depth in depths:
        for blocks in compositions(depth):
            shape = Shape(blocks)
            systems += [build_constraints_S(shape)]
            systems += [build_constraints_S_i(shape, i) for i in range(1, shape.d + 1)]
            systems += [build_constraints_T_i(shape, i) for i in range(1, shape.d + 1)]
            systems += [build_constraints_S_ij(shape, i, j) for i, j in shape.positions()]
    return systems


def test_every_filter_has_a_step():
    """Every filter of the order-filter DAG of every S, S_i, T_i and S_ij
    system of total depth <= 5 has a next level, so every edge is on a path
    to the sink and `_edges` keeps them all."""
    systems, filters = small_systems(range(1, 6)), 0
    assert len(systems) == 320
    for cs in systems:
        _, steps = decompose._filter_steps(cs)
        assert all(steps.values()), cs
        assert all(rest in steps for rests in steps.values() for rest in rests if rest)
        filters += len(steps)
    assert filters == 2466


def test_report_serialization():
    rep = eval_mzf([2.0], TruncationPlan(100, refinements=(50, 100)))
    obj = rep.to_json_obj()
    assert obj["cutoff"] == 100
    assert len(obj["refinements"]) == 2
    assert isinstance(obj["value"][0], float)


# --- one pass for every cutoff ------------------------------------------------

# Cutoffs around the edges of segments of 3 values (3 and 6 are edges; the
# report also asks for 8 // 2 = 4).
STREAM_PLAN = TruncationPlan(8, refinements=(1, 2, 3, 5, 6, 8))
SHAPE_21 = ComplexArgs(Shape((2, 1)), (1.2 + 0.3j, 2.2 - 0.1j, 1.5 + 0.2j))


def brute_nested(vals, n):
    total = 0j
    for pt in itertools.combinations(range(1, n + 1), len(vals)):
        term = 1.0 + 0j
        for x, e in zip(pt, vals):
            term *= x ** (-complex(e))
        total += term
    return total


def brute_tilde(s, i, j, variant, n):
    exps = {B(a, b): s[(a, b)] for (a, b) in s.shape.positions()}
    exps[EXTRA] = 0
    cs = build_constraints_S_ij(s.shape, i, j)
    delta = 1 if j == s.shape.r[i - 1] else 0
    halves = {1: (delta, delta), 2: (s[(i, j)], s[(i, j)])}
    if variant == "diff":
        return brute_tilde(s, i, j, 1, n) - brute_tilde(s, i, j, 2, n)
    ne, de = halves[variant]
    return brute_term_sum(cs, exps, n, pole=(B(i, j), EXTRA, ne, de))


def brute_window(s, i, n):
    exps = {B(a, b): s[(a, b)] for (a, b) in s.shape.positions()}
    if i is None:
        return brute_term_sum(build_constraints_S(s.shape), exps, n)
    exps[EXTRA] = 1
    return brute_term_sum(build_constraints_S_i(s.shape, i), exps, n)


def assert_refinements(rep, want, tol=1e-12):
    for n, got in rep.refinements:
        assert abs(got - want(n)) < tol, n
    assert abs(rep.residual - abs(rep.value - want(rep.cutoff // 2))) < tol


def test_segmented_stream_matches_bruteforce(monkeypatch):
    monkeypatch.setattr(series, "_SEGMENT", 3)
    s, plan = SHAPE_21, STREAM_PLAN
    for i, j in s.shape.positions():
        for variant in (1, 2, "diff"):
            assert_refinements(eval_zeta_tilde(s, i, j, variant, plan),
                               lambda n: brute_tilde(s, i, j, variant, n))
        for variant in (1, 2):
            assert_refinements(eval_zeta_tilde_harmonic(s, i, j, variant, plan),
                               lambda n: brute_harmonic(s, i, j, variant, n),
                               tol=harmonic_tolerance(s, i, j, variant))
    assert_refinements(eval_zeta_C(s, plan), lambda n: brute_window(s, None, n))
    for i in (1, 2):
        assert_refinements(eval_zeta_C_i(s, i, plan), lambda n: brute_window(s, i, n))

    rep = eval_theorem_residual(s, plan)
    for n, lhs, rhs, q in rep.refinements:
        want_lhs = sum(brute_tilde(s, i, j, "diff", n) for i, j in s.shape.positions())
        want_rhs = sum(brute_window(s, i, n) for i in (1, 2))
        assert abs(lhs - want_lhs) < 1e-12 and abs(rhs - want_rhs) < 1e-12, n
        assert q == abs(lhs - rhs)

    vals = [1.5 + 0.5j, 2.0 - 0.3j, 1.2]
    assert_refinements(eval_mzf(vals, plan), lambda n: brute_nested(vals, n))

    # a pole beside plain levels: x < y <= z with the pole on (x, y)
    x, y, z = B(1, 1), B(1, 2), B(1, 3)
    cs = ConstraintSystem(Shape((3,)), False,
                          (Constraint(x, "<", y), Constraint(y, "<=", z)))
    exps = {x: 1.1 + 0.2j, y: 0.7, z: 1.3 - 0.4j}
    pole = (x, y, 1, 0.5 + 0.1j)
    assert_refinements(constrained_sum(cs, exps, plan, pole),
                       lambda n: brute_term_sum(cs, exps, n, pole=pole))
    assert_refinements(constrained_sum(cs, exps, plan),
                       lambda n: brute_term_sum(cs, exps, n))


@pytest.mark.parametrize("segment", [3, 1 << 16])
def test_refinements_equal_single_cutoff_calls(monkeypatch, segment):
    """Every cutoff read off the one pass is bit-identical to a separate
    evaluation at that cutoff, for plain and coupled chains alike (coupled
    cutoffs straddle and hit the 256-row chunk edges)."""
    monkeypatch.setattr(series, "_SEGMENT", segment)
    s, s3 = SHAPE_21, ComplexArgs(Shape((1, 1, 1)), (1.5 + 0.1j, 1.4 + 0.2j, 1.6))

    def check(fn, ns):
        rep = fn(TruncationPlan(ns[-1], refinements=ns))
        for n, v in rep.refinements:
            assert v == fn(n).value, n
        assert rep.residual == abs(rep.value - fn(ns[-1] // 2).value)

    plain = (1, 2, 3, 7, 9, 40)
    check(lambda p: eval_zeta_C(s, p), plain)
    check(lambda p: eval_zeta_C_i(s, 1, p), plain)
    check(lambda p: eval_mzf([1.5 + 0.5j, 2.0 - 0.3j, 1.2], p), plain)
    coupled = (1, 2, 255, 256, 257, 300, 513, 520)
    check(lambda p: eval_zeta_tilde(s3, 2, 1, "diff", p), coupled)
    check(lambda p: eval_zeta_tilde(s, 1, 2, 1, p), coupled)
    check(lambda p: eval_zeta_tilde_harmonic(s, 2, 1, 1, p), coupled)
    check(lambda p: eval_zeta_tilde_harmonic(s, 1, 1, 2, p), coupled)

    rep = eval_theorem_residual(s, TruncationPlan(257, refinements=(2, 256, 257)))
    for n, lhs, rhs, q in rep.refinements:
        single = eval_theorem_residual(s, n)
        assert (lhs, rhs, q) == (single.lhs, single.rhs, single.residual), n


def test_mzf_stable_across_segment_sizes(monkeypatch):
    vals = [1.5 + 0.4j, 1.5 - 0.2j, 2.0]
    got = []
    for segment in (1 << 16, 4099, 999_983):
        monkeypatch.setattr(series, "_SEGMENT", segment)
        got.append(eval_mzf(vals, 200_001).value)
    assert all(abs(v - got[0]) <= 1e-12 * abs(got[0]) for v in got[1:])


def test_conjugation_exact_across_segments(monkeypatch):
    m1 = eval_mzf([2 + 1j, 1.5 - 0.5j], 200_001).value  # four segments
    m2 = eval_mzf([2 - 1j, 1.5 + 0.5j], 200_001).value
    assert m1 == m2.conjugate()
    monkeypatch.setattr(series, "_SEGMENT", 7)
    s = SHAPE_21
    plan = TruncationPlan(60, refinements=(13, 14, 60))
    for fn in (lambda a: eval_zeta_C(a, plan),
               lambda a: eval_zeta_C_i(a, 2, plan),
               lambda a: eval_zeta_tilde_harmonic(a, 2, 1, 1, plan)):
        r1, r2 = fn(s), fn(s.conjugate())
        assert r1.value == r2.value.conjugate()
        assert all(v == w.conjugate()
                   for (_, v), (_, w) in zip(r1.refinements, r2.refinements))


def test_cutoff_one():
    s = SHAPE_21
    assert eval_mzf([2 + 1j], 1).value == 1
    assert eval_mzf([2 + 1j, 3], 1).value == 0
    for i, j in s.shape.positions():
        assert eval_zeta_tilde(s, i, j, "diff", 1).value == 0
        for variant in (1, 2):
            got = eval_zeta_tilde_harmonic(s, i, j, variant, 1).value
            assert abs(got - brute_harmonic(s, i, j, variant, 1)) < 2e-5
    for i in (None, 1, 2):
        rep = eval_zeta_C(s, 1) if i is None else eval_zeta_C_i(s, i, 1)
        assert abs(rep.value - brute_window(s, i, 1)) < 1e-15
        assert rep.residual == abs(rep.value)
    rep = eval_theorem_residual(s, TruncationPlan(1, refinements=(1,)))
    assert rep.lhs == 0 and rep.refinements == [(1, rep.lhs, rep.rhs, rep.residual)]



# --- plain sums against the per-weak-order, summed-exponent route ------------


def reference_chain_plain(chains, cutoffs):
    """The plain-chain route before prefix sharing: every chain on its own,
    each level one power vector of its summed exponent, streamed over the
    same segments."""
    top = max(cutoffs, default=0)
    carries = [[0] * (len(levels) - 1) for levels, _ in chains]
    totals = [[0j] * len(cutoffs) for _ in chains]
    for s0 in range(0, top, series._SEGMENT):
        s1 = min(s0 + series._SEGMENT, top)
        power = series._power_table(s1, s0)
        x = np.arange(s0 + 1, s1 + 1, dtype=np.float64)
        for (levels, weight), carry, total in zip(chains, carries, totals):
            run = None
            for l, members in enumerate(levels):
                g = power(sum(members, 0j))
                if weight is not None and weight[0] == l:
                    g = g * weight[1](x)
                if run is not None:
                    pre = np.empty(s1 - s0 + 1, dtype=run.dtype)
                    pre[0] = carry[l - 1]
                    pre[1:] = run
                    np.cumsum(pre, out=pre)
                    carry[l - 1] = pre[-1]
                    g = g * pre[:-1]
                run = g
            for k, n in enumerate(cutoffs):
                if n > s0:
                    total[k] += complex(run[:min(n, s1) - s0].sum())
    return totals


def reference_system(cs, exps, cutoffs):
    """The sum over cs by the reference route: every weak order one chain;
    exps are listed in the order of cs.variables."""
    at = dict(zip(cs.variables, exps))
    chains = [([[at[v] for v in lvl if at[v] != 0] for lvl in osp.levels], None)
              for osp in weak_orders(cs)]
    return [sum(col, 0j) for col in zip(*reference_chain_plain(chains, cutoffs))]


def chain_steps(levels):
    """A chain of exponent levels as the steps of its one path and the
    exponents by index; an empty level is one variable of exponent 0."""
    exps, path = [], []
    for lvl in levels:
        lvl = lvl or (0,)
        path.append(tuple(range(len(exps), len(exps) + len(lvl))))
        exps.extend(lvl)
    return series._path(path), exps


def assert_close(got, want):
    assert all(abs(v - w) <= 1e-13 * abs(w) for v, w in zip(got, want)), (got, want)


def test_dag_node_carry_advances_once_per_segment(monkeypatch):
    """A filter reached by two edges keeps one run and one carry: over five
    segments of 3 values the sum at every cutoff equals, bit for bit, a
    call at that cutoff alone, and matches the sum of the four paths."""
    monkeypatch.setattr(series, "_SEGMENT", 3)
    a, b, c, d = exps = [1.5 + 0.4j, 0.7 - 0.3j, 1.1 + 0.2j, 2.0 - 0.6j]
    # a < b or b < a, both into the filter {c, d}; then c = d or c < d
    steps = {0b1000: (0,), 0b1100: (0, 0b1000), 0b1101: (0b1100,), 0b1110: (0b1100,),
             0b1111: (0b1110, 0b1101)}
    cutoffs = (1, 2, 4, 7, 9, 13)
    got = series._chain_plain(steps, exps, cutoffs)
    for n, v in zip(cutoffs, got):
        assert v == series._chain_plain(steps, exps, (n,))[0], n
    paths = [[(x,), (y,), *tail] for x, y in ((a, b), (b, a))
             for tail in ([(c, d)], [(c,), (d,)])]
    want = reference_chain_plain([(p, None) for p in paths], cutoffs)
    assert_close(got, [sum(col) for col in zip(*want)])


# (shape, arguments) of the window and full series compared with the
# summed-exponent route.
ORACLE_CASES = [
    ComplexArgs(Shape((2, 1)), (1.2 + 0.3j, 2.2 - 0.1j, 1.5 + 0.2j)),
    ComplexArgs(Shape((2, 2)), (1.2 - 0.2j, 2.2 + 0.4j, 1.5 + 0.1j, 2.5 - 0.3j)),
]
ORACLE_PLAN = TruncationPlan(200_001, refinements=(65_536, 65_537, 131_073, 200_001))


@pytest.mark.parametrize("s", ORACLE_CASES, ids=["2,1", "2,2"])
def test_plain_chains_match_summed_exponent_route(s):
    """The full and window series agree with the sum over their weak orders
    of the reference route to 1e-13 relative at every cutoff, and
    conjugating the arguments conjugates them exactly."""
    cases = [(lambda a: eval_zeta_C(a, ORACLE_PLAN), build_constraints_S(s.shape), ())]
    cases += [(lambda a, i=i: eval_zeta_C_i(a, i, ORACLE_PLAN),
               build_constraints_S_i(s.shape, i), (1,)) for i in (1, 2)]
    for fn, cs, extra in cases:
        r1, r2 = fn(s), fn(s.conjugate())
        want = reference_system(cs, [*s.values, *extra], ORACLE_PLAN.refinements)
        assert_close([v for _, v in r1.refinements], want)
        assert all(v == w.conjugate()
                   for (_, v), (_, w) in zip(r1.refinements, r2.refinements))


def test_tied_chains_match_summed_exponent_route():
    """mzf-style chains with tied and empty levels given as one-path steps,
    and their conjugates."""
    a, b, c = 1.5 + 0.4j, 0.6 - 0.3j, 1.3 + 0.2j
    ns = ORACLE_PLAN.refinements
    for levels in ([(a, b), (c,)], [(a,), (b, c)], [(), (c, a, b)], [(b,), (), (a, c)]):
        steps, exps = chain_steps(levels)
        got = series._chain_plain(steps, exps, ns)
        assert_close(got, reference_chain_plain([(levels, None)], ns)[0])
        flipped = series._chain_plain(steps, [e.conjugate() for e in exps], ns)
        assert all(v == w.conjugate() for v, w in zip(got, flipped))


def compositions(n):
    """Every shape of total depth n, as block lengths."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        blocks = [1]
        for cut in cuts:
            if cut:
                blocks.append(1)
            else:
                blocks[-1] += 1
        yield tuple(blocks)


def test_variables_are_the_block_positions_then_n():
    """The convention both pipelines rely on, as they list exponents and
    name coupled variables by position in cs.variables: for every shape of
    total depth <= 5, S_ij and S_i hold the block positions in order and
    then n, at position total_depth, and S and T_i the block positions."""
    for depth in range(1, 6):
        for blocks in compositions(depth):
            shape = Shape(blocks)
            block = tuple(shape.block_vars())
            assert [block.index(B(i, j)) for i, j in shape.positions()] == \
                [shape.offset(i, j) for i, j in shape.positions()]
            assert build_constraints_S(shape).variables == block
            for i in range(1, shape.d + 1):
                assert build_constraints_T_i(shape, i).variables == block
                assert build_constraints_S_i(shape, i).variables == (*block, EXTRA)
                for j in range(1, shape.r[i - 1] + 1):
                    cs = build_constraints_S_ij(shape, i, j)
                    assert cs.variables == (*block, EXTRA)
                    assert cs.variables[shape.total_depth] == EXTRA


@pytest.mark.parametrize("depths", [range(1, 6),
                                    pytest.param(range(6, 7), marks=pytest.mark.slow)],
                         ids=["depth<=5", "depth6"])
def test_plain_sums_match_weak_order_route_on_every_small_shape(monkeypatch, depths):
    """S and every S_i of every shape of the given total depths: the DAG sum
    agrees with the sum over the weak orders of the reference route to
    1e-13 relative at cutoffs around three segments, and conjugating the
    exponents conjugates it exactly."""
    monkeypatch.setattr(series, "_SEGMENT", 8)
    ns = (1, 7, 8, 9, 20)
    for depth in depths:
        for blocks in compositions(depth):
            shape = Shape(blocks)
            args = ComplexArgs(shape, tuple(1.1 + 0.15 * k + (0.3j if k % 2 else -0.2j)
                                            for k in range(depth)))
            systems = [(build_constraints_S(shape), ())]
            systems += [(build_constraints_S_i(shape, i), (1,)) for i in range(1, shape.d + 1)]
            for cs, extra in systems:
                exps = [*args.values, *extra]
                got = series._eval_system(cs, exps, [(1.0, None)], ns)
                assert_close(got, reference_system(cs, exps, ns))
                conj = [complex(e).conjugate() for e in exps]
                flipped = series._eval_system(cs, conj, [(1.0, None)], ns)
                assert all(v == w.conjugate() for v, w in zip(got, flipped)), (blocks, cs)


# --- the coupled engine against the elementwise oracle ----------------------


def reference_chain_coupled(exps, n_max, p, q, members, power):
    """Elementwise coupled chain by top value: members are (coeff, fn) with
    fn(u, w) the cell factor over value arrays, u < w.  The cells are
    evaluated in chunks of 256 rows and summed column by column; the levels
    between p and q enter as an explicit (rows x N) prefix-sum matrix."""
    shift = couplings._shift_prefix
    run = None
    for l in range(p):
        g = power(exps[l])
        run = g if run is None else g * shift(run)
    a_pref = shift(run) if run is not None else np.ones(n_max)
    g_a = power(exps[p]) * a_pref

    mids = [power(exps[l]) for l in range(p + 1, q)]
    cums = np.cumsum(mids[0]) if mids else None
    vals = np.arange(1, n_max + 1, dtype=np.float64)
    chunk = 256
    upper = np.arange(chunk)[None, :] > np.arange(chunk)[:, None]
    col = np.zeros(n_max, dtype=complex)
    for u0 in range(0, n_max, chunk):
        u1 = min(u0 + chunk, n_max)
        rows = u1 - u0
        tri = upper[:rows, :rows]
        b_mid = None
        for l, g in enumerate(mids):
            if l == 0:
                b_mid = cums[None, u0:] - cums[u0:u1, None]
                b_mid[:, :rows] = np.where(tri, b_mid[:, :rows], 0)
            else:
                sh = np.concatenate(
                    [np.zeros((rows, 1), dtype=b_mid.dtype), b_mid[:, :-1]], axis=1
                )
                b_mid = np.cumsum(g[None, u0:] * sh, axis=1)
        if b_mid is not None:
            b_mid = np.concatenate(
                [np.zeros((rows, 1), dtype=b_mid.dtype), b_mid[:, :-1]], axis=1
            )
        with np.errstate(all="ignore"):
            cells = None
            for coeff, fn in members:
                f = coeff * fn(vals[u0:u1, None], vals[None, u0:])
                cells = f if cells is None else cells + f
            block = g_a[u0:u1, None] * cells
            if b_mid is not None:
                block = block * b_mid
        block[:, :rows] = np.where(tri, block[:, :rows], 0)
        col[u0:] += block.sum(axis=0)

    run = power(exps[q]) * col
    for l in range(q + 1, len(exps)):
        run = power(exps[l]) * shift(run)
    return run


# Elementwise cell factors f(a, b) of the couplings, over value arrays.


def pole_cell(ne, de):
    return lambda a, b: couplings.cpow(a, ne) * couplings.cpow(b, -de) / (b - a)


def harmonic(k):
    """H(k) elementwise over an array of integers k >= 0."""
    k = k.astype(np.int64)
    return couplings.harmonic_table(int(k.max()))[k]


def gap_cell(a, b):
    return harmonic(np.maximum(b - a - 1, 0))


def wrap1_cell(a, b):
    return harmonic(np.maximum(b, a - 1)) - harmonic(np.maximum(a - b - 1, 0))


def wrap2_cell(a, b):
    return harmonic(a - 1) - harmonic(np.maximum(a - b - 1, 0))


COUPLED_CUTOFFS = (1, 2, 255, 256, 257, 511, 512, 513, 700)


def random_exponent(rng):
    return complex(rng.choice([0.0, 1.0, rng.uniform(0.3, 2.5)]),
                   rng.choice([0.0, rng.uniform(-1.0, 1.0)]))


def random_coupling(rng, kind):
    """(engine coupling, oracle cell factor f(a, b)) of one kind."""
    a, b = 0, 1
    if kind == "pole":
        ne, de = random_exponent(rng), random_exponent(rng)
        return couplings.pole_coupling(a, b, ne, de), pole_cell(ne, de)
    make, cell = {"gap": (couplings.harmonic_gap, gap_cell),
                  "wrap1": (couplings.harmonic_wrap_1, wrap1_cell),
                  "wrap2": (couplings.harmonic_wrap_2, wrap2_cell)}[kind]
    return make(a, b), cell


def oriented(coeff, coupling, cell, below):
    """Engine terms and oracle member for var_a on the lower (below) or the
    upper level of the coupled pair."""
    terms = coupling.below if below else coupling.above
    fn = cell if below else (lambda u, w, _f=cell: _f(w, u))
    return [t._replace(coeff=coeff * t.coeff) for t in terms], (coeff, fn)


def test_coupled_engine_matches_reference():
    """Every chain length 2-5, every coupled pair (p, q) (0-3 levels between
    them), each coupling in both orientations and a mixture of all of them,
    at cutoffs around the 256-value chunk edges."""
    rng = random.Random(20201)
    kinds = [(k, below) for k in ("pole", "gap", "wrap1", "wrap2") for below in (True, False)]
    case = 0
    for t in range(2, 6):
        for p, q in itertools.combinations(range(t), 2):
            for mix in kinds + [None]:
                n = COUPLED_CUTOFFS[case % len(COUPLED_CUTOFFS)]
                case += 1
                exps = [complex(rng.uniform(0.5, 2.5), rng.uniform(-1, 1))
                        for _ in range(t)]
                terms, members = [], []
                for kind, below in [mix] if mix else kinds:
                    coeff = 1.0 if mix else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    coupling, cell = random_coupling(rng, kind)
                    ts, member = oriented(coeff, coupling, cell, below)
                    terms += ts
                    members.append(member)
                got = series._chain_coupled(exps, n, p, q, terms)
                want = reference_chain_coupled(exps, n, p, q, members,
                                               series._power_table(n))
                err = np.max(np.abs(got - want))
                assert err <= 1e-11 * np.sum(np.abs(want)), (t, p, q, mix, n, err)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 700])
@pytest.mark.parametrize("kernel, at", [(couplings.POLE, lambda d: 1.0 / d),
                                        (couplings.ONE, np.ones_like),
                                        (couplings.GAP, lambda d: harmonic(d - 1))],
                         ids=["pole", "one", "gap"])
def test_toeplitz_rows_matches_dense_product(kernel, at, n):
    """`toeplitz_rows` against the dense product with T[u, w] = K(w - u) for
    u < w (0 otherwise); its first m columns are bit-identical to a call on
    the rows cut at m, and conjugated rows give exactly conjugated output."""
    rng = np.random.default_rng(n)
    rows = list(rng.uniform(-1, 1, (3, n)) + 1j * rng.uniform(-1, 1, (3, n)))
    d = np.arange(n)[None, :] - np.arange(n)[:, None]
    dense = np.where(d > 0, at(np.maximum(d, 1).astype(np.float64)), 0.0)
    got = couplings.toeplitz_rows(rows, kernel)
    bound = np.abs(np.array(rows)) @ dense
    assert np.all(np.abs(got - np.array(rows) @ dense) <= 1e-13 * bound)
    for m in {1, max(n // 2, 1), max(n - 1, 1)}:
        cut = couplings.toeplitz_rows([x[:m] for x in rows], kernel)
        assert np.array_equal(cut, got[:, :m]), m
    flipped = couplings.toeplitz_rows([x.conj() for x in rows], kernel)
    assert np.array_equal(flipped, got.conj())


# --- the coupled DAG walk against the per-weak-order route -------------------


def reference_coupled_system(cs, exps, pieces, cutoffs):
    """The sum over cs by the per-weak-order route, each level one power of
    its summed exponent: the plain part and every coupling that ties its
    pair on one level by `reference_chain_plain`, the tie factor as the
    weight of that level, and every weak order's coupled chain for each
    pair on two levels through `series._chain_coupled`."""
    top = max(cutoffs)
    totals, chains, coeffs = [0j] * len(cutoffs), [], []
    at = {v: t for t, v in enumerate(cs.variables)}  # the positions the engine reads
    for osp in weak_orders(cs):
        level_of = {at[v]: l for l, lvl in enumerate(osp.levels) for v in lvl}
        levels = [[exps[at[v]] for v in lvl if exps[at[v]] != 0] for lvl in osp.levels]
        groups = {}
        for coeff, cp in pieces:
            if cp is None or level_of[cp.var_a] == level_of[cp.var_b]:
                chains.append((levels, cp and (level_of[cp.var_a], cp.tie)))
                coeffs.append(coeff)
                continue
            la, lb = level_of[cp.var_a], level_of[cp.var_b]
            terms = cp.below if la < lb else cp.above
            groups.setdefault((min(la, lb), max(la, lb)), []).extend(
                t._replace(coeff=coeff * t.coeff) for t in terms)
        level_exps = [sum(lvl, 0j) for lvl in levels]
        for (p, q), terms in sorted(groups.items()):
            if terms:
                run = series._chain_coupled(level_exps, top, p, q, terms)
                totals = [a + complex(run[:n].sum()) for a, n in zip(totals, cutoffs)]
    for coeff, row in zip(coeffs, reference_chain_plain(chains, cutoffs)):
        totals = [a + coeff * v for a, v in zip(totals, row)]
    return totals


def coupled_systems(args):
    """(system, exponents, pieces) of every S_ij with the 'diff', 1 and 2
    pieces and of every harmonic-form system (variants 1 and 2: GAP and ONE
    kernels, ties) of the arguments' shape, the latter also with a second,
    reversed coupling of the same pair, so that a tie sums two factors."""
    shape = args.shape
    for i, j in shape.positions():
        cs = build_constraints_S_ij(shape, i, j)
        for variant in ("diff", 1, 2):
            yield cs, [*args.values, 0], series._tilde_pieces(args, i, j, variant)
        for variant in (1, 2):
            cs_h, va, vb, coupling = series._tilde_harmonic_setup(args, i, j, variant)
            for extra in ((), ((-0.75, couplings.harmonic_wrap_1),)):
                yield (cs_h, list(args.values),
                       [(1.0, coupling(va, vb)), *((k, e(vb, va)) for k, e in extra)])


DAG_CUTOFFS = (1, 2, 255, 256, 257, 520)


@pytest.mark.parametrize("depths, tied_systems",
                         [(range(1, 5), 116),
                          pytest.param(range(5, 6), 188, marks=pytest.mark.slow)],
                         ids=["depth<=4", "depth5"])
def test_coupled_walk_matches_weak_order_route_on_every_small_shape(monkeypatch, depths,
                                                                   tied_systems):
    """Every S_ij and harmonic-form system of every shape of the given total
    depths: the cut-filter walk agrees with the sum of the per-weak-order
    coupled and tied chains at cutoffs around the 256-value tile edges to
    1e-12 of the largest value (a sum that is 0 in exact arithmetic, as at
    small cutoffs, may come out as a rounding residue), and conjugating
    every argument conjugates it exactly.  The walk reaches a tie edge with
    a nonzero tie factor exactly on the systems where some weak order ties
    the pair with a nonzero factor, and tied_systems systems do."""
    factors = []
    real_tie = couplings.Coupling.tie

    def spy(cp, x):
        f = real_tie(cp, x)
        factors.append(bool(np.any(f != 0)))
        return f

    monkeypatch.setattr(couplings.Coupling, "tie", spy)
    tied = 0
    for depth in depths:
        for blocks in compositions(depth):
            shape = Shape(blocks)
            args = ComplexArgs(shape, tuple(1.2 + 0.15 * k + (0.3j if k % 2 else -0.2j)
                                            for k in range(depth)))
            conj = zip(coupled_systems(args), coupled_systems(args.conjugate()))
            for (cs, exps, pieces), (_, exps_c, pieces_c) in conj:
                factors.clear()
                got = series._eval_system(cs, exps, pieces, DAG_CUTOFFS)
                walk_tied = any(factors)
                factors.clear()
                want = reference_coupled_system(cs, exps, pieces, DAG_CUTOFFS)
                assert walk_tied == any(factors), (blocks, cs)
                tied += walk_tied
                scale = max(abs(w) for w in want)
                assert all(abs(v - w) <= 1e-12 * scale for v, w in zip(got, want)), \
                    (blocks, cs, got, want)
                flipped = series._eval_system(cs, exps_c, pieces_c, DAG_CUTOFFS)
                assert all(v == w.conjugate() for v, w in zip(got, flipped)), (blocks, cs)
    assert tied == tied_systems


def cut_filters(cs, va, vb):
    """The filters of cs that hold exactly one of va, vb."""
    vs, steps = decompose._filter_steps(cs)
    pair = 1 << vs.index(va) | 1 << vs.index(vb)
    return sum(1 for mask in steps if bin(mask & pair).count("1") == 1)


def test_coupled_sum_is_one_toeplitz_product_per_kernel(monkeypatch):
    """The design, guarded by counting calls rather than by timing: a
    coupled system makes one `toeplitz_rows` call per kernel, whose rows
    number at most 2 x (cut filters) x (terms), not one per weak order, and
    the 1/d tile stack is built at most once per evaluation."""
    calls = []
    real = series.toeplitz_rows

    def spy(rows, kernel):
        calls.append((len(rows), kernel))
        return real(rows, kernel)

    monkeypatch.setattr(series, "toeplitz_rows", spy)
    s = ComplexArgs.parse("1.2+0.1i,2.2;1.5-0.2i,2.5+0.3i;1.3,2.1-0.1i", Shape((2, 2, 2)))
    cuts = []
    for i, j in s.shape.positions():
        calls.clear()
        eval_zeta_tilde(s, i, j, "diff", 300)
        cuts.append(cut_filters(build_constraints_S_ij(s.shape, i, j), B(i, j), EXTRA))
        assert [kernel for _, kernel in calls] == [couplings.POLE]
        assert calls[0][0] <= 2 * cuts[-1] * 2
    assert sum(cuts) == 48
    # the theorem at N = 500 sums 5574 coupled chains as 6 products
    calls.clear()
    couplings._pole_tiles.cache_clear()
    rep = eval_theorem_residual(s, TruncationPlan(500, refinements=(250, 500)))
    assert len(calls) == 6 and sum(rows for rows, _ in calls) <= 2 * sum(cuts) * 2
    assert couplings._pole_tiles.cache_info().misses == 1
    (_, _, _, wide), (_, _, _, fine) = rep.refinements
    assert 0 < fine < wide
    # a wrap-variant harmonic system: a prefix sum for 1 and one for the
    # 1/d product of H(d - 1), which builds the stack once
    calls.clear()
    couplings._pole_tiles.cache_clear()
    eval_zeta_tilde_harmonic(s, 1, 2, 1, TruncationPlan(600, refinements=(300, 600)))
    assert sorted(kernel for _, kernel in calls) == [couplings.GAP, couplings.ONE]
    assert couplings._pole_tiles.cache_info().misses == 1


def brute_mordell_tornheim(s1, s2, s3, n):
    return sum(m ** -s1 * k ** -s2 * (m + k) ** -s3
               for m in range(1, n + 1) for k in range(1, n + 1))


def test_mordell_tornheim_matches_double_loop():
    s1, s2, s3 = 1.5 + 0.4j, 0.8 - 0.3j, 1.2 + 0.2j
    mt = functools.partial(eval_mordell_tornheim, s1, s2, s3)
    rep = mt(TruncationPlan(60, refinements=(1, 2, 7, 31, 60)))
    for n, v in rep.refinements:
        want = brute_mordell_tornheim(s1, s2, s3, n)
        assert abs(v - want) <= 1e-13 * abs(want), n
        assert v == mt(n).value, n
    assert rep.residual == abs(rep.value - mt(30).value)
    assert abs(mt(45).value - brute_mordell_tornheim(s1, s2, s3, 45)) <= 1e-13


# --- powers above 2^14: the anchored binomial route --------------------------

# The complex exponents of the chains-plain benchmark at its recorded seed.
BENCH_EXPONENTS = (1.2 - 0.170805j, 2.2 + 0.060846j, 1.5 - 0.030827j, 2.5 + 0.230842j,
                   1.2 + 0.402149j, 2.2 + 0.018633j, 1.5 + 0.494844j,
                   1.5 - 0.071391j, 1.5 - 0.047714j, 2.0 - 0.429558j)


def cpow_range(n_max, s, start=0):
    return couplings.cpow(np.arange(start + 1, n_max + 1, dtype=np.float64), -complex(s))


def _horner(acc, u, coeffs):
    """acc = sum_k coeffs[k] u^k (degree >= 1) by Horner's rule, in place."""
    np.multiply(u, coeffs[-1], out=acc)
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= u
    if coeffs[0]:
        acc += coeffs[0]


def horner_range(n_max, s, start):
    """The oracle of the block product: [start+1..n_max]^(-s) for values
    above 2^14, each c^(-s) (1 + u)^(-s) with the binomial series summed by
    real Horner steps on the real and imaginary parts, at |Im s| with the
    imaginary part negated afterwards."""
    coeffs = series._binomial_series(s)
    e = -complex(s)
    v = np.arange(start + 1, n_max + 1, dtype=np.float64)
    c = v - (v - 1) % series._GROUP
    u = (v - c) / c
    re, im = np.empty_like(u), np.empty_like(u)
    _horner(re, u, [a.real for a in coeffs])
    _horner(im, u, [a.imag for a in coeffs])
    p = couplings.cpow(c, complex(e.real, abs(e.imag)))
    out = np.empty(len(v), dtype=np.complex128)
    out.real = re * p.real - im * p.imag
    out.imag = im * p.real + re * p.imag
    if e.imag < 0:
        np.subtract(0.0, out.imag, out=out.imag)
    return out


@pytest.mark.parametrize("start, n_max", [
    (16000, 16500),        # straddles 2^14
    (0, 20000),            # from 1, straddling
    (16390, 17001),        # a start inside a group
    (16384, 16391),        # a partial last group
    (16384, 16385),        # one value, the first anchor
    (20000, 20001),        # one value inside a group
    (3_983_616, 4_000_000),  # the top segment of a 4e6 chain
    (32760, 32800),        # straddles a block boundary
    (16390, 40000),        # a start inside a group, a partial last block
    (3_997_696, 4_000_000),  # the top block of a 4e6 chain
])
def test_anchored_powers_match_cpow(start, n_max):
    """Above 2^14 every power is within 4e-15 relative of the cpow oracle
    and within 6 ulps of the Horner oracle, for the benchmark's exponents
    and their conjugates."""
    lo = max(start, series._ANCHOR_FROM) - start
    for s in BENCH_EXPONENTS:
        assert series._binomial_series(s) is not None
        for t in (s, s.conjugate()):
            got, want = series._pow_vec(n_max, t, start), cpow_range(n_max, t, start)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want) / np.abs(want)) <= 4e-15, (t, start, n_max)
            horner = horner_range(n_max, t, start + lo)
            assert np.all(np.abs(got[lo:] - horner) <= 6 * 2.0 ** -52 * np.abs(horner)), (t, start)


def test_powers_match_40_digit_references():
    """Both routes, cpow up to 2^14 and the block product above, read
    within 1e-15 relative of 40-digit references on the benchmark's
    exponents and their conjugates."""
    import mpmath

    with mpmath.workdps(40):
        for v in (100, 16384, 16385, (1 << 20) + 7, 3_999_999):
            for s in BENCH_EXPONENTS:
                for t in (s, s.conjugate()):
                    got = complex(series._pow_vec(v, t, v - 1)[0])
                    want = mpmath.power(v, -mpmath.mpc(t.real, t.imag))
                    assert abs(mpmath.mpc(got.real, got.imag) - want) <= 1e-15 * abs(want), (v, t)


@pytest.mark.parametrize("segment", [None, 4099])
@pytest.mark.parametrize("start, n_max", [(0, 40000), (16390, 50001)])
def test_fresh_vector_conjugation_exact(monkeypatch, segment, start, n_max):
    """A range given no work set is one fresh vector, whatever _SEGMENT
    is, and conjugating s conjugates it exactly."""
    if segment is not None:
        monkeypatch.setattr(series, "_SEGMENT", segment)
    for s in BENCH_EXPONENTS:
        got, flipped = series._pow_vec(n_max, s, start), series._pow_vec(n_max, s.conjugate(), start)
        assert got.shape == (n_max - start,)
        assert np.array_equal(got, flipped.conjugate()), (s, start, n_max)


@pytest.mark.parametrize("s", [2 + 1e300j, 40 + 30j])
def test_large_exponents_fall_back_to_cpow(s):
    """An exponent whose series tail cannot be bounded within the degree
    cap takes cpow for every value, bit for bit, and warns of nothing."""
    assert series._binomial_series(s) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (s, s.conjugate()):
            assert np.array_equal(series._pow_vec(20000, t), cpow_range(20000, t))


@pytest.mark.parametrize("segment", [series._SEGMENT, 1 << 12, 4099])
def test_segment_powers_equal_one_table(monkeypatch, segment):
    """A power has the same bits in every table and whatever _SEGMENT is:
    segment tables sharing one work set, one table over 1..top, one range
    taken segment by segment without a table, and single-value ranges, at
    block edges too.  4099 does not divide the block of 2^14 values."""
    top = 50000
    whole = series._power_table(top)
    monkeypatch.setattr(series, "_SEGMENT", segment)
    for s in BENCH_EXPONENTS[:4]:
        assert np.array_equal(series._pow_vec(top, s), whole(s))
    work = series._PowerWork(segment)
    for s0 in range(0, top, segment):
        s1 = min(s0 + segment, top)
        power = series._power_table(s1, s0, work)
        for s in BENCH_EXPONENTS[:4] + (1.0, 2.5 - 1e300j):
            assert np.array_equal(power(s), whole(s)[s0:s1]), (s, s0)
    for v in (16384, 16385, 16400, 32768, 32769, 39999, 49153):
        for s in BENCH_EXPONENTS[2:4]:
            assert series._pow_vec(v, s, v - 1)[0] == whole(s)[v - 1], (v, s)
            assert series._pow_vec(v, s, v - 1, work)[0] == whole(s)[v - 1], (v, s)


def test_powers_equal_bytes_with_one_and_two_blas_threads():
    """A power vector and an `eval_mzf` value have the same bytes whether
    the block products run on one BLAS thread or two."""
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from cycliczeta import series\n"
        "h = hashlib.sha256(series._pow_vec(40000, 1.2 - 0.170805j, 16000).tobytes())\n"
        "v = series.eval_mzf([1.5 + 0.4j, 1.5 - 0.2j, 2.0 - 0.43j], 40000).value\n"
        "h.update(np.array([v]).tobytes())\n"
        "print(h.hexdigest())\n"
    )
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests


@pytest.mark.parametrize("segment", [None, 1 << 12])
def test_refinements_above_anchor_start_equal_single_cutoff_calls(monkeypatch, segment):
    """Cutoffs at and past 2^14, read off one pass, are bit-identical to
    single-cutoff calls, with default and smaller segments."""
    if segment is not None:
        monkeypatch.setattr(series, "_SEGMENT", segment)
    ns = (16384, 16385, 40000)
    for fn in (lambda p: eval_mzf([1.5 + 0.4j, 1.5 - 0.2j, 2.0 - 0.43j], p),
               lambda p: eval_zeta_C_i(SHAPE_21, 1, p)):
        rep = fn(TruncationPlan(ns[-1], refinements=ns))
        for n, v in rep.refinements:
            assert v == fn(n).value, n
        assert rep.residual == abs(rep.value - fn(ns[-1] // 2).value)


def test_conjugation_exact_above_anchor_start():
    s = SHAPE_21
    plan = TruncationPlan(40000, refinements=(16385, 40000))
    for fn in (lambda a: eval_mzf([a[(1, 1)], a[(1, 2)], a[(2, 1)]], plan),
               lambda a: eval_zeta_C(a, plan),
               lambda a: eval_zeta_C_i(a, 2, plan)):
        r1, r2 = fn(s), fn(s.conjugate())
        assert r1.value == r2.value.conjugate()
        assert all(v == w.conjugate() for (_, v), (_, w) in zip(r1.refinements, r2.refinements))


def test_harmonic_relation_check_above_anchor_start():
    """The four pieces still tile the product box: powers of one value are
    the same in every chain, so the defect stays at rounding level."""
    for s1, s2 in ((2.0, 3.0 + 1.0j), (1.5 + 0.4j, 2.0 - 0.3j), (1.2 + 0.17j, 2.5 - 0.23j)):
        assert harmonic_relation_check(s1, s2, 50000) < 1e-14


def test_mordell_tornheim_above_anchor_start():
    """Its power vectors reach 2 * 10^4; the value stays within 1e-12 of the
    direct route's (1.3165349957447054 - 0.2671214216141384i)."""
    got = eval_mordell_tornheim(1.5 + 0.4j, 0.8 - 0.3j, 1.2 + 0.2j, 10000).value
    want = 1.3165349957447054 - 0.2671214216141384j
    assert abs(got - want) <= 1e-12 * abs(want)
