import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycliczeta.decompose import count_lattice_points
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
from cycliczeta import couplings, series
from cycliczeta.series import (
    PoleSpec,
    TermSpec,
    TruncationPlan,
    eval_constrained_sum,
    eval_mordell_tornheim,
    eval_mzf,
    eval_theorem_residual,
    eval_zeta_C,
    eval_zeta_C_i,
    eval_zeta_tilde,
    eval_zeta_tilde_harmonic,
    harmonic_number,
    harmonic_range,
    harmonic_relation_check,
    mzv_partial_sum,
)

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


# --- generic engine vs. brute force -----------------------------------------


def test_eval_constrained_sum_examples():
    sh = Shape((2,))
    a, b = B(1, 1), B(1, 2)
    lt = ConstraintSystem(sh, False, (Constraint(a, "<", b),))
    rep = eval_constrained_sum(lt, TermSpec({a: 1, b: 2}), 10_000)
    assert abs(rep.value - ZETA3) < 1e-2

    eq = ConstraintSystem(sh, False, (Constraint(a, "<=", b), Constraint(b, "<=", a)))
    rep = eval_constrained_sum(eq, TermSpec({a: 2, b: 1}), 1000)
    expected = sum(n ** (-3.0) for n in range(1, 1001))
    assert abs(rep.value - expected) < 1e-12

    free = ConstraintSystem(Shape((1,)), False, ())
    rep = eval_constrained_sum(free, TermSpec({B(1, 1): 0}), 7)
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
        pole = PoleSpec(c.lhs, c.rhs, complex(1), complex(1))
    n = 8
    got = eval_constrained_sum(cs, TermSpec(exps, pole=pole), n).value
    want = brute_term_sum(
        cs, exps, n,
        pole=None if pole is None else (pole.num_var, pole.den_var, 1, 1),
    )
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
    with pytest.warns(UserWarning):
        eval_zeta_tilde(s, 1, 1, 1, 50, enforce_domain=False)


def test_harmonic_helpers():
    assert harmonic_range(1, 0) == 0.0
    assert abs(harmonic_range(1, 3) - 11 / 6) < 1e-15
    assert harmonic_number(0) == 0.0


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
            got = eval_constrained_sum(cs, TermSpec(exps), n).value.real
            want = combo_partial_sum(combo, n)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (str(cs), n)


def test_zero_exponent_counting_matches_oracle():
    for shape, i, j in [(Shape((2, 1)), 1, 1), (Shape((1, 1)), 2, 1)]:
        cs = build_constraints_S_ij(shape, i, j)
        exps = {v: 0 for v in cs.variables}
        for n in (5, 12, 30):
            got = eval_constrained_sum(cs, TermSpec(exps), n).value
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
    term = TermSpec({a: 1, b: 2}, pole=PoleSpec(a, b, 0, 0))
    with pytest.raises(InternalInvariantError):
        eval_constrained_sum(cs, term, 10)


def test_budget_cap():
    s = ComplexArgs(Shape((1,)), (3.0,))
    with pytest.raises(BudgetError):
        eval_zeta_tilde(s, 1, 1, 1, 100_000)
    with pytest.raises(BudgetError):
        eval_mzf([2.0], 10**8)
    # refinement cutoffs count against the budget too
    with pytest.raises(BudgetError):
        eval_zeta_tilde(s, 1, 1, 1, TruncationPlan(100, refinements=(50, 100_000)))


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
    term = TermSpec(exps, pole=PoleSpec(x, y, 1, 0.5 + 0.1j))
    assert_refinements(eval_constrained_sum(cs, term, plan),
                       lambda n: brute_term_sum(cs, exps, n, pole=(x, y, 1, 0.5 + 0.1j)))
    assert_refinements(eval_constrained_sum(cs, TermSpec(exps), plan),
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



# --- plain chains against the per-chain, summed-exponent route ---------------


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


def test_shared_prefix_carry_advances_once_per_segment(monkeypatch):
    """Chains A, B, A2 where A and A2 share a two-level prefix (one level
    tied) that B lacks: the prefix leaves the stack at B and is met again
    in the same segment.  Each chain equals, bit for bit, a call on that
    chain alone."""
    monkeypatch.setattr(series, "_SEGMENT", 3)
    a, b, c, d = 1.5 + 0.4j, 0.7 - 0.3j, 1.1 + 0.2j, 2.0 - 0.6j
    chains = [([(a,), (b, c), (d,)], None),
              ([(b,), (a,), (c, d)], None),
              ([(a,), (b, c), (c,), (d, a)], None)]
    cutoffs = (1, 2, 4, 7, 9, 13)  # five segments of 3 values
    got = series._chain_plain(chains, cutoffs)
    for chain, values in zip(chains, got):
        assert values == series._chain_plain([chain], cutoffs)[0]


# (shape, arguments) of the window and full series compared with the
# summed-exponent route.
ORACLE_CASES = [
    ComplexArgs(Shape((2, 1)), (1.2 + 0.3j, 2.2 - 0.1j, 1.5 + 0.2j)),
    ComplexArgs(Shape((2, 2)), (1.2 - 0.2j, 2.2 + 0.4j, 1.5 + 0.1j, 2.5 - 0.3j)),
]
ORACLE_PLAN = TruncationPlan(200_001, refinements=(65_536, 65_537, 131_073, 200_001))


def assert_close_to_reference(monkeypatch, fn):
    """The report fn() agrees with the one from the summed-exponent route to
    1e-13 relative at every cutoff."""
    got = fn()
    with monkeypatch.context() as m:
        m.setattr(series, "_chain_plain", reference_chain_plain)
        want = fn()
    for (n, v), (_, w) in zip(got.refinements, want.refinements):
        assert abs(v - w) <= 1e-13 * abs(w), (n, v, w)


@pytest.mark.parametrize("s", ORACLE_CASES, ids=["2,1", "2,2"])
def test_plain_chains_match_summed_exponent_route(monkeypatch, s):
    evals = [lambda a: eval_zeta_C(a, ORACLE_PLAN)]
    evals += [lambda a, i=i: eval_zeta_C_i(a, i, ORACLE_PLAN) for i in (1, 2)]
    for fn in evals:
        assert_close_to_reference(monkeypatch, lambda: fn(s))
        r1, r2 = fn(s), fn(s.conjugate())
        assert all(v == w.conjugate()
                   for (_, v), (_, w) in zip(r1.refinements, r2.refinements))


def test_tied_chains_match_summed_exponent_route():
    """mzf-style chains with tied and empty levels, and their conjugates."""
    a, b, c = 1.5 + 0.4j, 0.6 - 0.3j, 1.3 + 0.2j
    chains = [([(a, b), (c,)], None), ([(a,), (b, c)], None),
              ([(), (c, a, b)], None), ([(b,), (), (a, c)], None)]
    conj = [([tuple(e.conjugate() for e in lvl) for lvl in levels], w)
            for levels, w in chains]
    ns = ORACLE_PLAN.refinements
    got = series._chain_plain(chains, ns)
    for values, want in zip(got, reference_chain_plain(chains, ns)):
        assert all(abs(v - w) <= 1e-13 * abs(w) for v, w in zip(values, want))
    for values, flipped in zip(got, series._chain_plain(conj, ns)):
        assert all(v == w.conjugate() for v, w in zip(values, flipped))


# --- the coupled engine against the elementwise oracle ----------------------


def reference_chain_coupled(exps, n_max, p, q, members, power):
    """Elementwise coupled chain by top value: members are (coeff, fn) with
    fn(u, w) the cell factor over value arrays, u < w.  The cells are
    evaluated in chunks of 256 rows and summed column by column; the levels
    between p and q enter as an explicit (rows x N) prefix-sum matrix."""
    shift = series._shift_prefix
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


def gap_cell(hn):
    return lambda a, b: hn[np.maximum(b - a - 1, 0).astype(np.int64)]


def wrap1_cell(hn):
    def fn(a, b):
        ai, bi = a.astype(np.int64), b.astype(np.int64)
        return hn[np.maximum(bi, ai - 1)] - hn[np.maximum(ai - bi - 1, 0)]
    return fn


def wrap2_cell(hn):
    def fn(a, b):
        ai, bi = a.astype(np.int64), b.astype(np.int64)
        return hn[ai - 1] - hn[np.maximum(ai - bi - 1, 0)]
    return fn


COUPLED_CUTOFFS = (1, 2, 255, 256, 257, 511, 512, 513, 700)


def random_exponent(rng):
    return complex(rng.choice([0.0, 1.0, rng.uniform(0.3, 2.5)]),
                   rng.choice([0.0, rng.uniform(-1.0, 1.0)]))


def random_coupling(rng, kind, hn):
    """(engine coupling, oracle cell factor f(a, b)) of one kind."""
    a, b = B(1, 1), B(1, 2)
    if kind == "pole":
        ne, de = random_exponent(rng), random_exponent(rng)
        return couplings.pole_coupling(a, b, ne, de), pole_cell(ne, de)
    make, cell = {"gap": (couplings.harmonic_gap, gap_cell),
                  "wrap1": (couplings.harmonic_wrap_1, wrap1_cell),
                  "wrap2": (couplings.harmonic_wrap_2, wrap2_cell)}[kind]
    return make(a, b, hn), cell(hn)


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
                hn = couplings.harmonic_table(n)
                exps = [complex(rng.uniform(0.5, 2.5), rng.uniform(-1, 1))
                        for _ in range(t)]
                terms, members = [], []
                for kind, below in [mix] if mix else kinds:
                    coeff = 1.0 if mix else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    coupling, cell = random_coupling(rng, kind, hn)
                    ts, member = oriented(coeff, coupling, cell, below)
                    terms += ts
                    members.append(member)
                got = series._chain_coupled(exps, n, p, q, terms,
                                            series._power_table(n),
                                            couplings.kernel_tiles())
                want = reference_chain_coupled(exps, n, p, q, members,
                                               series._power_table(n))
                err = np.max(np.abs(got - want))
                assert err <= 1e-11 * np.sum(np.abs(want)), (t, p, q, mix, n, err)


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
