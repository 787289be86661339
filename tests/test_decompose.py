import itertools
import random
from collections import Counter

import pytest

from cycliczeta.errors import BudgetError, NonAdmissibleError
from cycliczeta.decompose import (
    Composition,
    SymbolCombination,
    chain_count,
    count_lattice_points,
    decompose_to_mzv,
    weak_orders,
)
from cycliczeta.model import (
    EXTRA,
    REL_LT,
    Constraint,
    ConstraintSystem,
    Shape,
    VarId,
    build_constraints_S,
    build_constraints_S_i,
    build_constraints_S_ij,
    build_constraints_T_i,
)


def B(i, j):
    return VarId.block(i, j)


def adhoc(shape_r, cons, extra=False):
    return ConstraintSystem(Shape(shape_r), extra, tuple(cons))


def partition_respects(cs, osp):
    """Check that a partition refines the constraint system."""
    level_of = {v: t for t, lvl in enumerate(osp.levels) for v in lvl}
    if set(level_of) != set(cs.variables):
        return False
    for c in cs.constraints:
        a, b = level_of[c.lhs], level_of[c.rhs]
        if c.rel == REL_LT and not a < b:
            return False
        if c.rel != REL_LT and not a <= b:
            return False
    return True


def brute_count(cs, n_max):
    """Independent pure-python enumeration (cross-checks the numpy oracle)."""
    vs = list(cs.variables)
    idx = {v: t for t, v in enumerate(vs)}
    total = 0
    for pt in itertools.product(range(1, n_max + 1), repeat=len(vs)):
        ok = True
        for c in cs.constraints:
            a, b = pt[idx[c.lhs]], pt[idx[c.rhs]]
            if c.rel == "<" and not a < b:
                ok = False
                break
            if c.rel == "<=" and not a <= b:
                ok = False
                break
        if ok:
            total += 1
    return total


# --- compositions and combinations -----------------------------------------


def test_composition_basics():
    c = Composition((1, 2))
    assert c.weight == 3 and c.depth == 2 and c.admissible
    assert not Composition((2, 1)).admissible
    assert str(c) == "1,2"
    assert Composition.parse("1,2") == c
    with pytest.raises(ValueError):
        Composition((0, 2))


def test_symbol_combination_arithmetic():
    a = SymbolCombination({Composition((1, 2)): 1})
    b = SymbolCombination({Composition((3,)): 1})
    e = a - b
    assert e.coefficient(Composition((1, 2))) == 1
    assert e.coefficient(Composition((3,))) == -1
    assert not (e - e)
    assert (2 * a).coefficient(Composition((1, 2))) == 2
    assert e.to_json_obj() == {"1,2": "1", "3": "-1"}
    with pytest.raises(NonAdmissibleError):
        SymbolCombination({Composition((2, 1)): 1})


# --- weak orders ------------------------------------------------------------


def test_weak_orders_examples():
    a, b = B(1, 1), B(1, 2)
    le = adhoc((2,), [Constraint(a, "<=", b)])
    assert [str(p) for p in weak_orders(le)] == ["(n1_1)(n1_2)", "(n1_1 n1_2)"]
    lt = adhoc((2,), [Constraint(a, "<", b)])
    assert [str(p) for p in weak_orders(lt)] == ["(n1_1)(n1_2)"]
    eq = adhoc((2,), [Constraint(a, "<=", b), Constraint(b, "<=", a)])
    assert [str(p) for p in weak_orders(eq)] == ["(n1_1 n1_2)"]


def test_weak_orders_complete_and_disjoint():
    # unconstrained pair: three weak orders (a<b, b<a, a=b)
    free = adhoc((2,), [])
    assert len(weak_orders(free)) == 3
    # every output must respect the generating system
    cs = build_constraints_S_ij(Shape((2, 1)), 1, 1)
    orders = weak_orders(cs)
    assert len(orders) == len(set(orders))
    for osp in orders:
        assert partition_respects(cs, osp)


def test_weak_orders_deterministic():
    cs = build_constraints_S_i(Shape((2, 1)), 2)
    assert [str(p) for p in weak_orders(cs)] == [str(p) for p in weak_orders(cs)]


# --- decomposition ----------------------------------------------------------


def test_decompose_examples():
    a, b = B(1, 1), B(1, 2)
    le = adhoc((2,), [Constraint(a, "<=", b)])
    got = decompose_to_mzv(le, {a: 1, b: 2})
    assert got == SymbolCombination({Composition((1, 2)): 1, Composition((3,)): 1})

    s11 = build_constraints_S_ij(Shape((1,)), 1, 1)
    got = decompose_to_mzv(s11, {B(1, 1): 1, EXTRA: 2})
    assert got == SymbolCombination({Composition((1, 2)): 1})

    s1 = build_constraints_S_i(Shape((1,)), 1)
    got = decompose_to_mzv(s1, {B(1, 1): 2, EXTRA: 1})
    assert got == SymbolCombination({Composition((3,)): 1})


def test_decompose_rejects_non_admissible():
    a, b = B(1, 1), B(1, 2)
    le = adhoc((2,), [Constraint(a, "<=", b)])
    with pytest.raises(NonAdmissibleError) as ei:
        decompose_to_mzv(le, {a: 0, b: 0})
    assert ei.value.partition is not None
    with pytest.raises(ValueError):
        decompose_to_mzv(le, {a: 1})  # missing entry for b


# --- counting ---------------------------------------------------------------


def test_count_examples():
    a, b = B(1, 1), B(1, 2)
    assert count_lattice_points(adhoc((2,), [Constraint(a, "<", b)]), 4) == 6
    assert count_lattice_points(adhoc((2,), [Constraint(a, "<=", b)]), 4) == 10
    assert count_lattice_points(build_constraints_S(Shape((1, 1))), 5) == 5
    with pytest.raises(BudgetError):
        count_lattice_points(adhoc((2,), []), 31)


def test_chain_count_examples():
    assert chain_count(2, 4) == 6
    assert chain_count(1, 5) == 5
    assert chain_count(5, 30) == 142506


def test_counting_oracle_small_shapes():
    # decomposition completeness/disjointness against the brute-force count
    for shape in [Shape((1,)), Shape((2,)), Shape((1, 1)), Shape((2, 1))]:
        systems = [build_constraints_S(shape)]
        for i in range(1, shape.d + 1):
            systems.append(build_constraints_S_i(shape, i))
            systems.append(build_constraints_T_i(shape, i))
            for j in range(1, shape.r[i - 1] + 1):
                systems.append(build_constraints_S_ij(shape, i, j))
        for cs in systems:
            for n in (5, 12):
                want = count_lattice_points(cs, n)
                got = sum(chain_count(len(p.levels), n) for p in weak_orders(cs))
                assert got == want, (shape, str(cs), n)


def test_numpy_oracle_matches_pure_python():
    rng = random.Random(7)
    for _ in range(10):
        k = rng.randint(2, 4)
        levels = [rng.randint(0, 2) for _ in range(k)]
        cons = []
        vs = [B(1, j + 1) for j in range(k)]
        for (x, y) in itertools.combinations(range(k), 2):
            if rng.random() < 0.5:
                continue
            if levels[x] == levels[y]:
                cons.append(Constraint(vs[x], "<=", vs[y]))
                if rng.random() < 0.5:
                    cons.append(Constraint(vs[y], "<=", vs[x]))
            else:
                lo, hi = (x, y) if levels[x] < levels[y] else (y, x)
                rel = "<" if rng.random() < 0.5 else "<="
                cons.append(Constraint(vs[lo], rel, vs[hi]))
        cs = adhoc((k,), cons)
        assert count_lattice_points(cs, 8) == brute_count(cs, 8)


# --- filter recursion against the weak-order enumeration ----------------------


def reference_weak_orders(cs):
    """The original enumerator, kept as the oracle: recursive peeling over
    subsets of the minimal variables in binary-counter order."""
    vs = list(cs.variables)
    idx = {v: t for t, v in enumerate(vs)}
    edges = [(idx[c.lhs], idx[c.rhs], c.rel == "<") for c in cs.constraints]
    out, levels = [], []

    def valid_level(level, remaining):
        return not any(w in level and u in remaining and (u not in level or strict)
                       for (u, w, strict) in edges)

    def rec(remaining):
        if not remaining:
            out.append(tuple(tuple(vs[t] for t in lvl) for lvl in levels))
            return
        blocked = {w for (u, w, strict) in edges
                   if strict and u in remaining and w in remaining}
        cand = sorted(remaining - blocked)
        for mask in range(1, 1 << len(cand)):
            level = {cand[t] for t in range(len(cand)) if (mask >> t) & 1}
            if valid_level(level, remaining):
                levels.append(tuple(sorted(level)))
                rec(remaining - frozenset(level))
                levels.pop()

    rec(frozenset(range(len(vs))))
    return out


def reference_decompose(cs, exps):
    """The original decomposition, a Counter of merged parts over the weak
    orders: (combination, None), or (None, (levels, parts)) for the first
    weak order in canonical order whose parts are not admissible."""
    orders = reference_weak_orders(cs)
    merged = [tuple(sum(exps[v] for v in lvl) for lvl in levels) for levels in orders]
    for levels, parts in zip(orders, merged):
        if min(parts) < 1 or parts[-1] < 2:
            return None, (levels, parts)
    counts = Counter(merged)
    return SymbolCombination({Composition(p): n for p, n in counts.items()}), None


def systems_up_to_depth(max_depth):
    for r in itertools.chain.from_iterable(
        itertools.product(range(1, max_depth + 1), repeat=d) for d in range(1, max_depth + 1)
    ):
        if sum(r) <= max_depth:
            shape = Shape(r)
            yield build_constraints_S(shape)
            for i in range(1, shape.d + 1):
                yield build_constraints_S_i(shape, i)
                yield build_constraints_T_i(shape, i)
                for j in range(1, shape.r[i - 1] + 1):
                    yield build_constraints_S_ij(shape, i, j)


SYSTEMS = list(systems_up_to_depth(5))


def test_weak_orders_match_reference_enumeration():
    for cs in SYSTEMS:
        got = [osp.levels for osp in weak_orders(cs)]
        assert got == reference_weak_orders(cs), str(cs)


def test_filter_recursion_matches_weak_order_counting():
    rng = random.Random(2003)
    admissible = rejected = 0
    for cs in SYSTEMS:
        for lo in (0, 1, 1):
            exps = {v: rng.randint(lo, 3) for v in cs.variables}
            want, bad = reference_decompose(cs, exps)
            if bad is None:
                assert decompose_to_mzv(cs, exps) == want, (str(cs), exps)
                admissible += 1
            else:
                with pytest.raises(NonAdmissibleError) as ei:
                    decompose_to_mzv(cs, exps)
                assert (ei.value.partition.levels, ei.value.parts) == bad
                rejected += 1
    assert admissible > 200 and rejected > 200


def test_non_admissible_reports_first_weak_order():
    cs = build_constraints_S_i(Shape((2, 1)), 1)
    exps = {B(1, 1): 2, B(1, 2): 1, B(2, 1): 1, EXTRA: 1}
    _, (levels, parts) = reference_decompose(cs, exps)
    with pytest.raises(NonAdmissibleError) as ei:
        decompose_to_mzv(cs, exps)
    osp = ei.value.partition
    assert osp.levels == levels and ei.value.parts == parts
    assert str(ei.value) == f"weak order {osp} yields non-admissible parts {parts}"
