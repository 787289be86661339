import itertools
import random
from collections import Counter

import pytest

from cycliczeta import decompose
from cycliczeta.errors import BudgetError, NonAdmissibleError
from cycliczeta.decompose import (
    Composition,
    OrderedSetPartition,
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


def scan_first_non_admissible(cs, exps):
    """The weak-order scan that named a non-admissible decomposition before
    the engine's recursion did, kept as the oracle: the first weak order in
    canonical order with a part < 1 or a last part < 2, and its parts (None
    if there is none)."""
    for osp in weak_orders(cs):
        parts = tuple(sum(exps[v] for v in lvl) for lvl in osp.levels)
        if min(parts) < 1 or parts[-1] < 2:
            return osp, parts
    return None


def test_non_admissible_search_matches_the_weak_order_scan():
    rng = random.Random(4099)
    rejected = 0
    for cs in SYSTEMS:
        for lo, hi in ((0, 1), (0, 2), (0, 2), (1, 2), (1, 2), (1, 3)):
            exps = {v: rng.randint(lo, hi) for v in cs.variables}
            first = scan_first_non_admissible(cs, exps)
            if first is None:
                decompose_to_mzv(cs, exps)
                continue
            with pytest.raises(NonAdmissibleError) as ei:
                decompose_to_mzv(cs, exps)
            osp, parts = first
            assert (ei.value.partition, ei.value.parts) == first, (str(cs), exps)
            assert str(ei.value) == f"weak order {osp} yields non-admissible parts {parts}"
            rejected += 1
    assert len(SYSTEMS) * 6 == 1920 and rejected > 1000


def reference_masks(cs):
    """The index masks read off the constraints' relations, as
    `_filter_steps` derived them before the system kept its own:
    strict_in[w] (weak_in[w]) holds the u with u < w (u <= w)."""
    n = len(cs.variables)
    idx = {v: t for t, v in enumerate(cs.variables)}
    strict_in, weak_in = [0] * n, [0] * n
    for c in cs.constraints:
        if c.rel == REL_LT:
            strict_in[idx[c.rhs]] |= 1 << idx[c.lhs]
        else:
            weak_in[idx[c.rhs]] |= 1 << idx[c.lhs]
    return strict_in, weak_in


def reference_filter_steps(cs):
    """The subset loop `_filter_steps` ran before each subset's level and
    need masks came from the subset without its lowest bit, kept as the
    oracle: every candidate is read for every subset tried."""
    vs = cs.variables
    n = len(vs)
    strict_in, weak_in = reference_masks(cs)
    steps, todo = {}, [(1 << n) - 1]
    while todo:
        remaining = todo.pop()
        if remaining in steps:
            continue
        cand = [t for t in range(n) if remaining >> t & 1 and not strict_in[t] & remaining]
        out = []
        for mask in range(1, 1 << len(cand)):
            level = need = 0
            for pos, t in enumerate(cand):
                if mask >> pos & 1:
                    level |= 1 << t
                    need |= weak_in[t]
            if need & remaining & ~level:
                continue
            rest = remaining & ~level
            out.append((tuple(t for t in cand if level >> t & 1), rest))
            if rest:
                todo.append(rest)
        steps[remaining] = tuple(out)
    return vs, steps


def test_filter_steps_match_the_subset_loop_up_to_depth_6():
    """The DAG keeps the oracle's rests in its order, each level is its
    filter less its rest, with members ascending, and the filters ascend."""
    systems = list(systems_up_to_depth(6))
    for cs in systems:
        vs, steps = decompose._filter_steps(cs)
        want_vs, want = reference_filter_steps(cs)
        got = {mask: tuple((decompose._members(mask ^ rest), rest) for rest in rests)
               for mask, rests in steps.items()}
        assert vs == want_vs and got == want and list(steps) == sorted(want), str(cs)
    assert len(systems) == 768


def part_counts(cs, exps):
    """The dict engine that `decompose._generating` replaced, kept as the
    oracle: {partial-sum mask: count} over the weak orders of cs, for
    exponents listed in the order of cs.variables.  A memoised depth-first
    recursion over the order filters of the subset loop
    (`reference_filter_steps`) maps each filter to the multiset of
    compositions of its completions; part p before the completion t is
    t << p | 1 << (p - 1).  A filter is memoised only once all its
    completions are admissible, so the first non-admissible step met lies
    on the first non-admissible weak order in canonical order, which is
    raised: the path to that step, then the first step of each later
    filter."""
    vs, steps = reference_filter_steps(cs)
    memo = {0: {0: 1}}
    path = []

    def completions(remaining):
        got = {}
        for lvl, rest in steps[remaining]:
            part = sum(exps[t] for t in lvl)
            if part < 1 or (part < 2 and not rest):
                levels = path + [lvl]
                while rest:
                    lvl, rest = steps[rest][0]
                    levels.append(lvl)
                osp = OrderedSetPartition(tuple(tuple(vs[t] for t in lvl) for lvl in levels))
                parts = tuple(sum(exps[t] for t in lvl) for lvl in levels)
                raise NonAdmissibleError(f"weak order {osp} yields non-admissible parts {parts}",
                                         partition=osp, parts=parts)
            tails = memo.get(rest)
            if tails is None:
                path.append(lvl)
                tails = completions(rest)
                path.pop()
            top = 1 << (part - 1)
            for tail, n in tails.items():
                key = tail << part | top
                got[key] = got.get(key, 0) + n
        memo[remaining] = got
        return got

    return completions((1 << len(vs)) - 1)


def check_engine_against_the_dict_oracle(max_depth, seed):
    """decompose_to_mzv, and its sparse route, equal the dict
    engine on every builder system up to max_depth, with seeded exponents
    in four ranges that include zero, and decompose_to_mzv raises the same
    NonAdmissibleError (message, partition and parts) where the oracle
    does; returns the counts of systems and of refusals."""
    rng = random.Random(seed)
    systems = list(systems_up_to_depth(max_depth))
    rejected = 0
    for cs in systems:
        for lo, hi in ((0, 1), (0, 2), (1, 2), (1, 3)):
            exps = [rng.randint(lo, hi) for _ in cs.variables]
            by_var = dict(zip(cs.variables, exps))
            try:
                want = decompose._combination(part_counts(cs, exps))
            except NonAdmissibleError as exc:
                with pytest.raises(NonAdmissibleError) as ei:
                    decompose_to_mzv(cs, by_var)
                got = (str(ei.value), ei.value.partition, ei.value.parts)
                assert got == (str(exc), exc.partition, exc.parts), (str(cs), exps)
                rejected += 1
            else:
                assert decompose_to_mzv(cs, by_var) == want, (str(cs), exps)
                vs, steps = decompose._filter_steps(cs)
                sums = decompose._generating(vs, steps, exps, [0] * (sum(exps) + 1))[1]
                assert decompose._combination(decompose._sparse_masks(steps, sums)) == want
    return len(systems), rejected


def test_engine_matches_the_dict_oracle_up_to_depth_6():
    systems, rejected = check_engine_against_the_dict_oracle(6, 37)
    # 3072 inputs: 2284 refused, 788 decomposed
    assert systems == 768 and 2000 < rejected < 4 * systems - 700


@pytest.mark.slow
def test_engine_matches_the_dict_oracle_at_depth_7():
    systems, rejected = check_engine_against_the_dict_oracle(7, 38)
    # 7168 inputs: 5564 refused, 1604 decomposed
    assert systems == 1792 and 5000 < rejected < 4 * systems - 1500


def test_system_masks_match_the_constraints_up_to_depth_7():
    systems = list(systems_up_to_depth(7))
    for cs in systems:
        assert (list(cs.strict_in), list(cs.weak_in)) == reference_masks(cs), str(cs)
    assert len(systems) == 1792


def test_partial_sum_masks_round_trip():
    # every mask below 2^11 is one composition of weight <= 11, read back
    for mask in range(1, 1 << 11):
        comp = decompose._composition(mask)
        assert decompose._mask(comp.parts) == mask
        assert comp.weight == mask.bit_length()
        assert comp.depth == bin(mask).count("1")
        assert comp.admissible == (comp.weight > 1 and not mask >> (comp.weight - 2) & 1)
    for w in range(1, 8):
        for cuts in itertools.product((0, 1), repeat=w - 1):
            parts, run = [], 1
            for cut in cuts:
                if cut:
                    parts.append(run)
                    run = 0
                run += 1
            parts.append(run)
            assert decompose._composition(decompose._mask(parts)).parts == tuple(parts)


def test_filter_steps_refuse_past_the_level_cap(monkeypatch):
    # the S_1 system of shape (2,2) tries 39 candidate levels over its 9 filters
    cs = build_constraints_S_i(Shape((2, 2)), 1)
    exps = {v: 2 for v in cs.variables}
    decompose._filter_steps.cache_clear()
    monkeypatch.setattr(decompose, "LEVEL_CAP", 38)
    with pytest.raises(BudgetError, match="5-variable system on shape 2,2 need more than 38"):
        decompose_to_mzv(cs, exps)
    monkeypatch.setattr(decompose, "LEVEL_CAP", 39)
    assert sum(decompose_to_mzv(cs, exps).coefficients().values()) == len(weak_orders(cs))


def test_decompose_refuses_a_total_exponent_past_the_cap():
    cs = build_constraints_S_ij(Shape((1,)), 1, 1)
    top = decompose.EXPONENT_CAP
    got = decompose_to_mzv(cs, {B(1, 1): top - 2, EXTRA: 2})
    assert got == SymbolCombination({Composition((top - 2, 2)): 1})
    with pytest.raises(BudgetError, match=f"total exponent {top + 1} exceeds cap {top}"):
        decompose_to_mzv(cs, {B(1, 1): top - 1, EXTRA: 2})


def test_decompose_takes_the_sparse_route_past_the_memory_cap(monkeypatch):
    """A strict chain of r variables with exponents 1, ..., 1, 2 has the r
    filter sums 2..r+1, one weak order and so 8-bit slots: its memo holds
    2 * 8 * 2^j bits for slot j, 2^(r+1) - 2 bytes in all, and its decode 8
    bytes for each of the 2^(r-1) suffix masks below the top.  Past
    MEMORY_CAP its compositions are counted in one dict a filter instead,
    to the same symbol, and refused only when the dicts' 10 entries, at
    100 + 11 // 8 bytes each, exceed the cap too."""
    cs = build_constraints_S(Shape((10,)))
    exps = {v: 1 for v in cs.variables} | {B(1, 10): 2}
    want = SymbolCombination({Composition((1,) * 9 + (2,)): 1})
    sparse = []
    sparse_masks = decompose._sparse_masks
    monkeypatch.setattr(decompose, "_sparse_masks", lambda *a: sparse.append(1) or sparse_masks(*a))
    monkeypatch.setattr(decompose, "MEMORY_CAP", 2046 + 4096)
    assert decompose_to_mzv(cs, exps) == want and sparse == []
    monkeypatch.setattr(decompose, "MEMORY_CAP", 2045 + 4096)
    assert decompose_to_mzv(cs, exps) == want and sparse == [1]
    monkeypatch.setattr(decompose, "MEMORY_CAP", 1010)
    assert decompose_to_mzv(cs, exps) == want
    monkeypatch.setattr(decompose, "MEMORY_CAP", 1009)
    with pytest.raises(BudgetError, match="^the sparse memo of 10 compositions of total "
                                          "exponent 11 exceeds the cap of 0 MiB$"):
        decompose_to_mzv(cs, exps)
    # a non-admissible input is refused as such before its memo is sized
    with pytest.raises(NonAdmissibleError):
        decompose_to_mzv(cs, exps | {B(1, 10): 1})


def test_decompose_counts_a_30_variable_chain_sparsely():
    """The 30-variable strict chain's 30 filter sums would take 2^31 bytes
    of memo; its one composition is counted sparsely instead."""
    cs = build_constraints_S(Shape((30,)))
    exps = {v: 1 for v in cs.variables} | {B(1, 30): 2}
    assert decompose_to_mzv(cs, exps) == SymbolCombination({Composition((1,) * 29 + (2,)): 1})


def test_slot_width_holds_the_weak_order_count(monkeypatch):
    """The slots are as wide as the bytes that hold the count of weak
    orders: 3 antichain variables have 13 (8-bit slots) and 6 have 4683
    (16-bit).  The decode takes 64 bits at most, so past 2^64 - 1 weak
    orders the sparse route counts the compositions."""
    for r, orders in ((3, 13), (6, 4683)):
        cs = adhoc((1,) * r, [])
        assert decompose._order_count(cs) == orders == len(weak_orders(cs))
        assert decompose._width(orders) == 8 * -(-orders.bit_length() // 8)
        got = decompose_to_mzv(cs, {v: 2 for v in cs.variables})
        assert sum(got.coefficients().values()) == orders
    assert decompose._slot_counts(0x0300FF, 8, 2).tolist() == [255, 0, 3, 0]
    assert decompose._slot_counts((2**64 - 1) << 64 | 7, 64, 1).tolist() == [7, 2**64 - 1]
    assert (decompose._width(2**64 - 1), decompose._width(2**64)) == (64, 72)
    monkeypatch.setattr(decompose, "_width", lambda count: 72)
    monkeypatch.setattr(decompose, "_slot_counts", None)
    assert sum(decompose_to_mzv(cs, {v: 2 for v in cs.variables}).coefficients().values()) == 4683


def test_non_admissible_reports_first_weak_order():
    cs = build_constraints_S_i(Shape((2, 1)), 1)
    exps = {B(1, 1): 2, B(1, 2): 1, B(2, 1): 1, EXTRA: 1}
    _, (levels, parts) = reference_decompose(cs, exps)
    with pytest.raises(NonAdmissibleError) as ei:
        decompose_to_mzv(cs, exps)
    osp = ei.value.partition
    assert osp.levels == levels and ei.value.parts == parts
    assert str(ei.value) == f"weak order {osp} yields non-admissible parts {parts}"
