import itertools
import json
import math

import pytest

from cycliczeta import relations
from cycliczeta.decompose import Composition, SymbolCombination
from cycliczeta.errors import BudgetError, DomainError, InternalInvariantError
from cycliczeta.model import IntArgs, Shape
from cycliczeta.relations import (
    ALL_RELATIONS_REF,
    Provenance,
    Relation,
    RelationMatrix,
    csf_relation,
    cyclic_relation,
    enumerate_family,
    family_rank,
    generate_relations,
    rank_exact,
    relation_matrix,
    relation_set_loads,
    relation_set_to_json_obj,
    table1,
    zeta_star_expand,
    _rank_bareiss,
    _rank_mod,
)
from cycliczeta.series import combo_partial_sum


def C(*parts):
    return Composition(tuple(parts))


def combo(d):
    return SymbolCombination({C(*k): v for k, v in d.items()})


# --- single relations --------------------------------------------------------


def test_cyclic_relation_euler():
    rel = cyclic_relation(IntArgs(Shape((1,)), (2,)))
    assert rel.combo == combo({(1, 2): 1, (3,): -1})


def test_cyclic_relation_rejects_outside_W():
    with pytest.raises(DomainError):
        cyclic_relation(IntArgs(Shape((1,)), (1,)))


def test_cyclic_relation_weight4_numeric_zero():
    rel = cyclic_relation(IntArgs(Shape((2,)), (1, 2)))
    assert rel.combo.weight() == 4
    # slow-converging depth-3 symbols put the truncation defect near
    # (log N)^2 / 2N, so the numeric-zero tolerance at N = 1e4 is 1e-2
    assert abs(combo_partial_sum(rel.combo, 10_000)) < 1e-2


def test_cyclic_relation_weight4_exact():
    # hand decomposition: z(1,1,2) - z(2,2) - z(1,3)
    rel = cyclic_relation(IntArgs(Shape((2,)), (1, 2)))
    assert rel.combo == combo({(1, 1, 2): 1, (2, 2): -1, (1, 3): -1})


def test_zeta_star_expand_examples():
    assert zeta_star_expand(C(1, 2)) == combo({(1, 2): 1, (3,): 1})
    assert zeta_star_expand(C(2)) == combo({(2,): 1})
    assert zeta_star_expand(C(1, 1, 2)) == combo(
        {(1, 1, 2): 1, (2, 2): 1, (1, 3): 1, (4,): 1}
    )


def test_zeta_star_expand_matches_chain_decomposition():
    # star expansion must agree with decomposing the all-non-strict chain
    from cycliczeta.decompose import decompose_to_mzv
    from cycliczeta.model import Constraint, ConstraintSystem, Shape as Sh, VarId

    for parts in ((1, 2), (2, 3), (1, 1, 2), (2, 1, 3), (1, 1, 1, 2)):
        t = len(parts)
        vs = [VarId.block(1, j + 1) for j in range(t)]
        cons = tuple(Constraint(vs[p], "<=", vs[p + 1]) for p in range(t - 1))
        cs = ConstraintSystem(Sh((t,)), False, cons)
        exps = {vs[p]: parts[p] for p in range(t)}
        assert zeta_star_expand(C(*parts)) == decompose_to_mzv(cs, exps), parts


def test_zeta_star_expand_counts_and_weight():
    import itertools

    for t in (1, 2, 3, 4):
        for parts in itertools.product((1, 2, 3), repeat=t):
            if parts[-1] < 2:
                continue
            combo = zeta_star_expand(C(*parts))
            total = sum(c for _, c in combo.items())
            assert total == 2 ** (t - 1)
            assert combo.weight() == sum(parts)


def test_csf_relation_examples():
    rel = csf_relation(IntArgs(Shape((1,)), (2,)))
    assert rel.combo == combo({(1, 2): 1, (3,): -1})

    rel = csf_relation(IntArgs(Shape((1, 1)), (1, 2)))
    assert rel.combo.weight() == 4
    assert abs(combo_partial_sum(rel.combo, 10_000)) < 1e-2

    with pytest.raises(DomainError):
        csf_relation(IntArgs(Shape((1,)), (1,)))
    with pytest.raises(ValueError):
        csf_relation(IntArgs(Shape((2,)), (1, 2)))


# --- enumeration -------------------------------------------------------------


def test_enumerate_family_examples():
    got = enumerate_family(3, "csf")
    assert got == [(Shape((1,)), IntArgs(Shape((1,)), (2,)))]
    got = enumerate_family(3, "cyclic")
    assert got == [(Shape((1,)), IntArgs(Shape((1,)), (2,)))]
    got = enumerate_family(4, "csf")
    assert got == [
        (Shape((1,)), IntArgs(Shape((1,)), (3,))),
        (Shape((1, 1)), IntArgs(Shape((1, 1)), (1, 2))),
        (Shape((1, 1)), IntArgs(Shape((1, 1)), (2, 1))),
    ]


def test_enumerate_family_derivation():
    got = enumerate_family(4, "derivation")
    assert got == [
        (Shape((1,)), IntArgs(Shape((1,)), (3,))),
        (Shape((2,)), IntArgs(Shape((2,)), (1, 2))),
        (Shape((1, 1)), IntArgs(Shape((1, 1)), (2, 1))),
    ]
    got_no_d1 = enumerate_family(4, "derivation", include_d1_derivation=False)
    assert got_no_d1 == [(Shape((1, 1)), IntArgs(Shape((1, 1)), (2, 1)))]
    # every derivation or csf configuration is also a cyclic configuration
    cyc = set(enumerate_family(5, "cyclic"))
    assert set(enumerate_family(5, "derivation")) <= cyc
    assert set(enumerate_family(5, "csf")) <= cyc


# --- one relation per block-rotation orbit -----------------------------------


def _rotations(k):
    """Every cyclic rotation of the blocks of k, k itself first."""
    blocks = [k.block(i) for i in range(1, k.shape.d + 1)]
    for t in range(len(blocks)):
        rot = blocks[t:] + blocks[:t]
        yield IntArgs(Shape(tuple(map(len, rot))), sum(rot, ()))


def test_generate_relations_matches_per_configuration_route(monkeypatch):
    monkeypatch.setattr(relations, "_ORBIT_COMBOS", {})
    for w in range(3, 9):
        for fam in relations.FAMILIES:
            gen = csf_relation if fam == "csf" else cyclic_relation
            want = [Relation(gen(k).combo, Provenance(fam, shape, k))
                    for shape, k in enumerate_family(w, fam)]
            assert generate_relations(w, fam) == want, (w, fam)


def test_rotated_configurations_have_equal_relations():
    for w in range(3, 9):
        for fam, gen in (("cyclic", cyclic_relation), ("csf", csf_relation)):
            for _, k in enumerate_family(w, fam):
                base, *rotated = (gen(k2).combo for k2 in _rotations(k))
                assert all(c == base for c in rotated), (fam, str(k))


def test_one_generator_call_per_orbit(monkeypatch):
    calls = []
    cyclic = relations.cyclic_relation
    monkeypatch.setattr(relations, "_ORBIT_COMBOS", {})
    monkeypatch.setattr(relations, "cyclic_relation", lambda k: calls.append(k) or cyclic(k))
    rels = generate_relations(7, "cyclic")
    orbits = {min(tuple(map(str, _rotations(k)))) for _, k in enumerate_family(7, "cyclic")}
    distinct = relations._distinct_rows(relation_matrix(rels))
    assert (len(rels), len(calls), len(orbits), len(distinct)) == (88, 45, 45, 45)
    # derivation configurations reuse the orbits the cyclic family filled
    generate_relations(7, "derivation")
    assert len(calls) == 45


# --- matrices and rank -------------------------------------------------------


def test_relation_matrix_examples():
    euler = cyclic_relation(IntArgs(Shape((1,)), (2,)))
    m = relation_matrix([euler])
    assert m.shape == (1, 2)
    assert m.dense_rows() == [[1, -1]]
    assert [str(c) for c in m.symbols] == ["1,2", "3"]

    empty = relation_matrix([])
    assert rank_exact(empty) == 0

    m2 = relation_matrix([euler, euler])
    assert m2.shape == (2, 2)
    assert rank_exact(m2) == 1


def test_relation_matrix_rejects_mixed_weights():
    a = cyclic_relation(IntArgs(Shape((1,)), (2,)))
    b = cyclic_relation(IntArgs(Shape((1,)), (3,)))
    with pytest.raises(ValueError):
        relation_matrix([a, b])


def test_rank_small_matrices():
    assert _rank_bareiss([[1, -1]]) == 1
    assert _rank_bareiss([[0, 0], [0, 0]]) == 0
    assert _rank_bareiss([[2, 4, 1], [1, 2, 0], [3, 6, 1]]) == 2
    for p in ((1 << 61) - 1, (1 << 64) - 59):
        assert _rank_mod([[2, 4, 1], [1, 2, 0], [3, 6, 1]], p) == 2


def test_rank_exact_drops_repeated_rows(monkeypatch):
    seen = []
    rref_mod = relations._rref_mod
    monkeypatch.setattr(relations, "_rref_mod",
                        lambda rows, ncols, p: seen.append(rows) or rref_mod(rows, ncols, p))
    rels = generate_relations(5, "cyclic")
    doubled = relation_matrix(rels + rels[::-1])
    assert rank_exact(doubled) == 5
    first_seen = list(dict.fromkeys(tuple(r) for r in relation_matrix(rels).dense_rows()))
    ncols = doubled.shape[1]
    assert [tuple(row.get(c, 0) for c in range(ncols)) for row in seen[0]] == first_seen


def test_rank_weight5_cyclic_is_5():
    assert family_rank(5, "cyclic") == 5


def _rank_fraction_oracle(rows):
    """Independent rank computation over exact rationals."""
    from fractions import Fraction

    m = [[Fraction(x) for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def test_rank_fuzz_against_fraction_oracle():
    import random

    rng = random.Random(99)
    for _ in range(40):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        # low-rank-prone matrices: random combinations of a few base rows
        base = [
            [rng.randint(-4, 4) for _ in range(ncols)]
            for _ in range(rng.randint(1, min(4, nrows)))
        ]
        rows = []
        for _ in range(nrows):
            coeffs = [rng.randint(-2, 2) for _ in base]
            rows.append(
                [sum(c * b[t] for c, b in zip(coeffs, base)) for t in range(ncols)]
            )
        want = _rank_fraction_oracle(rows)
        assert _rank_bareiss([list(r) for r in rows]) == want
        for p in ((1 << 61) - 1, (1 << 64) - 59):
            assert _rank_mod(rows, p) == want
        assert rank_exact(_matrix(rows)) == want


def _matrix(rows):
    """A relation matrix over placeholder symbols with the given dense rows."""
    ncols = len(rows[0])
    return RelationMatrix(tuple(C(t + 2) for t in range(ncols)),
                          [{c: v for c, v in enumerate(r) if v} for r in rows],
                          None, [None] * len(rows))


# A prime of the elimination's list divides the first matrix's determinant,
# so the first prime sees rank 1; the second has an entry far outside int64
# and one row that is the sum of two others; the third's reduced row holds
# (2^250 + 1) / 2^250, whose reconstruction needs more primes than `_PRIMES`.
HARD_MATRICES = {  # name: (rows, rank)
    "unlucky-prime": ([[2**31 - 1, 0], [0, 1]], 2),
    "huge-entry": ([[2**80, 3, 0, 1], [5, -7, 2, 0], [2**80 + 5, -4, 2, 1], [0, 1, 1, 1]], 3),
    "wide-fraction": ([[2**250, 2**250 + 1]], 1),
}


def test_primes_continue_past_the_literal_list():
    primes = list(itertools.islice(relations._primes(), len(relations._PRIMES) + 20))
    assert tuple(primes[:len(relations._PRIMES)]) == relations._PRIMES
    assert all(a > b for a, b in zip(primes, primes[1:])) and primes[0] < 2**31
    gaps = range(primes[-1], relations._PRIMES[-1])
    trial = [n for n in gaps if all(n % q for q in range(2, math.isqrt(n) + 1))]
    assert primes[len(relations._PRIMES):] == sorted(trial, reverse=True)


@pytest.mark.parametrize("name", sorted(HARD_MATRICES))
def test_rank_exact_unlucky_prime_and_huge_entries(name):
    rows, rank = HARD_MATRICES[name]
    assert rank_exact(_matrix(rows)) == _rank_fraction_oracle(rows) == rank


@pytest.mark.parametrize("name", sorted(HARD_MATRICES))
def test_rank_cli_unlucky_prime_and_huge_entries(name, tmp_path, capsys):
    from cycliczeta.cli import main

    rows, _ = HARD_MATRICES[name]
    obj = {
        "weight": None,
        "family": "cyclic",
        "symbols": [str(C(t + 2)) for t in range(len(rows[0]))],
        "rows": [{"entries": [[c, str(v)] for c, v in enumerate(r) if v]} for r in rows],
    }
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps(obj))
    code = main(["rank", "--in", str(f), "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(_rank_fraction_oracle(rows))


def _certificate(rows):
    """The kernel vectors of the distinct rows from one prime, with their
    free columns."""
    matrix = _matrix(rows)
    distinct = relations._distinct_rows(matrix)
    ncols = matrix.shape[1]
    p = relations._PRIMES[0]
    rank, pivots, rref = relations._rref_mod(distinct, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    kernel = relations._kernel_vectors(rref[:, free].tolist(), p, pivots, free, ncols)
    return distinct, pivots, free, kernel


def test_check_kernel_rejects_corrupted_vector():
    rows = relation_matrix(generate_relations(6, "cyclic")).dense_rows()
    distinct, pivots, free, kernel = _certificate(rows)
    assert kernel and len(free) == len(rows[0]) - 11
    relations._check_kernel(distinct, free, kernel)
    for c in (pivots[0], free[0]):
        bad = [list(y) for y in kernel]
        bad[0][c] += 1
        with pytest.raises(InternalInvariantError, match="is not 0"):
            relations._check_kernel(distinct, free, bad)
    # the zero vector solves every row but proves nothing
    zero = [[0] * len(rows[0])] + kernel[1:]
    with pytest.raises(InternalInvariantError, match="not diagonal"):
        relations._check_kernel(distinct, free, zero)


def test_rank_exact_raises_when_a_pivot_is_dropped(monkeypatch):
    rref_mod = relations._rref_mod
    primes = []

    def drop_last_pivot(rows, ncols, p):
        primes.append(p)
        rank, pivots, rref = rref_mod(rows, ncols, p)
        return rank - 1, pivots[:-1], rref[:-1]

    monkeypatch.setattr(relations, "_rref_mod", drop_last_pivot)
    rows = relation_matrix(generate_relations(5, "cyclic")).dense_rows()
    with pytest.raises(InternalInvariantError, match="2H"):
        rank_exact(_matrix(rows))
    # the pivot minors are small: the bound is reached within the list
    assert 1 <= len(primes) < len(relations._PRIMES)


def _points(cs, n):
    import itertools

    vs = list(cs.variables)
    idx = {v: t for t, v in enumerate(vs)}
    for pt in itertools.product(range(1, n + 1), repeat=len(vs)):
        ok = True
        for c in cs.constraints:
            a, b = pt[idx[c.lhs]], pt[idx[c.rhs]]
            if (c.rel == "<" and not a < b) or (c.rel == "<=" and not a <= b):
                ok = False
                break
        if ok:
            yield dict(zip(vs, pt))


def _brute_relation_value(k, n):
    """LHS - RHS of the integer-point identity by direct lattice
    enumeration with exact rationals (independent of the decomposer)."""
    from fractions import Fraction

    from cycliczeta.model import EXTRA, VarId, build_constraints_S_i, build_constraints_S_ij

    shape = k.shape
    total = Fraction(0)
    for i in range(1, shape.d + 1):
        for j in range(1, shape.r[i - 1] + 1):
            delta = 1 if j == shape.r[i - 1] else 0
            cs = build_constraints_S_ij(shape, i, j)
            for m in range(delta, k[(i, j)]):
                for pt in _points(cs, n):
                    den = Fraction(1)
                    for (a, b) in shape.positions():
                        den *= pt[VarId.block(a, b)] ** k[(a, b)]
                    total += Fraction(
                        pt[VarId.block(i, j)] ** m, pt[EXTRA] ** (m + 1)
                    ) / den
    for i in range(1, shape.d + 1):
        cs = build_constraints_S_i(shape, i)
        for pt in _points(cs, n):
            den = Fraction(1)
            for (a, b) in shape.positions():
                den *= pt[VarId.block(a, b)] ** k[(a, b)]
            total -= Fraction(1, pt[EXTRA]) / den
    return total


def _combo_exact_partial(combo, n):
    from fractions import Fraction

    total = Fraction(0)
    for comp, coeff in combo.items():
        run = [Fraction(1, x ** comp.parts[0]) for x in range(1, n + 1)]
        for p in comp.parts[1:]:
            pref = Fraction(0)
            new = []
            for t, x in enumerate(range(1, n + 1)):
                new.append(Fraction(1, x**p) * pref)
                pref += run[t]
            run = new
        total += coeff * sum(run)
    return total


def test_relation_pipeline_exact_rational_bruteforce():
    # every generated combo equals the brute-force rational evaluation of
    # the integer-point identity at a matched finite box cutoff
    n = 5
    checked = 0
    for w in (4, 5):
        for shape, k in enumerate_family(w, "cyclic"):
            rel = cyclic_relation(k)
            assert _brute_relation_value(k, n) == _combo_exact_partial(rel.combo, n), k
            checked += 1
    # weight-6 sample including the configuration that is independent of
    # the derivation span (see the acceptance notes)
    for text in ("2;1,2", "1,1,3", "5", "1;1;1,2"):
        k = IntArgs.parse(text)
        rel = cyclic_relation(k)
        assert _brute_relation_value(k, n) == _combo_exact_partial(rel.combo, n), k
        checked += 1
    assert checked >= 16


def test_specialization_csf_equals_cyclic_small():
    for w in (3, 4, 5, 6):
        for shape, k in enumerate_family(w, "csf"):
            assert csf_relation(k).combo == cyclic_relation(k).combo, (w, k)


def test_numeric_zero_weight_le_6():
    # Truncation defects are dominated by the slowest symbol tails,
    # about (log N)^(w-2)/N, so the attainable threshold grows with weight:
    # measured worst defects at N=1e4 are 1.1e-3 / 6e-3 / 4.2e-2 / 0.18.
    bound = {3: 2e-3, 4: 1e-2, 5: 8e-2, 6: 0.25}
    for w in (3, 4, 5, 6):
        for rel in generate_relations(w, "cyclic"):
            v1 = abs(combo_partial_sum(rel.combo, 10_000))
            v2 = abs(combo_partial_sum(rel.combo, 20_000))
            assert v1 < bound[w], rel.provenance
            assert v2 < v1 or v2 < 1e-10, rel.provenance


def test_family_nesting_ranks():
    for w in (4, 5, 6):
        rc = family_rank(w, "cyclic")
        assert family_rank(w, "csf") <= rc
        assert family_rank(w, "derivation") <= rc
        assert rc <= ALL_RELATIONS_REF[w]


def test_rotation_invariance_of_rank():
    for w, fam in ((4, "cyclic"), (5, "csf"), (5, "derivation")):
        rels = generate_relations(w, fam)
        base = rank_exact(relation_matrix(rels))
        extra = list(rels)
        for shape, k in enumerate_family(w, fam):
            d = shape.d
            for rot in range(1, d):
                r2 = tuple(shape.r[(rot + t) % d] for t in range(d))
                vals = []
                for t in range(d):
                    vals.extend(k.block((rot + t) % d + 1))
                k2 = IntArgs(Shape(r2), tuple(vals))
                extra.append(cyclic_relation(k2))
        assert rank_exact(relation_matrix(extra)) == base


def test_table1_small_weights():
    got = table1(range(3, 6))
    assert got[3] == {"csf": 1, "derivation": 1, "cyclic": 1, "all_ref": 1}
    assert got[4] == {"csf": 2, "derivation": 2, "cyclic": 2, "all_ref": 3}
    assert got[5] == {"csf": 4, "derivation": 5, "cyclic": 5, "all_ref": 6}


def test_table1_budget():
    with pytest.raises(BudgetError):
        table1([9])
    with pytest.raises(BudgetError):
        table1([12], max_weight_budget=12)


def test_table1_refuses_weight_before_generating(monkeypatch):
    calls = []
    monkeypatch.setattr(relations, "generate_relations",
                        lambda *a, **k: calls.append(a) or [])
    with pytest.raises(BudgetError):
        table1(range(3, 10))
    assert calls == []


@pytest.mark.parametrize("family, bump, broken", [
    ("csf", 2, "csf rank 6 exceeds cyclic 5"),
    ("derivation", 1, "derivation rank 6 exceeds cyclic 5"),
    ("cyclic", 2, "cyclic rank 7 exceeds all_ref 6"),
])
def test_table1_checks_family_nesting(monkeypatch, family, bump, broken):
    rank = relations.rank_exact

    def skewed(matrix):
        r = rank(matrix)
        return r + bump if matrix.provenances[0].family == family else r

    monkeypatch.setattr(relations, "rank_exact", skewed)
    with pytest.raises(InternalInvariantError, match=f"weight 5: {broken}"):
        table1([5])


def test_relation_set_roundtrip():
    rels = generate_relations(4, "cyclic")
    obj = relation_set_to_json_obj(4, "cyclic", rels)
    import json

    m = relation_set_loads(json.dumps(obj))
    assert rank_exact(m) == rank_exact(relation_matrix(rels))
    assert m.weight == 4
    assert m.provenances[0] is not None


@pytest.mark.slow
def test_rank_sweep_and_weight11_rows(capsys):
    from cycliczeta.cli import main

    # the certified modular rank against Bareiss on every computed cell
    for w in range(3, 11):
        for fam in relations.FAMILIES:
            matrix = relation_matrix(generate_relations(w, fam))
            distinct = [[row.get(c, 0) for c in range(matrix.shape[1])]
                        for row in relations._distinct_rows(matrix)]
            assert rank_exact(matrix) == _rank_bareiss(distinct), (w, fam)
    code = main(["table1", "--max-weight", "11", "--budget-max-weight", "11"])
    assert code == 0
    rows = {r["weight"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    # computed values, not reference values; all_ref is the stored
    # reference count over all known relations (249 at w10, 503 at w11)
    assert (rows[10]["csf"], rows[10]["derivation"], rows[10]["cyclic"]) == (58, 181, 227)
    assert (rows[11]["csf"], rows[11]["derivation"], rows[11]["cyclic"]) == (106, 363, 466)
    assert sorted(rows) == list(range(3, 12))
    for row in rows.values():
        assert row["csf"] <= row["cyclic"] and row["derivation"] <= row["cyclic"]
        assert all(row[f] <= row["all_ref"] for f in relations.FAMILIES)
