import functools
import gzip
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from cycliczeta import decompose, relations
from cycliczeta.decompose import Composition, SymbolCombination, decompose_to_mzv
from cycliczeta.errors import (
    BudgetError,
    DomainError,
    InternalInvariantError,
    NonAdmissibleError,
    ParseError,
)
from cycliczeta.model import (
    EXTRA,
    Constraint,
    ConstraintSystem,
    IntArgs,
    Shape,
    VarId,
    build_constraints_S_i,
    build_constraints_S_ij,
    is_integer_point_in_W,
)
from cycliczeta.relations import (
    ALL_RELATIONS_REF,
    Provenance,
    RelationMatrix,
    csf_relation,
    cyclic_relation,
    enumerate_family,
    generate_relations,
    rank_exact,
    relation_matrix,
    relation_set_loads,
    relation_set_dumps,
    table1,
    zeta_star_expand,
    _rank_bareiss,
    _rank_mod,
)
from cycliczeta.series import combo_partial_sum


STORED_W10 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "relations-w10-cyclic.json.gz"


def C(*parts):
    return Composition(tuple(parts))


def dense(m):
    return [[row.get(c, 0) for c in range(m.shape[1])] for row in m.rows]


def family_rank(weight, family):
    return rank_exact(generate_relations(weight, family))


def combo(d):
    return SymbolCombination({C(*k): v for k, v in d.items()})


# --- single relations --------------------------------------------------------


def test_cyclic_relation_euler():
    rel = cyclic_relation(IntArgs(Shape((1,)), (2,)))
    assert rel == combo({(1, 2): 1, (3,): -1})


def test_cyclic_relation_rejects_outside_W():
    with pytest.raises(DomainError):
        cyclic_relation(IntArgs(Shape((1,)), (1,)))


def test_cyclic_relation_weight4_numeric_zero():
    rel = cyclic_relation(IntArgs(Shape((2,)), (1, 2)))
    assert rel.weight() == 4
    # slow-converging depth-3 symbols put the truncation defect near
    # (log N)^2 / 2N, so the numeric-zero tolerance at N = 1e4 is 1e-2
    assert abs(combo_partial_sum(rel, 10_000)) < 1e-2


def test_cyclic_relation_weight4_exact():
    # hand decomposition: z(1,1,2) - z(2,2) - z(1,3)
    rel = cyclic_relation(IntArgs(Shape((2,)), (1, 2)))
    assert rel == combo({(1, 1, 2): 1, (2, 2): -1, (1, 3): -1})


def test_zeta_star_expand_examples():
    assert zeta_star_expand(C(1, 2)) == combo({(1, 2): 1, (3,): 1})
    assert zeta_star_expand(C(2)) == combo({(2,): 1})
    assert zeta_star_expand(C(1, 1, 2)) == combo(
        {(1, 1, 2): 1, (2, 2): 1, (1, 3): 1, (4,): 1}
    )


def _star_chain(parts):
    """The all-non-strict chain x_1 <= ... <= x_t and its exponents: its
    decomposition is the star symbol of parts."""
    t = len(parts)
    vs = [VarId.block(1, j + 1) for j in range(t)]
    cons = tuple(Constraint(vs[p], "<=", vs[p + 1]) for p in range(t - 1))
    return ConstraintSystem(Shape((t,)), False, cons), dict(zip(vs, parts))


def test_zeta_star_expand_matches_chain_decomposition():
    for parts in ((1, 2), (2, 3), (1, 1, 2), (2, 1, 3), (1, 1, 1, 2)):
        assert zeta_star_expand(C(*parts)) == decompose_to_mzv(*_star_chain(parts)), parts


def reference_star_expand(c):
    """The merge loop `zeta_star_expand` ran before it took submasks of the
    partial sums, kept as the oracle."""
    parts, acc = c.parts, {}
    for mask in range(1 << (len(parts) - 1)):
        merged = [parts[0]]
        for pos in range(1, len(parts)):
            if (mask >> (pos - 1)) & 1:
                merged[-1] += parts[pos]
            else:
                merged.append(parts[pos])
        acc[Composition(tuple(merged))] = 1
    return SymbolCombination(acc)


def test_zeta_star_expand_matches_the_merge_loop_up_to_weight_11():
    checked = 0
    for w in range(1, 12):
        for t in range(1, w + 1):
            for parts in relations._compositions(w, t):
                c = C(*parts)
                if not c.admissible:
                    with pytest.raises(NonAdmissibleError):
                        zeta_star_expand(c)
                    continue
                assert zeta_star_expand(c) == reference_star_expand(c), parts
                checked += 1
    assert checked == 2**10 - 1


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
    assert rel == combo({(1, 2): 1, (3,): -1})

    rel = csf_relation(IntArgs(Shape((1, 1)), (1, 2)))
    assert rel.weight() == 4
    assert abs(combo_partial_sum(rel, 10_000)) < 1e-2

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
    # every derivation or csf configuration is also a cyclic configuration
    cyc = set(enumerate_family(5, "cyclic"))
    assert set(enumerate_family(5, "derivation")) <= cyc
    assert set(enumerate_family(5, "csf")) <= cyc


def _enumerate_family_oracle(weight, family):
    """The per-family enumeration loop that enumerate_family replaced."""
    out = []
    for shape in (Shape(r[:-1]) for d in range(1, weight - 1)
                  for r in relations._compositions(weight - 1, d + 1)):
        if family == "csf" and not shape.all_singleton:
            continue
        if family == "derivation" and any(x != 1 for x in shape.r[1:]):
            continue
        for vals in relations._compositions(weight - 1, shape.total_depth):
            if family == "derivation" and any(v != 1 for v in vals[shape.r[0]:]):
                continue
            k = IntArgs(shape, vals)
            if is_integer_point_in_W(k):
                out.append((shape, k))
    return out


def test_enumerate_family_returns_a_new_list():
    for fam in relations.FAMILIES:
        got = enumerate_family(6, fam)
        want = list(got)
        got.reverse()
        got.append(got[0])
        assert enumerate_family(6, fam) == want == _enumerate_family_oracle(6, fam), fam
        enumerate_family(6, fam).clear()
        assert enumerate_family(6, fam) == want, fam


# --- one relation per block-rotation orbit -----------------------------------


def _rotations(k):
    """Every cyclic rotation of the blocks of k, k itself first."""
    blocks = [k.block(i) for i in range(1, k.shape.d + 1)]
    for t in range(len(blocks)):
        rot = blocks[t:] + blocks[:t]
        yield IntArgs(Shape(tuple(map(len, rot))), sum(rot, ()))


def test_generate_relations_matches_per_configuration_route(monkeypatch):
    monkeypatch.setattr(relations, "_ORBIT_MASKS", {})
    for w in range(3, 9):
        for fam in relations.FAMILIES:
            assert generate_relations(w, fam) == _per_configuration_matrix(w, fam), (w, fam)


def _per_call_cyclic(k):
    """The per-call route: decompose_to_mzv(...).items() summed per (i, j, m)."""
    shape, acc = k.shape, {}

    def add(cs, exps, sign):
        for comp, c in decompose_to_mzv(cs, exps).items():
            acc[comp] = acc.get(comp, 0) + sign * c

    base = {VarId.block(a, b): k[(a, b)] for (a, b) in shape.positions()}
    for i in range(1, shape.d + 1):
        r_i = shape.r[i - 1]
        for j in range(1, r_i + 1):
            for m in range(1 if j == r_i else 0, k[(i, j)]):
                exps = {**base, VarId.block(i, j): k[(i, j)] - m, EXTRA: m + 1}
                add(build_constraints_S_ij(shape, i, j), exps, 1)
    for i in range(1, shape.d + 1):
        add(build_constraints_S_i(shape, i), {**base, EXTRA: 1}, -1)
    return SymbolCombination(acc)


def _per_call_csf(k):
    """The cyclic-sum identity with each rotated star symbol decomposed as a
    non-strict chain by decompose_to_mzv."""
    vals, acc = k.values, {}
    d, total = len(vals), sum(vals)
    for i in range(d):
        for m in range(1, vals[i]):
            rotated = (vals[i] - m,) + vals[i + 1:] + vals[:i] + (m + 1,)
            for comp, c in decompose_to_mzv(*_star_chain(rotated)).items():
                acc[comp] = acc.get(comp, 0) + c
    acc[C(total + 1)] = acc.get(C(total + 1), 0) - total
    return SymbolCombination(acc)


def test_part_tuple_engine_matches_per_call_route():
    for w in range(3, 9):
        for fam in relations.FAMILIES:
            for _, k in enumerate_family(w, fam):
                assert cyclic_relation(k) == _per_call_cyclic(k), (fam, str(k))


def test_part_tuple_engine_reports_first_non_admissible_order():
    shape = Shape((2, 1))
    for cs in [build_constraints_S_ij(shape, 1, 2), build_constraints_S_i(shape, 1)]:
        for exps in ([2, 1, 1, 1], [1, 0, 2, 1], [0, 0, 0, 0], [2, 2, 2, 0]):
            by_var = dict(zip(cs.variables, exps))
            first = next((osp, parts) for osp in decompose.weak_orders(cs)
                         for parts in [tuple(sum(by_var[v] for v in lvl) for lvl in osp.levels)]
                         if min(parts) < 1 or parts[-1] < 2)
            for route in (lambda: decompose._part_counts(cs, exps),
                          lambda: decompose_to_mzv(cs, by_var)):
                with pytest.raises(NonAdmissibleError) as ei:
                    route()
                assert (ei.value.partition, ei.value.parts) == first, (str(cs), exps)


def test_rotated_configurations_have_equal_relations():
    for w in range(3, 9):
        for _, k in enumerate_family(w, "cyclic"):
            base, *rotated = (cyclic_relation(k2) for k2 in _rotations(k))
            assert all(c == base for c in rotated), str(k)


def _spy_orbit_masks(monkeypatch):
    """The configurations whose relation masks are computed, from an empty
    orbit cache."""
    calls = []
    masks = relations._relation_masks
    monkeypatch.setattr(relations, "_ORBIT_MASKS", {})
    monkeypatch.setattr(relations, "_relation_masks", lambda k: calls.append(k) or masks(k))
    return calls


def test_one_generator_call_per_orbit(monkeypatch):
    calls = _spy_orbit_masks(monkeypatch)
    # the cyclic-sum family is generated by the same calls, on its own orbits
    csf = generate_relations(7, "csf")
    assert 0 < len(calls) < csf.shape[0]
    matrix = generate_relations(7, "cyclic")
    orbits = {min(tuple(map(str, _rotations(k)))) for _, k in enumerate_family(7, "cyclic")}
    distinct = relations._distinct_rows(matrix)
    assert (matrix.shape[0], len(calls), len(orbits), len(distinct)) == (88, 45, 45, 45)
    # derivation configurations reuse the orbits the cyclic family filled,
    # and so does the rank table
    generate_relations(7, "derivation")
    table1([7], max_weight_budget=7)
    assert len(calls) == 45


@pytest.mark.parametrize("family", relations.FAMILIES)
def test_table1_computes_only_the_orbits_of_its_families(monkeypatch, family):
    """table1([w], ["csf"]) computes no orbit of a non-singleton shape; each
    family's table computes one orbit per orbit of its own configurations."""
    calls = _spy_orbit_masks(monkeypatch)
    ranks = {"csf": 18, "derivation": 44, "cyclic": 52}
    assert table1([8], [family], max_weight_budget=8)[8][family] == ranks[family]
    configs = enumerate_family(8, family)
    orbits = {min(tuple(map(str, _rotations(k)))) for _, k in configs}
    assert {str(k) for k in calls} <= {str(k) for _, k in configs}
    assert len(calls) == len(orbits)
    if family == "csf":
        assert calls and all(k.shape.all_singleton for k in calls)


# --- matrices and rank -------------------------------------------------------


def _relation_matrix_oracle(combos, provenances):
    """The Composition-keyed builder: each distinct combination object
    indexed once, by column."""
    coeffs = {id(co): co.coefficients() for co in combos}
    symbols = sorted(set().union(*coeffs.values()), key=Composition.sort_key)
    weights = sorted({comp.weight for comp in symbols})
    if len(weights) > 1:
        raise ValueError(f"relations mix symbol weights {weights}")
    col = {comp: t for t, comp in enumerate(symbols)}
    entries = {key: dict(sorted((col[comp], c) for comp, c in co.items()))
               for key, co in coeffs.items()}
    return RelationMatrix(tuple(symbols), [entries[id(co)] for co in combos],
                          weights[0] if weights else None, list(provenances))


def _per_configuration_matrix(weight, family):
    """The oracle matrix of a family, each relation generated for its own
    configuration (no orbit is shared)."""
    gen = csf_relation if family == "csf" else cyclic_relation
    configs = enumerate_family(weight, family)
    return _relation_matrix_oracle([gen(k) for _, k in configs],
                                   [Provenance(family, *c) for c in configs])


def _mask_rows(combos):
    """Combinations as the {partial-sum mask: coefficient} rows relation_matrix
    takes, one row dict per distinct combination object."""
    rows = {id(co): {decompose._mask(comp.parts): c for comp, c in co.items()} for co in combos}
    return [rows[id(co)] for co in combos]


def _combinations(matrix):
    """Each row of a matrix as a combination of its symbols; rows that share a
    dict (the configurations of one orbit) share one combination."""
    combos = {id(row): SymbolCombination({matrix.symbols[c]: v for c, v in row.items()})
              for row in matrix.rows}
    return [combos[id(row)] for row in matrix.rows]


def _check_builders_against_oracles(weights):
    """At each weight and family: the enumeration against the per-family
    loop, generate_relations against the Composition-keyed builder over the
    per-configuration relations (equal matrices and equal relation-set
    bytes), and table1 against each family's rank on the oracle matrix, for
    all families at once and for each alone."""
    for w in weights:
        ranks = {}
        for fam in relations.FAMILIES:
            assert enumerate_family(w, fam) == _enumerate_family_oracle(w, fam), (w, fam)
            want = _per_configuration_matrix(w, fam)
            got = generate_relations(w, fam, max_weight_budget=w)
            assert got == want, (w, fam)
            assert relation_set_dumps(w, fam, got) == relation_set_dumps(w, fam, want), (w, fam)
            ranks[fam] = rank_exact(want)
            assert table1([w], [fam], max_weight_budget=w)[w][fam] == ranks[fam], (w, fam)
        assert table1([w], max_weight_budget=w)[w] == {**ranks, "all_ref": ALL_RELATIONS_REF[w]}


def test_builders_match_the_oracles_up_to_weight_9():
    _check_builders_against_oracles(range(3, 10))


@pytest.mark.slow
def test_builders_match_the_oracles_at_weights_10_and_11():
    _check_builders_against_oracles((10, 11))


def test_relation_matrix_matches_the_oracle_on_shared_and_mixed_rows():
    """Repeated and reversed relations, a relation built outside any orbit
    cache, no relations, and relations of two weights (ValueError)."""
    rels = _combinations(generate_relations(5, "cyclic"))
    k = IntArgs.parse("1;1,2")  # a configuration of w5, rotated in the orbit of 1,2;1
    for case in (rels + rels[::-1], rels + [cyclic_relation(k)], []):
        provs = [None] * len(case)
        assert relation_matrix(_mask_rows(case), provs) == _relation_matrix_oracle(case, provs)
    mixed = rels + _combinations(generate_relations(4, "csf"))
    for build in (lambda: relation_matrix(_mask_rows(mixed), [None] * len(mixed)),
                  lambda: _relation_matrix_oracle(mixed, [None] * len(mixed))):
        with pytest.raises(ValueError, match=r"mix symbol weights \[4, 5\]"):
            build()


def test_relation_matrix_examples():
    [euler] = _mask_rows([cyclic_relation(IntArgs(Shape((1,)), (2,)))])
    assert euler == {0b101: 1, 0b100: -1}  # z(1,2) - z(3): partial sums {1, 3} and {3}
    m = relation_matrix([euler], [None])
    assert m.shape == (1, 2)
    assert dense(m) == [[1, -1]]
    assert [str(c) for c in m.symbols] == ["1,2", "3"]

    empty = relation_matrix([], [])
    assert rank_exact(empty) == 0

    m2 = relation_matrix([euler, euler], [None, None])
    assert m2.shape == (2, 2)
    assert rank_exact(m2) == 1


def test_relation_matrix_rejects_mixed_weights():
    rows = _mask_rows([cyclic_relation(IntArgs(Shape((1,)), (2,))),
                       cyclic_relation(IntArgs(Shape((1,)), (3,)))])
    with pytest.raises(ValueError, match=r"mix symbol weights \[3, 4\]"):
        relation_matrix(rows, [None, None])


def test_rank_small_matrices():
    assert _rank_bareiss([[1, -1]]) == 1
    assert _rank_bareiss([[0, 0], [0, 0]]) == 0
    assert _rank_bareiss([[2, 4, 1], [1, 2, 0], [3, 6, 1]]) == 2
    for p in itertools.islice(relations._primes(), 2):
        assert _rank_mod([[2, 4, 1], [1, 2, 0], [3, 6, 1]], p) == 2
    # rows with no entries: a zero block, whose kernel vectors are checked
    # in the widest limbs
    assert rank_exact(_matrix([[0, 0], [0, 0]])) == 0


def test_rank_exact_drops_repeated_rows(monkeypatch):
    seen = []
    rref_mod = relations._rref_mod
    monkeypatch.setattr(relations, "_rref_mod",
                        lambda block, sub, p: seen.append(block[sub].tolist())
                        or rref_mod(block, sub, p))
    matrix = generate_relations(5, "cyclic")
    rows = _mask_rows(_combinations(matrix))
    doubled = relation_matrix(rows + rows[::-1], [None] * (2 * len(rows)))
    assert rank_exact(doubled) == 5
    first_seen = list(dict.fromkeys(tuple(r) for r in dense(matrix)))
    assert [tuple(row) for row in seen[0]] == first_seen


def test_rank_weight5_cyclic_is_5():
    assert family_rank(5, "cyclic") == 5


def _fraction_rref(rows):
    """The pivot columns and reduced rows of Gauss-Jordan elimination over
    exact rationals."""
    from fractions import Fraction

    m = [[Fraction(x) for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            f = m[r][col]
            if f and r != rank:
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return pivots, m[:rank]


def _rank_fraction_oracle(rows):
    """Independent rank computation over exact rationals."""
    return len(_fraction_rref(rows)[0])


def _fuzz_matrices():
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
        yield rows


def test_rank_fuzz_against_fraction_oracle(monkeypatch):
    agree = _spy_kernel_vectors(monkeypatch)
    for rows in _fuzz_matrices():
        want = _rank_fraction_oracle(rows)
        assert _rank_bareiss([list(r) for r in rows]) == want
        for p in itertools.islice(relations._primes(), 2):
            assert _rank_mod(rows, p) == want
        assert rank_exact(_matrix(rows)) == want
    assert agree and all(agree)


def _matrix(rows):
    """A relation matrix over placeholder symbols with the given dense rows."""
    ncols = len(rows[0])
    return RelationMatrix(tuple(C(t + 2) for t in range(ncols)),
                          [{c: v for c, v in enumerate(r) if v} for r in rows],
                          None, [None] * len(rows))


# The 16 largest primes below 2^26.
PRIMES = (67108859, 67108837, 67108819, 67108777, 67108763,
          67108757, 67108753, 67108747, 67108739, 67108729,
          67108721, 67108709, 67108693, 67108669, 67108667,
          67108661)


# The first prime of the elimination divides the first matrix's determinant,
# so it sees rank 1 from the second row alone; the second has an entry far
# outside int64 and one row that is the sum of two others; the third's
# reduced row holds (2^250 + 1) / 2^250, whose reconstruction needs more
# than 16 primes.
HARD_MATRICES = {  # name: (rows, rank)
    "unlucky-prime": ([[PRIMES[0], 0], [0, 1]], 2),
    "huge-entry": ([[2**80, 3, 0, 1], [5, -7, 2, 0], [2**80 + 5, -4, 2, 1], [0, 1, 1, 1]], 3),
    "wide-fraction": ([[2**250, 2**250 + 1]], 1),
}


def test_primes_continue_past_the_literal_list():
    primes = list(itertools.islice(relations._primes(), len(PRIMES) + 20))
    assert tuple(primes[:len(PRIMES)]) == PRIMES
    assert all(a > b for a, b in zip(primes, primes[1:])) and primes[0] < 2**26
    gaps = range(primes[-1], PRIMES[-1])
    trial = [n for n in gaps if all(n % q for q in range(2, math.isqrt(n) + 1))]
    assert primes[len(PRIMES):] == sorted(trial, reverse=True)


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


def _kernel_vectors_per_entry(columns, m, pivots, free, ncols):
    """The per-entry route to the kernel vectors: every entry reconstructed
    on its own, d the lcm of all of a column's denominators."""
    kernel = []
    for column, c in zip(columns, free):
        fracs = []
        for u in column:
            frac = relations._rational_reconstruction(u, m)
            if frac is None:
                return None
            fracs.append(frac)
        d = math.lcm(*(b for _, b in fracs))
        y = [0] * ncols
        for col, (a, b) in zip(pivots, fracs):
            y[col] = a * (d // b)
        y[c] = -d
        kernel.append(y)
    return kernel


def _spy_kernel_vectors(monkeypatch):
    """Compare every reconstruction with the per-entry route; the list
    collects one bool per call."""
    fast = relations._kernel_vectors
    agree = []

    def spy(*args):
        out = fast(*args)
        agree.append(out == _kernel_vectors_per_entry(*args))
        return out

    monkeypatch.setattr(relations, "_kernel_vectors", spy)
    return agree


CELLS = [f"{fam}-w{w}" for w in range(3, 9) for fam in relations.FAMILIES]


@pytest.mark.parametrize("case", CELLS + sorted(HARD_MATRICES) + ["fuzz"])
def test_certificate_matches_the_per_entry_route(monkeypatch, case):
    if case == "fuzz":  # zero rows and low ranks
        matrices = [_matrix(rows) for rows in _fuzz_matrices()]
    elif case in HARD_MATRICES:
        matrices = [_matrix(HARD_MATRICES[case][0])]
    else:
        fam, w = case.split("-w")
        matrices = [generate_relations(int(w), fam)]
    agree = _spy_kernel_vectors(monkeypatch)
    for matrix in matrices:
        rank = rank_exact(matrix)
        distinct = relations._distinct_rows(matrix)
        ncols = matrix.shape[1]
        assert rank == _rank_bareiss([[row.get(c, 0) for c in range(ncols)] for row in distinct])
        norms = sorted((max(1, sum(v * v for v in row.values())) for row in distinct),
                       reverse=True)
        block = relations._block(distinct, ncols)
        assert relations._hadamard_square(block) == math.prod(norms[:min(len(distinct), ncols)])
    assert agree and all(agree)


def test_kernel_vectors_reconstruct_a_growing_denominator():
    # entries 1/2, 1/3, 5/6 and 7 in one column: the running denominator
    # grows 1 -> 2 -> 6, and 5/6 and 7 are read from it without a new
    # reconstruction
    p = PRIMES[0]
    column = [x * pow(y, -1, p) % p for x, y in ((1, 2), (1, 3), (5, 6), (7, 1))]
    calls = []
    wang = relations._rational_reconstruction
    args = ([column], p, [0, 1, 2, 3], [4], 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "_rational_reconstruction", lambda u, m: calls.append(u) or wang(u, m))
        assert relations._kernel_vectors(*args) == [[3, 2, 5, 42, -6]]
    assert calls == column[:2]
    assert _kernel_vectors_per_entry(*args) == [[3, 2, 5, 42, -6]]
    # an entry with no reconstruction leaves no vector
    u = next(u for u in itertools.count(p // 3) if relations._rational_reconstruction(u, p) is None)
    assert relations._kernel_vectors([column + [u]], p, [0, 1, 2, 3, 5], [4], 6) is None


def _certificate(rows):
    """The block of the distinct rows and their kernel vectors from one
    prime, with the pivot and free columns."""
    matrix = _matrix(rows)
    distinct = relations._distinct_rows(matrix)
    ncols = matrix.shape[1]
    block = relations._block(distinct, ncols)
    p = PRIMES[0]
    rank, pivots, rref, _ = relations._rref_mod(block, list(range(len(distinct))), p)
    free = [c for c in range(ncols) if c not in pivots]
    kernel = relations._kernel_vectors(rref[:, free].T.tolist(), p, pivots, free, ncols)
    return block, pivots, free, kernel


def test_check_kernel_rejects_corrupted_vector():
    rows = dense(generate_relations(6, "cyclic"))
    block, pivots, free, kernel = _certificate(rows)
    assert kernel and len(free) == len(rows[0]) - 11 and block.dtype == np.int64
    # the int64 product and the Python-integer one
    for b in (block, block.astype(object)):
        relations._check_kernel(b, free, kernel)
        for c in (pivots[0], free[0]):
            bad = [list(y) for y in kernel]
            bad[0][c] += 1
            with pytest.raises(InternalInvariantError, match="is not 0"):
                relations._check_kernel(b, free, bad)
        # the zero vector solves every row but proves nothing
        zero = [[0] * len(rows[0])] + kernel[1:]
        with pytest.raises(InternalInvariantError, match="not diagonal"):
            relations._check_kernel(b, free, zero)


def test_check_kernel_leaves_int64_before_a_product_wraps():
    # 2^30 * 2^34 - 2^30 * 2^35 = -2^64, which int64 arithmetic wraps to 0
    block = relations._block([{0: 2**30, 1: 2**30}], 2)
    assert block.dtype == np.int64
    with pytest.raises(InternalInvariantError, match="is not 0"):
        relations._check_kernel(block, [1], [[2**34, -(2**35)]])
    # 2^30 (2 (2^33 - 1) + 2) = 2^64: entries of 34 bits are two 32-bit limbs
    block = relations._block([{0: 2**30, 1: 2**30, 2: 2**30}], 3)
    assert block.dtype == np.int64
    with pytest.raises(InternalInvariantError, match="is not 0"):
        relations._check_kernel(block, [2], [[2**33 - 1, 2**33 - 1, 2]])


def _kernel_product_oracle(block, free, kernel):
    """The verdict of _check_kernel on diagonal vectors, from the block times
    them in Python integers (dtype object): None, or the error that names the
    first row and vector whose product is not 0."""
    bad = np.argwhere(block.astype(object) @ np.array(kernel, object).T != 0)
    if not bad.size:
        return None
    i, j = bad[0]
    return f"row {i} times the kernel vector for column {free[j]} is not 0"


def _check_kernel_verdict(block, free, kernel):
    try:
        relations._check_kernel(block, free, kernel)
    except InternalInvariantError as exc:
        return str(exc)
    return None


def _block_with_kernel(rng, r, f, bits, d, scale):
    """The block [d I_r | -X], with X of random entries below 2^bits, its
    rows followed by a sum and a difference of two of them, its free columns
    r + j and their kernel vectors s (X e_j, d e_j)."""
    x = [[rng.randrange(-(2**bits), 2**bits) for _ in range(f)] for _ in range(r)]
    rows = [[d * (a == i) for a in range(r)] + [-v for v in x[i]] for i in range(r)]
    rows += [[a + b for a, b in zip(rows[0], rows[-1])], [a - b for a, b in zip(rows[1], rows[0])]]
    kernel = [[scale * x[i][j] for i in range(r)] + [scale * d * (t == j) for t in range(f)]
              for j in range(f)]
    block = relations._block([{c: v for c, v in enumerate(row) if v} for row in rows], r + f)
    return block, list(range(r, r + f)), kernel


def test_check_kernel_in_limbs_matches_the_object_product():
    """Kernel vectors far past the int64 bound of one product (the block's
    ncols times its largest entry times the largest vector entry is >= 2^63),
    held in int64 or past it: the check in limbs agrees with the product in
    Python integers, also after one entry of one vector is changed, in a low
    or a high limb, or by 2^64, which an int64 product would not see.  The
    last block is too large for int64 and is multiplied as Python integers."""
    rng = random.Random(33)
    w7 = _certificate(dense(generate_relations(7, "cyclic")))
    cases = [(w7[0], w7[2], [[x * scale for x in y] for y in w7[3]])
             for scale in (1, 2**61 - 1, 5**40)]
    cases += [_block_with_kernel(rng, r, f, bits, d, scale) for r, f, bits, d, scale in [
        (6, 3, 20, 3, 3**30), (4, 2, 28, 2**28 - 1, 2**70 + 1), (3, 2, 12, 5, 2**100 - 1),
        (3, 2, 37, 2**37 - 1, 7)]]
    routes = []
    for block, free, kernel in cases:
        top = max(-int(block.min()), int(block.max())) * block.shape[1]
        routes.append((block.dtype == np.int64 and top << 23 < 2**63,
                       top * max(abs(x) for y in kernel for x in y) >= 2**63))
        assert _check_kernel_verdict(block, free, kernel) is None
        assert _kernel_product_oracle(block, free, kernel) is None
        pivots = [c for c in range(block.shape[1]) if c not in free]
        for _ in range(40):
            bad = [list(y) for y in kernel]
            j = rng.randrange(len(bad))
            c = rng.choice(pivots + [free[j]])
            bad[j][c] += rng.choice([1, -1, 2**23, -(2**31), 2**32 + 1, 2**64, 2**64 * 3**20])
            if bad[j][c]:
                want = _kernel_product_oracle(block, free, bad)
                assert want is not None and _check_kernel_verdict(block, free, bad) == want
    # every case is past one int64 product but one, and all but the last
    # two run in limbs
    # (limbs, past one int64 product) for each case
    assert routes == [(True, False)] + [(True, True)] * 5 + [(False, True)]


def test_block_is_int64_only_while_squared_row_norms_fit():
    # an entry of 2^31 over 2 columns makes top^2 * ncols = 2^63
    for top, ncols, dtype in [(2**31 - 1, 2, np.int64), (2**31, 2, object),
                              (-(2**31), 2, object), (2**31, 1, np.int64),
                              (2**63, 1, object), (2**80, 4, object)]:
        rows = [{0: top}, {ncols - 1: -1}]
        block = relations._block(rows, ncols)
        assert block.dtype == dtype, (top, ncols)
        assert block.tolist() == [[row.get(c, 0) for c in range(ncols)] for row in rows]
        assert all(type(x) is int for x in block.ravel().tolist())
        assert relations._hadamard_square(block) == top * top


def test_rank_exact_raises_when_a_pivot_is_dropped(monkeypatch):
    rref_mod = relations._rref_mod
    primes = []

    def drop_last_pivot(block, sub, p):
        primes.append(p)
        rank, pivots, rref, where = rref_mod(block, sub, p)
        return rank - 1, pivots[:-1], rref[:-1], where[:-1]

    monkeypatch.setattr(relations, "_rref_mod", drop_last_pivot)
    rows = dense(generate_relations(5, "cyclic"))
    with pytest.raises(InternalInvariantError, match="2H"):
        rank_exact(_matrix(rows))
    # the pivot minors are small: 2H^2 has 25 bits, so the first 26-bit
    # prime already passes it
    assert primes == [PRIMES[0]]


def _spy_rref_mod(monkeypatch):
    """Record the rows each prime reduces, as read from the block, and what
    it returns."""
    rref_mod = relations._rref_mod
    calls = []

    def spy(block, sub, p):
        rows = block[sub].tolist()
        out = rref_mod(block, sub, p)
        calls.append((rows, out))
        return out

    monkeypatch.setattr(relations, "_rref_mod", spy)
    return calls


# Computed cyclic ranks, as table1 reports them.  From w6 on, 2H^2 exceeds
# one prime, so a second prime can run (at w5 it has 25 bits).
CYCLIC_RANKS = {6: 11, 7: 25, 8: 52, 9: 110, 10: 227}


def _cyclic_matrix(weight):
    """The cyclic relation matrix of a weight; w10 is read from the stored
    benchmark set (587 distinct rows over 256 symbols)."""
    if weight < 10:
        return generate_relations(weight, "cyclic")
    with gzip.open(STORED_W10) as f:
        return relation_set_loads(f.read())


@pytest.mark.parametrize("weight", sorted(CYCLIC_RANKS))
def test_later_primes_reduce_only_the_pivot_rows(monkeypatch, weight):
    calls = _spy_rref_mod(monkeypatch)
    kernel_vectors = relations._kernel_vectors
    # one reconstruction "fails", as when the modulus is still too small (at
    # w10 the first prime's modulus is too small for the kernel's fractions)
    failed = []
    monkeypatch.setattr(relations, "_kernel_vectors",
                        lambda *a: failed.append(1) if not failed else kernel_vectors(*a))
    matrix = _cyclic_matrix(weight)
    ncols = matrix.shape[1]
    distinct = [[row.get(c, 0) for c in range(ncols)] for row in relations._distinct_rows(matrix)]
    assert rank_exact(matrix) == CYCLIC_RANKS[weight] and len(calls) == 2
    (first, (r1, piv1, _, where)), (second, (r2, piv2, _, _)) = calls
    assert first == distinct and len(where) == r1
    assert second == [distinct[i] for i in where]
    if weight == 10:
        assert (len(first), len(second)) == (587, 227)
    # the pivot rows span the row space, so the second prime finds the same
    # rank and pivots
    assert (r2, piv2) == (r1, piv1)


def test_unlucky_prime_falls_back_to_all_rows(monkeypatch):
    calls = _spy_rref_mod(monkeypatch)
    rows, rank = HARD_MATRICES["unlucky-prime"]
    assert rank_exact(_matrix(rows)) == _rank_fraction_oracle(rows) == rank
    # the first prime keeps only the second row, whose kernel vector fails
    # the check against the first, so the next prime reduces both rows again
    (first, (r1, _, _, where)), (second, (r2, _, _, _)) = calls
    assert (r1, where, r2) == (1, [1], 2)
    assert len(first) == len(second) == 2


@pytest.mark.parametrize("p", [2**31 - 1, PRIMES[0]])
def test_rref_mod_matches_fraction_elimination(p):
    # 2^31 - 1 reduces the block after every pivot, PRIMES[0] only at the
    # end; the w7 rows take 25 pivots, enough to wrap int64 without the
    # reductions at 2^31 - 1
    w7 = dense(generate_relations(7, "cyclic"))
    for rows in [*_fuzz_matrices(), w7]:
        distinct = relations._distinct_rows(_matrix(rows))
        ncols = len(rows[0])
        block = relations._block(distinct, ncols)
        dense_rows = [[row.get(c, 0) for c in range(ncols)] for row in distinct]
        assert block.dtype == np.int64 and block.tolist() == dense_rows
        want_pivots, want_rref = _fraction_rref(dense_rows)
        want = [[x.numerator * pow(x.denominator, -1, p) % p for x in r] for r in want_rref]
        # the Python-integer block reduces to the same residues
        for b in (block, block.astype(object)):
            rank, pivots, rref, where = relations._rref_mod(b, list(range(len(distinct))), p)
            assert (rank, pivots) == (len(want_pivots), want_pivots)
            assert rref.dtype == np.int64 and rref.tolist() == want
            assert _rank_fraction_oracle([dense_rows[i] for i in where]) == rank
        # a sub-list reduces those rows of the block alone
        sub = list(range(len(distinct)))[::-2]
        rank, pivots, rref, _ = relations._rref_mod(block, sub, p)
        want_pivots, want_rref = _fraction_rref([dense_rows[i] for i in sub])
        assert (rank, pivots) == (len(want_pivots), want_pivots)
        assert rref.tolist() == [[x.numerator * pow(x.denominator, -1, p) % p for x in r]
                                 for r in want_rref]


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
            assert _brute_relation_value(k, n) == _combo_exact_partial(rel, n), k
            checked += 1
    # weight-6 sample including the configuration that is independent of
    # the derivation span (see the acceptance notes)
    for text in ("2;1,2", "1,1,3", "5", "1;1;1,2"):
        k = IntArgs.parse(text)
        rel = cyclic_relation(k)
        assert _brute_relation_value(k, n) == _combo_exact_partial(rel, n), k
        checked += 1
    assert checked >= 16


def _cyclic_relation_includes_csf(weights):
    """The paper's claim: at every all-singleton configuration the cyclic
    relation is the cyclic sum formula, checked against the star-chain
    route."""
    for w in weights:
        for _, k in enumerate_family(w, "csf"):
            assert _per_call_csf(k) == cyclic_relation(k) == csf_relation(k), str(k)


def test_specialization_csf_equals_cyclic_small():
    _cyclic_relation_includes_csf(range(3, 10))


@pytest.mark.slow
def test_specialization_csf_equals_cyclic_large():
    _cyclic_relation_includes_csf((10, 11))


def test_numeric_zero_weight_le_6():
    # Truncation defects are dominated by the slowest symbol tails,
    # about (log N)^(w-2)/N, so the attainable threshold grows with weight:
    # measured worst defects at N=1e4 are 1.1e-3 / 6e-3 / 4.2e-2 / 0.18.
    bound = {3: 2e-3, 4: 1e-2, 5: 8e-2, 6: 0.25}
    for w in (3, 4, 5, 6):
        matrix = generate_relations(w, "cyclic")
        for rel, prov in zip(_combinations(matrix), matrix.provenances):
            v1 = abs(combo_partial_sum(rel, 10_000))
            v2 = abs(combo_partial_sum(rel, 20_000))
            assert v1 < bound[w], prov
            assert v2 < v1 or v2 < 1e-10, prov


# --- a 40-digit MZV oracle ---------------------------------------------------
#
# The iterated integral of zeta over 1 > t_1 > ... > t_n > 0, split at 1/2
# (the Hoelder convolution with p = 2; Borwein, Bradley, Broadhurst and
# Lisonek, Special values of multiple polylogarithms, Trans. AMS 353, 2001):
# zeta(w) = sum_k L(rev_swap(w[:k])) L(w[k:]), with L(u) the multiple
# polylogarithm of the word u at 1/2, each series converging like 2^-n.

MZV_BITS = 160  # fraction bits of the fixed-point values
MZV_TERMS = 180  # terms per series: the tail is below 2^-180 times a polylog factor


@functools.lru_cache(maxsize=None)
def polylog_half(word: tuple[int, ...]) -> int:
    """2^MZV_BITS times the iterated integral from 0 to 1/2 of the word,
    letters outermost first (0: dt/t, 1: dt/(1 - t)), empty or ending in 1:
    for x0^(r_1 - 1) x1 ... x0^(r_l - 1) x1 that is the sum over
    n_1 > ... > n_l >= 1 of 2^-n_1 / (n_1^r_1 ... n_l^r_l), cut at
    n_1 <= MZV_TERMS.  Each step floors, so the error is a few thousand
    units of 2^-MZV_BITS at most."""
    rs, run = [], 1
    for letter in word:
        if letter:
            rs.append(run)
            run = 1
        else:
            run += 1
    one = 1 << MZV_BITS
    if not rs:
        return one
    below = [one] * (MZV_TERMS + 1)  # the sum over the inner variables below n
    for r in reversed(rs[1:]):
        acc, nxt = 0, [0] * (MZV_TERMS + 1)
        for n in range(1, MZV_TERMS + 1):
            nxt[n] = acc
            acc += below[n] // n**r
        below = nxt
    return sum(below[n] // n ** rs[0] >> n for n in range(1, MZV_TERMS + 1))


@functools.lru_cache(maxsize=None)
def mzv_fixed(parts: tuple[int, ...]) -> int:
    """2^MZV_BITS times the symbol z(parts), smallest variable first (so the
    last part, on the largest variable, is >= 2)."""
    word = tuple(letter for p in reversed(parts) for letter in (0,) * (p - 1) + (1,))
    return sum(polylog_half(tuple(1 - a for a in reversed(word[:k]))) * polylog_half(word[k:])
               for k in range(len(word) + 1)) >> MZV_BITS


def mzv_defect(combo) -> float:
    """|sum c z| / sum |c| z of a combination, from the oracle's values."""
    terms = [(c, mzv_fixed(comp.parts)) for comp, c in combo.items()]
    return abs(sum(c * z for c, z in terms)) / sum(abs(c) * z for c, z in terms)


def test_mzv_oracle_matches_pi_squared_over_6_and_duality():
    import mpmath

    with mpmath.workdps(60):
        got = mpmath.mpf(mzv_fixed((2,))) / 2**MZV_BITS
        assert abs(got - mpmath.pi**2 / 6) < mpmath.mpf("1e-40")
        z3 = mpmath.mpf(mzv_fixed((3,))) / 2**MZV_BITS
        assert abs(z3 - mpmath.zeta(3)) < mpmath.mpf("1e-40")
    # z(1,2) = z(3) is duality, and the split at 1/2 takes a word's terms to
    # its dual's in reverse, so the fixed-point integers are equal
    assert mzv_fixed((1, 2)) == mzv_fixed((3,))
    assert mzv_fixed((1, 1, 2)) == mzv_fixed((4,))


def _check_relations_vanish(weights):
    for w in weights:
        for family in relations.FAMILIES:
            matrix = generate_relations(w, family)
            combos = {id(rel): (rel, prov)
                      for rel, prov in zip(_combinations(matrix), matrix.provenances)}
            assert combos, (w, family)
            for rel, prov in combos.values():
                assert mzv_defect(rel) < 1e-35, prov


def test_every_relation_vanishes_at_40_digits_up_to_weight_9():
    _check_relations_vanish(range(3, 10))


@pytest.mark.slow
def test_every_relation_vanishes_at_40_digits_at_weights_10_and_11():
    _check_relations_vanish((10, 11))


def test_mzv_oracle_sees_a_coefficient_off_by_one():
    rel = _combinations(generate_relations(9, "cyclic"))[-1]
    coeffs = dict(rel.coefficients())
    comp = min(coeffs, key=Composition.sort_key)
    coeffs[comp] += 1
    assert mzv_defect(rel) < 1e-35
    assert mzv_defect(SymbolCombination(coeffs)) > 1e-6


def test_family_nesting_ranks():
    for w in (4, 5, 6):
        rc = family_rank(w, "cyclic")
        assert family_rank(w, "csf") <= rc
        assert family_rank(w, "derivation") <= rc
        assert rc <= ALL_RELATIONS_REF[w]


def test_rotation_invariance_of_rank():
    for w, fam in ((4, "cyclic"), (5, "csf"), (5, "derivation")):
        rels = generate_relations(w, fam)
        base = rank_exact(rels)
        extra = _combinations(rels)
        for shape, k in enumerate_family(w, fam):
            d = shape.d
            for rot in range(1, d):
                r2 = tuple(shape.r[(rot + t) % d] for t in range(d))
                vals = []
                for t in range(d):
                    vals.extend(k.block((rot + t) % d + 1))
                k2 = IntArgs(Shape(r2), tuple(vals))
                extra.append(cyclic_relation(k2))
        assert rank_exact(relation_matrix(_mask_rows(extra), [None] * len(extra))) == base


def test_reference_column_is_the_admissible_count_minus_zagier_dimension():
    """The stored count of all relations at weight w is the number 2^(w-2)
    of admissible symbols minus Zagier's dimension d_w of the weight-w MZV
    space: d_0 = 1, d_1 = 0, d_2 = 1, d_w = d_(w-2) + d_(w-3)
    (Bluemlein, Broadhurst and Vermaseren, The multiple zeta value data
    mine, 2010)."""
    d = [1, 0, 1]
    while len(d) < 12:
        d.append(d[-2] + d[-3])
    assert ALL_RELATIONS_REF == {w: 2 ** (w - 2) - d[w] for w in range(3, 12)}


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
    monkeypatch.setattr(relations, "_ORBIT_MASKS", {})
    monkeypatch.setattr(relations, "_relation_masks", lambda k: calls.append(k) or {})
    monkeypatch.setattr(relations, "relation_matrix", lambda *a: calls.append(a))
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
        return r + bump if matrix.family == family else r

    monkeypatch.setattr(relations, "rank_exact", skewed)
    with pytest.raises(InternalInvariantError, match=f"weight 5: {broken}"):
        table1([5])


def test_relation_set_roundtrip():
    matrix = generate_relations(4, "cyclic")
    data = relation_set_dumps(4, "cyclic", matrix)
    assert data.endswith(b"}\n")
    m = relation_set_loads(data)
    assert (m.weight, m.family) == (4, "cyclic") and matrix.family is None
    assert (m.symbols, m.rows, m.provenances) == (matrix.symbols, matrix.rows, matrix.provenances)
    assert relation_set_loads(data.decode()) == m


@pytest.mark.parametrize("k", ["\u0663", "1_0"])
def test_relation_set_loads_refuses_a_non_ascii_or_underscore_argument(k):
    """A provenance "k" that int() reads but str() never writes ("\u0663"
    would load as 3) is refused."""
    obj = json.loads(relation_set_dumps(4, "cyclic",
                                        generate_relations(4, "cyclic")))
    prov = next(row["provenance"] for row in obj["rows"] if row["provenance"]["shape"] == "1")
    prov["k"] = k
    with pytest.raises(ParseError, match="only ASCII text without '_'"):
        relation_set_loads(json.dumps(obj))


@pytest.mark.parametrize("k", ["1,,2", "1,2,", " ,1,2"])
def test_relation_set_loads_refuses_a_blank_argument_entry(k):
    """A provenance "k" with a blank entry is refused, not read as the
    arguments without it ("1,,2" is not (1, 2))."""
    obj = json.loads(relation_set_dumps(4, "cyclic",
                                        generate_relations(4, "cyclic")))
    prov = obj["rows"][1]["provenance"]
    assert (prov["shape"], prov["k"]) == ("2", "1,2")
    assert relation_set_loads(json.dumps(obj)).provenances[1].args == IntArgs.parse("1,2")
    prov["k"] = k
    with pytest.raises(ParseError, match="bad integer entry"):
        relation_set_loads(json.dumps(obj))


@pytest.mark.parametrize("bad", [
    None,  # a valid set
    "{",  # not JSON
    '{"symbols": ["2"], "rows": [{"entries": [[0, "+1"]]}]}',  # a bad coefficient
])
@pytest.mark.parametrize("was_enabled", [True, False])
def test_relation_set_loads_restores_the_collector(monkeypatch, bad, was_enabled):
    import gc

    good = relation_set_dumps(4, "cyclic", generate_relations(4, "cyclic"))
    seen = []
    parse = relations._relation_set
    monkeypatch.setattr(relations, "_relation_set",
                        lambda data: seen.append(gc.isenabled()) or parse(data))
    (gc.enable if was_enabled else gc.disable)()
    try:
        if bad is None:
            assert relation_set_loads(good).weight == 4
        else:
            with pytest.raises(ParseError):
                relation_set_loads(bad)
        assert seen == [False] and gc.isenabled() is was_enabled
    finally:
        gc.enable()


def _json_dumps_route(weight, family, matrix):
    """The relation-set file as json.dumps(indent=2) writes it."""
    rows = [{"provenance": {"family": prov.family, "shape": str(prov.shape), "k": str(prov.args)},
             "entries": [[c, str(row[c])] for c in sorted(row)]}
            for row, prov in zip(matrix.rows, matrix.provenances)]
    obj = {"weight": weight, "family": family, "symbols": [str(c) for c in matrix.symbols],
           "rows": rows, "settings": {"include_d1_derivation": True, "schema": 1}}
    return (json.dumps(obj, indent=2) + "\n").encode()


def _dumps_cases():
    for w in range(3, 8):
        for fam in relations.FAMILIES:
            yield w, fam, generate_relations(w, fam)
    yield 3, "cyclic", relation_matrix([], [])
    k = IntArgs.parse("2;1,2")
    huge = RelationMatrix((C(1, 4), C(5)), [{0: 2**80 + 1, 1: -(2**81)}, {}, {1: 3, 0: -1}], 5,
                          [Provenance("cyclic", k.shape, k)] * 3)
    yield 5, "cyclic", huge


def test_relation_set_dumps_matches_json_dumps():
    for weight, family, matrix in _dumps_cases():
        data = relation_set_dumps(weight, family, matrix)
        assert data == _json_dumps_route(weight, family, matrix), (weight, family)
        assert relation_set_loads(data).rows == matrix.rows


# --- the json.loads reader, kept as the oracle of relation_set_loads ---------


def _oracle_row(entries):
    """The {column: int} dict of a row's entries, or None unless they are a
    list of [int column, str coefficient] pairs with distinct columns and
    each coefficient t read only when str(int(t)) == t."""
    if type(entries) is not list:
        return None
    row = {}
    for entry in entries:
        if type(entry) is not list or len(entry) != 2:
            return None
        c, t = entry
        if type(c) is not int or type(t) is not str:
            return None
        try:
            row[c] = int(t)
        except ValueError:
            return None
        if str(row[c]) != t:
            return None
    return row if len(row) == len(entries) else None


def _relation_set_oracle(data):
    """The relation-set reader that builds the whole json.loads tree and then
    converts every row from it, with the same checks as relation_set_loads."""
    try:
        obj = json.loads(data.decode() if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad relation-set JSON: {exc}") from None
    string = relations._string
    try:
        symbols = tuple(Composition.parse(string(t)) for t in obj["symbols"])
        if len(set(symbols)) != len(symbols) or [str(c) for c in symbols] != obj["symbols"]:
            raise ParseError("symbols must be distinct and written as str() writes "
                             "them (comma-separated positive integers)")
        rows = []
        provs = []
        shape_of = functools.cache(Shape.parse)
        for i, row in enumerate(obj["rows"]):
            rows.append(_oracle_row(row["entries"]))
            if rows[-1] is None:
                raise ParseError(f'row {i}: "entries" must be a list of [column, coefficient] '
                                 "pairs with distinct integer columns and coefficients "
                                 "written as str() writes integers")
            if p := row.get("provenance"):
                shape = shape_of(string(p["shape"]))
                p = Provenance(string(p["family"]), shape, IntArgs.parse(string(p["k"]), shape))
            provs.append(p or None)
        weight, family = obj.get("weight"), obj.get("family")
        if not (weight is None or type(weight) is int) or not (
                family is None or type(family) is str):
            raise TypeError(f"weight must be an integer or null and family a string or "
                            f"null, not {weight!r} and {family!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad relation-set object: {exc}") from None
    for row in rows:
        for c in row:
            if not 0 <= c < len(symbols):
                raise ParseError(f"column index {c} out of range")
    return RelationMatrix(symbols, rows, weight, provs, family)


def _read_both(data):
    """relation_set_loads and the oracle on one input: equal matrices or the
    same ParseError text."""
    outcomes = []
    for read in (relation_set_loads, _relation_set_oracle):
        try:
            outcomes.append(read(data))
        except ParseError as exc:
            outcomes.append(f"ParseError: {exc}")
    new, oracle = outcomes
    assert new == oracle and repr(new) == repr(oracle)
    return new


def _small_set(rows, symbols=("1,2", "3"), **fields):
    return json.dumps({"weight": 3, "family": "cyclic", "symbols": list(symbols),
                       "rows": rows, **fields})


def _w4_set(edit):
    """The w4 cyclic set as JSON text after edit(obj)."""
    obj = json.loads(relation_set_dumps(4, "cyclic",
                                        generate_relations(4, "cyclic")))
    edit(obj)
    return json.dumps(obj)


def _compact_rows_first(weight, family):
    """A generated set written compactly, with "rows" before "symbols"."""
    obj = json.loads(relation_set_dumps(weight, family,
                                        generate_relations(weight, family)))
    return json.dumps({"rows": obj.pop("rows"), **obj}, separators=(",", ":"))


_PROV = {"family": "cyclic", "shape": "1,1", "k": "1;2"}
_ROW = {"entries": [[0, "1"], [1, "-1"]], "provenance": _PROV}

# Relation-set inputs, malformed and not, on which the reader and the oracle
# must agree: the rank --in corpus of test_cli.py, then inputs where an
# object with "entries" is not a row or a row's entries do not convert
# exactly.
READER_CASES = {
    # unreadable
    "not-json": b"{nope",
    "not-utf8": b"\x80",
    "too-deep": b"[" * 200_000,
    "empty": b"",
    "utf8-bom": b"\xef\xbb\xbf" + _small_set([]).encode(),
    "bom-text": "\ufeff" + _small_set([]),
    "bad-row-then-syntax-error": _small_set([{"entries": [[0, "+1"]]}])[:-2],
    "bad-symbols-then-syntax-error": _small_set([_ROW], symbols=["3", "3"])[:-1],
    # not a relation set
    "null": "null",
    "list": "[]",
    "no-symbols": "{}",
    "no-rows": '{"symbols": []}',
    "rows-not-a-list": _small_set(5),
    "rows-an-object": _small_set({"entries": [[0, "1"]]}),
    "rows-a-string": _small_set("ab"),
    "row-a-list": _small_set([[[0, "1"]]]),
    "row-without-entries": _small_set([{"provenance": _PROV}]),
    "symbol-not-a-string": _small_set([_ROW], symbols=[4]),
    "shape-not-a-string": _small_set([{**_ROW, "provenance": {**_PROV, "shape": 5}}]),
    "k-not-a-string": _small_set([{**_ROW, "provenance": {**_PROV, "k": 2}}]),
    "provenance-missing-k": _small_set([{**_ROW, "provenance": {"shape": "1,1"}}]),
    "repeated-symbol": _small_set([_ROW], symbols=["3", "3"]),
    "non-canonical-symbol": _small_set([_ROW], symbols=["1, 2", "3"]),
    # entries that would change on load
    **{f"entries-{name}": _small_set([{"entries": entries}]) for name, entries in {
        "repeated-column": [[0, "1"], [0, "-1"], [1, "1"]],
        "float-column": [[0, "1"], [1.7, "-1"]],
        "bool-column": [[0, "1"], [True, "-1"]],
        "int-coefficient": [[0, 1], [1, "-1"]],
        "float-coefficient": [[0, "1"], [1, -1.9]],
        "underscore": [[0, "1_0"], [1, "-1"]],
        "whitespace": [[0, "1"], [1, " -1 "]],
        "plus-sign": [[0, "+3"], [1, "-1"]],
        "fullwidth-digit": [[0, "\uff12"], [1, "-1"]],
        "not-an-integer": [[0, "1"], [1, "1-2"]],
        "too-many-digits": [[0, "1" * 5000]],
        "short-pair": [[0, "1"], [1]],
        "long-pair": [[0, "1", 2]],
        "scalar-pair": [[0, "1"], 7],
        "string-pair": [[0, "1"], "ab"],
        "null": None,
        "number": 5,
        "string": "ab",
        "object": {"ab": "1"},
        "leading-zeros": [[0, "007"], [1, "-0"]],
        "empty-object": {},
        "empty-string": "",
    }.items()},
    "column-negative": _small_set([{"entries": [[0, "1"], [-1, "1"]]}]),
    "column-past-the-symbols": _small_set([{"entries": [[0, "1"], [2, "1"]]}]),
    "column-first-in-file-order": _small_set([{"entries": e} for e in (
        [[0, "1"]], [[1, "1"], [5, "2"], [-3, "1"]], [[7, "1"]])]),
    # the first bad row is named, and before any column out of range
    "bad-rows-1-and-2": _small_set([{"entries": e} for e in (
        [[5, "1"]], [[0, "+1"]], [[1, "1.5"]])]),
    "bad-entries-before-bad-provenance": _small_set([
        {"entries": [[0, "+1"]], "provenance": {**_PROV, "k": 2}}]),
    "bad-provenance-before-bad-entries": _small_set([
        {**_ROW, "provenance": {**_PROV, "k": 2}}, {"entries": [[0, "+1"]]}]),
    "equal-rows": _small_set([_ROW, {"entries": [[1, "1"]]}, _ROW, _ROW]),
    "huge-coefficient": _small_set([{"entries": [[0, str(2**80)], [1, str(-(2**81))]]}]),
    # duplicate "entries" keys: the last one wins
    "duplicate-entries-last-good": '{"symbols": ["3"], "rows": [{"entries": [[0, "+1"]], '
                                   '"entries": [[0, "2"]]}]}',
    "duplicate-entries-last-bad": '{"symbols": ["3"], "rows": [{"entries": [[0, "2"]], '
                                  '"entries": [[0, "+1"]]}]}',
    # "entries" in objects that are not rows
    "entries-in-settings": _w4_set(lambda o: o["settings"].update(entries=[[0, "1"]])),
    "bad-entries-in-settings": _w4_set(lambda o: o["settings"].update(entries=[[0, "+1"]])),
    "entries-in-provenance": _w4_set(lambda o: o["rows"][1]["provenance"].update(entries=[[0, "1"]])),
    "bad-entries-in-provenance": _w4_set(
        lambda o: o["rows"][1]["provenance"].update(entries=[[0, "+1"]])),
    "entries-at-the-top": _w4_set(lambda o: o.update(entries=[[0, "1"]])),
    "entries-in-a-symbol": _small_set([_ROW], symbols=[{"entries": [[0, "1"]]}, "3"]),
    "entries-in-a-shape": _small_set([{**_ROW, "provenance": {
        **_PROV, "shape": {"entries": [[1, "-1"]]}}}]),
    "entries-in-the-weight": _small_set([_ROW], weight={"entries": [[0, "1"]]}),
    "leading-zeros-in-the-weight": _small_set([_ROW], weight={"entries": [[0, "007"]]}),
    "entries-in-a-family": _small_set([{**_ROW, "provenance": {
        **_PROV, "family": [{"entries": [[1, "2"]]}]}}]),
    "entries-in-entries": _small_set([{"entries": [{"entries": [[0, "1"]]}]}]),
    "compact-rows-first": _compact_rows_first(5, "cyclic"),
}


@pytest.mark.parametrize("data", READER_CASES.values(), ids=READER_CASES)
def test_relation_set_loads_matches_the_json_loads_oracle(data):
    _read_both(data)
    if isinstance(data, bytes):
        try:
            text = data.decode()
        except UnicodeDecodeError:
            return
        _read_both(text)


def test_relation_set_loads_oracle_cases_reach_every_outcome():
    """The cases above reach each error of the reader, and the accepted ones
    read as expected."""
    out = {}
    for name, data in READER_CASES.items():
        try:
            out[name] = relation_set_loads(data)
        except ParseError as exc:
            out[name] = str(exc)
    assert out["bad-row-then-syntax-error"].startswith("bad relation-set JSON: ")
    assert out["bad-symbols-then-syntax-error"].startswith("bad relation-set JSON: ")
    assert out["utf8-bom"].startswith("bad relation-set JSON: Unexpected UTF-8 BOM")
    assert out["row-a-list"] == ("bad relation-set object: "
                                 "list indices must be integers or slices, not str")
    assert out["bad-rows-1-and-2"].startswith("row 1: ")
    assert out["bad-entries-before-bad-provenance"].startswith("row 0: ")
    assert out["bad-provenance-before-bad-entries"] == ("bad relation-set object: "
                                                       "expected a string, not 2")
    assert out["entries-in-a-symbol"] == ("bad relation-set object: expected a string, "
                                          "not {'entries': [[0, '1']]}")
    assert out["duplicate-entries-last-good"].rows == [{0: 2}]
    assert out["duplicate-entries-last-bad"].startswith("row 0: ")
    # entries that are not a list of [column, coefficient] pairs, and
    # coefficients str() never writes, are named by their row
    for name in ("not-an-integer", "too-many-digits", "short-pair", "long-pair", "scalar-pair",
                 "null", "number", "string", "leading-zeros", "empty-object", "empty-string",
                 "in-entries"):
        assert out[f"entries-{name}"] == out["entries-plus-sign"], name
    assert out["entries-plus-sign"].startswith("row 0: ")
    # the weight and both families are type-checked, so no row object
    # reaches a matrix
    mistyped = ("bad relation-set object: weight must be an integer or null and family a "
                "string or null, not {'entries': [[0, %s]]} and 'cyclic'")
    assert out["entries-in-the-weight"] == mistyped % "'1'"
    assert out["leading-zeros-in-the-weight"] == mistyped % "'007'"
    assert out["entries-in-a-family"] == ("bad relation-set object: expected a string, "
                                          "not [{'entries': [[1, '2']]}]")
    w4 = relation_set_loads(_w4_set(lambda o: None))
    for name in ("entries-in-settings", "bad-entries-in-settings", "entries-in-provenance",
                 "bad-entries-in-provenance", "entries-at-the-top"):
        assert out[name] == w4, name
    assert out["compact-rows-first"] == relation_set_loads(
        relation_set_dumps(5, "cyclic", generate_relations(5, "cyclic")))
    equal = out["equal-rows"].rows
    assert equal[0] is equal[2] is equal[3] and equal[1] == {1: 1}


def _every_relation_set(weights):
    for w in weights:
        for fam in relations.FAMILIES:
            yield relation_set_dumps(w, fam, generate_relations(w, fam))


def test_relation_set_loads_matches_the_oracle_on_every_set_up_to_weight_9():
    with gzip.open(STORED_W10) as f:
        stored = f.read()
    for data in [*_every_relation_set(range(3, 10)), stored]:
        m = _read_both(data)
        assert m == relation_set_loads(data.decode())
        # equal rows share one dict, as relation_matrix gives them
        assert len({id(row) for row in m.rows}) == len(relations._distinct_rows(m))


def test_relation_set_loads_returns_only_typed_fields():
    """Every matrix the reader returns, from the corpus or a generated set,
    has an int or null weight, a str or null family, dict rows of ints and
    provenances whose family is a str: no decoded row object reaches it."""
    accepted = 0
    for data in [*READER_CASES.values(), *_every_relation_set(range(3, 10))]:
        try:
            m = relation_set_loads(data)
        except ParseError:
            continue
        accepted += 1
        assert m.weight is None or type(m.weight) is int
        assert m.family is None or type(m.family) is str
        for row in m.rows:
            assert type(row) is dict and all(type(x) is int for x in (*row, *row.values()))
        for p in m.provenances:
            assert p is None or type(p) is Provenance and type(p.family) is str
    assert accepted == 9 + 21  # corpus inputs read, and every set of w3-w9


@pytest.mark.slow
def test_relation_set_loads_matches_the_oracle_at_weights_10_and_11():
    for data in _every_relation_set((10, 11)):
        _read_both(data)


def test_relation_set_loads_never_holds_the_json_tree():
    """The w9 cyclic set (1.8 MB of text) parses within 3 MiB above the text,
    since each row is converted as it is decoded; the oracle builds the whole
    tree first and needs about 5.9 MB."""
    import tracemalloc

    text = relation_set_dumps(9, "cyclic",
                              generate_relations(9, "cyclic")).decode()
    peaks = []
    for read in (relation_set_loads, _relation_set_oracle):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            read(text)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    new, oracle = peaks
    assert new < 3 * 2**20 <= oracle, peaks


@pytest.mark.slow
def test_rank_sweep_and_weight11_rows(capsys):
    from cycliczeta.cli import main

    # the certified modular rank against Bareiss on every computed cell
    for w in range(3, 11):
        for fam in relations.FAMILIES:
            matrix = generate_relations(w, fam)
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
