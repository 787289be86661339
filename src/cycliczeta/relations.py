"""Exact relation families among nested-zeta symbols and their ranks.

Specializing the split-series identity at positive-integer exponents and
expanding each pole factor as a geometric series yields, for every block
configuration, one exact integer relation among admissible symbols (the
cyclic family).  All-singleton configurations reduce to the classical
cyclic-sum identity via star-symbol expansion, and configurations whose
trailing blocks are singleton ones with entry 1 give the derivation
family.  Stacking the relations of one weight into an integer matrix and
computing its exact rank reproduces the reference table of independent
relation counts.

The rank is certified modularly: Gauss-Jordan elimination of the distinct
rows modulo primes below 2^31 (int64 numpy rows) gives a lower bound, and
integer kernel vectors recovered from the reduced rows by CRT and rational
reconstruction, checked exactly against every row, give the matching upper
bound.  Fraction-free elimination on big integers (`_rank_bareiss`) and
elimination modulo a big prime (`_rank_mod`) are kept as test oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .decompose import Composition, SymbolCombination, decompose_to_mzv
from .errors import BudgetError, DomainError, InternalInvariantError, NonAdmissibleError, ParseError
from .model import (
    EXTRA,
    IntArgs,
    Shape,
    VarId,
    build_constraints_S_i,
    build_constraints_S_ij,
    is_integer_point_in_W,
)

FAMILIES = ("csf", "derivation", "cyclic")

# Reference counts of independent relations among all known families, by
# weight; stored as constants, never computed here.
ALL_RELATIONS_REF = {3: 1, 4: 3, 5: 6, 6: 14, 7: 29, 8: 60, 9: 123, 10: 249, 11: 503}

HARD_MAX_WEIGHT = 11
# Default budgets of the rank table: weights up to 8, and at most 20000
# relations per cell or relation set.
MAX_WEIGHT_BUDGET = 8
MAX_ROWS_BUDGET = 20000

# Bumped whenever a change to relation generation could change a relation
# set, so that cached sets from older code are never served.
GENERATOR_VERSION = 2


@dataclass(frozen=True)
class Provenance:
    family: str
    shape: Shape
    args: IntArgs


@dataclass(frozen=True)
class Relation:
    """One generated identity, stored as LHS - RHS (a zero functional)."""

    combo: SymbolCombination
    provenance: Provenance


def cyclic_relation(k: IntArgs) -> Relation:
    """The integer-point relation of a block configuration.

    For each position (i, j) and each admissible geometric order m, the
    window domain at (i, j) is decomposed with the exponent at (i, j)
    lowered by m and the extra variable carrying m+1; the window series
    over every block (extra exponent 1) is subtracted.  Every symbol has
    weight sum(k) + 1.
    """
    if not is_integer_point_in_W(k):
        raise DomainError(f"integer point {k} lies outside W")
    shape = k.shape
    acc: dict[Composition, int] = {}

    def add(cs, exps, sign):
        for comp, c in decompose_to_mzv(cs, exps).items():
            acc[comp] = acc.get(comp, 0) + sign * c

    for i in range(1, shape.d + 1):
        r_i = shape.r[i - 1]
        for j in range(1, r_i + 1):
            delta = 1 if j == r_i else 0
            cs = build_constraints_S_ij(shape, i, j)
            for m in range(delta, k[(i, j)]):
                exps = {VarId.block(a, b): k[(a, b)] for (a, b) in shape.positions()}
                exps[VarId.block(i, j)] = k[(i, j)] - m
                exps[EXTRA] = m + 1
                add(cs, exps, 1)
    for i in range(1, shape.d + 1):
        cs = build_constraints_S_i(shape, i)
        exps = {VarId.block(a, b): k[(a, b)] for (a, b) in shape.positions()}
        exps[EXTRA] = 1
        add(cs, exps, -1)
    return Relation(SymbolCombination(acc), Provenance("cyclic", shape, k))


def zeta_star_expand(c: Composition) -> SymbolCombination:
    """Expand a star symbol (non-strict chain) into strict-chain symbols by
    merging adjacent parts in all 2^(t-1) ways, coefficient +1 each."""
    if not c.admissible:
        raise NonAdmissibleError(f"star symbol ({c}) is not admissible", parts=c.parts)
    parts = c.parts
    acc: dict[Composition, int] = {}
    t = len(parts)
    for mask in range(1 << (t - 1)):
        merged = [parts[0]]
        for pos in range(1, t):
            if (mask >> (pos - 1)) & 1:
                merged[-1] += parts[pos]
            else:
                merged.append(parts[pos])
        comp = Composition(tuple(merged))
        acc[comp] = acc.get(comp, 0) + 1
    return SymbolCombination(acc)


def csf_relation(k: IntArgs) -> Relation:
    """The cyclic-sum identity at an all-singleton configuration, written
    through star-symbol expansion:  sum over blocks and orders of the
    rotated star symbol, minus (sum k) times the single full-weight symbol.
    """
    shape = k.shape
    if not shape.all_singleton:
        raise ValueError("the cyclic-sum family needs an all-singleton shape")
    if not is_integer_point_in_W(k):
        raise DomainError(f"integer point {k} lies outside W")
    d = shape.d
    vals = [k[(i, 1)] for i in range(1, d + 1)]
    total = sum(vals)
    acc: dict[Composition, int] = {}
    for i in range(d):
        for m in range(1, vals[i]):
            rotated = (
                (vals[i] - m,)
                + tuple(vals[(i + t) % d] for t in range(1, d))
                + (m + 1,)
            )
            for comp, c in zeta_star_expand(Composition(rotated)).items():
                acc[comp] = acc.get(comp, 0) + c
    full = Composition((total + 1,))
    acc[full] = acc.get(full, 0) - total
    return Relation(SymbolCombination(acc), Provenance("csf", shape, k))


# ---------------------------------------------------------------------------
# Family enumeration
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` positive integers summing to `total`, in
    lexicographic order."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _all_shapes(max_depth: int) -> Iterable[Shape]:
    for total in range(1, max_depth + 1):
        for d in range(1, total + 1):
            for r in _compositions(total, d):
                yield Shape(r)


def enumerate_family(weight: int, family: str, *,
                     include_d1_derivation: bool = True) -> list[tuple[Shape, IntArgs]]:
    """All configurations of a family whose symbols have the given weight
    (exponent total weight - 1), ordered by d, then r, then k."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if weight < 3:
        raise ValueError("weight must be >= 3")
    ktotal = weight - 1
    out: list[tuple[Shape, IntArgs]] = []
    shapes = sorted(_all_shapes(weight - 2), key=lambda sh: (sh.d, sh.r))
    for shape in shapes:
        if family == "csf" and not shape.all_singleton:
            continue
        if family == "derivation":
            if shape.d == 1:
                if not include_d1_derivation:
                    continue
            elif any(x != 1 for x in shape.r[1:]):
                continue
        t = shape.total_depth
        if ktotal < t:
            continue
        for vals in _compositions(ktotal, t):
            if family == "derivation" and shape.d > 1:
                r1 = shape.r[0]
                if any(v != 1 for v in vals[r1:]):
                    continue
            k = IntArgs(shape, vals)
            if is_integer_point_in_W(k):
                out.append((shape, k))
    return out


def _check_weight(weight: int, max_weight_budget: int) -> None:
    """Symbols have weight >= 3 (ParseError below); a weight above the budget
    or HARD_MAX_WEIGHT is refused (BudgetError)."""
    if weight < 3:
        raise ParseError(f"weight {weight} is below the smallest weight 3")
    if weight > HARD_MAX_WEIGHT or weight > max_weight_budget:
        raise BudgetError(
            f"weight {weight} exceeds the configured budget "
            f"{min(max_weight_budget, HARD_MAX_WEIGHT)}"
        )


def generate_relations(weight: int, family: str, *,
                       include_d1_derivation: bool = True,
                       max_weight_budget: int = HARD_MAX_WEIGHT,
                       max_rows_budget: int = MAX_ROWS_BUDGET) -> list[Relation]:
    """One relation per configuration; the all-singleton family uses the
    star-expansion route, the others the window decomposition, each computed
    once per block-rotation orbit (`_orbit_combo`).  The weight and the
    number of configurations are checked against the budgets before any
    relation is generated."""
    _check_weight(weight, max_weight_budget)
    configs = enumerate_family(weight, family, include_d1_derivation=include_d1_derivation)
    if len(configs) > max_rows_budget:
        raise BudgetError(f"{len(configs)} rows exceed the budget {max_rows_budget}")
    generator = csf_relation if family == "csf" else cyclic_relation
    return [Relation(_orbit_combo(generator, k), Provenance(family, shape, k))
            for shape, k in configs]


# The combination of each block-rotation orbit, per generator, from the first
# configuration met in it.  Relabelling the blocks cyclically maps every S_ij
# and S_i system of a configuration onto those of its rotation, and the
# cyclic-sum formula sums over every rotation of its star symbols, so all
# rotations of a configuration have the same relation.
_ORBIT_COMBOS: dict[tuple[Callable, tuple[tuple[int, ...], ...]], SymbolCombination] = {}


def _orbit_combo(generator: Callable[[IntArgs], Relation], k: IntArgs) -> SymbolCombination:
    blocks = tuple(k.block(i) for i in range(1, k.shape.d + 1))
    key = (generator, min(blocks[t:] + blocks[:t] for t in range(len(blocks))))
    combo = _ORBIT_COMBOS.get(key)
    if combo is None:
        combo = _ORBIT_COMBOS[key] = generator(k).combo
    return combo


# ---------------------------------------------------------------------------
# Matrices and exact rank
# ---------------------------------------------------------------------------


@dataclass
class RelationMatrix:
    """Stacked relations of one weight over a shared symbol index."""

    symbols: tuple[Composition, ...]
    rows: list[dict[int, int]]
    weight: int | None
    provenances: list[Provenance | None]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.symbols))

    def dense_rows(self) -> list[list[int]]:
        n = len(self.symbols)
        return [[row.get(c, 0) for c in range(n)] for row in self.rows]


def relation_matrix(rels: Sequence[Relation]) -> RelationMatrix:
    weights = {r.combo.weight() for r in rels if r.combo}
    weights.discard(None)
    if len(weights) > 1:
        raise ValueError(f"relations mix symbol weights {sorted(weights)}")
    weight = weights.pop() if weights else None
    symbols = sorted(
        {comp for r in rels for comp, _ in r.combo.items()}, key=Composition.sort_key
    )
    col = {comp: t for t, comp in enumerate(symbols)}
    rows = []
    provs = []
    for r in rels:
        rows.append({col[comp]: c for comp, c in r.combo.items()})
        provs.append(r.provenance)
    return RelationMatrix(tuple(symbols), rows, weight, provs)


def _rank_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free elimination on exact integers (divisions stay exact)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    prev = 1
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, nrows):
            mr = m[r]
            mp = m[rank]
            fr = mr[col]
            if fr:
                for c in range(col + 1, ncols):
                    q, rem = divmod(pv * mr[c] - fr * mp[c], prev)
                    if rem:
                        raise InternalInvariantError("inexact division in elimination")
                    mr[c] = q
                mr[col] = 0
            elif prev != 1 and pv != prev:
                for c in range(col + 1, ncols):
                    q, rem = divmod(pv * mr[c], prev)
                    if rem:
                        raise InternalInvariantError("inexact division in elimination")
                    mr[c] = q
            elif pv != prev:
                for c in range(col + 1, ncols):
                    mr[c] = pv * mr[c]
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_mod(rows: list[list[int]], p: int) -> int:
    m = [[x % p for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        mp = [x * inv % p for x in m[rank]]
        m[rank] = mp
        for r in range(rank + 1, nrows):
            fr = m[r][col]
            if fr:
                mr = m[r]
                for c in range(col, ncols):
                    mr[c] = (mr[c] - fr * mp[c]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


# Primes below 2^31, largest first: a product of two residues fits in int64.
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
           2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
           2147483423, 2147483399, 2147483353, 2147483323, 2147483269,
           2147483249)


def _is_prime_below_2_32(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 4759123141 (bases 2, 7 and 61)."""
    if n < 2 or n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d >> 1, s + 1
    for a in (2, 7, 61):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterable[int]:
    """Primes below 2^31, largest first: `_PRIMES`, then the next smaller
    ones found on demand."""
    yield from _PRIMES
    for n in range(_PRIMES[-1] - 2, 2, -2):
        if _is_prime_below_2_32(n):
            yield n


def _distinct_rows(matrix: RelationMatrix) -> list[dict[int, int]]:
    """Every distinct row, first occurrences in generator order (repeated
    rows do not change the rank)."""
    seen: dict[frozenset, dict[int, int]] = {}
    for row in matrix.rows:
        seen.setdefault(frozenset(row.items()), row)
    return list(seen.values())


def _rref_mod(rows: list[dict[int, int]], ncols: int, p: int):
    """Gauss-Jordan elimination modulo a prime p < 2^31, one pivot row at a
    time against every row that has a nonzero entry in its column.

    Returns the rank, the pivot columns and the reduced rows (rank x ncols
    int64 residues in [0, p))."""
    a = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        a[i, list(row)] = [v % p for v in row.values()]
    rank = 0
    pivots = []
    for c in range(ncols):
        nz = np.flatnonzero(a[rank:, c])
        if not nz.size:
            continue
        k = rank + int(nz[0])
        if k != rank:
            a[[rank, k]] = a[[k, rank]]
        piv = a[rank, c:] * pow(int(a[rank, c]), -1, p) % p
        a[rank, c:] = piv
        f = a[:, c].copy()
        f[rank] = 0
        hit = np.flatnonzero(f)
        block = a[hit, c:]
        block -= f[hit, None] * piv
        block %= p
        a[hit, c:] = block
        pivots.append(c)
        rank += 1
        if rank == len(rows):
            break
    return rank, pivots, a[:rank]


def _rational_reconstruction(u: int, m: int) -> tuple[int, int] | None:
    """The fraction a/b = u (mod m) with |a|, 0 < b <= sqrt(m/2) and
    gcd(a, b) = 1, or None if there is none (Wang's half extended Euclid)."""
    bound = math.isqrt(m >> 1)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


def _kernel_vectors(residues: list[list[int]], m: int, pivots: list[int],
                    free: list[int], ncols: int) -> list[list[int]] | None:
    """One integer vector per free column c from the reduced rows' entries
    R[i, c] at the free columns, known modulo m: d * R[i, c] at the i-th
    pivot column, -d at c and 0 at every other free column, with d the
    common denominator.  None if some entry has no rational reconstruction."""
    kernel = []
    for j, c in enumerate(free):
        fracs = []
        for res in residues:
            frac = _rational_reconstruction(res[j], m)
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


def _check_kernel(rows: list[dict[int, int]], free: list[int],
                  kernel: list[list[int]]) -> None:
    """Raise InternalInvariantError unless the vectors prove rank <= ncols -
    len(free): every row times every vector is exactly 0, and on the free
    columns the vectors form a diagonal with nonzero entries, so they are
    independent.  The products run in int64 only when the largest row
    1-norm times the largest vector entry is below 2^63, otherwise in
    Python integers."""
    for c, y in zip(free, kernel):
        if not y[c] or any(y[e] for e in free if e != c):
            raise InternalInvariantError(
                f"kernel vector for column {c} is not diagonal on the free columns"
            )
    if not kernel:
        return
    norm1 = max(sum(abs(v) for v in row.values()) for row in rows)
    if norm1 * max(abs(x) for y in kernel for x in y) < 1 << 63:
        a = np.zeros((len(rows), len(kernel[0])), dtype=np.int64)
        for i, row in enumerate(rows):
            a[i, list(row)] = list(row.values())
        bad = np.argwhere(a @ np.array(kernel, dtype=np.int64).T)
        first = tuple(bad[0]) if bad.size else None
    else:
        first = next(((i, j) for j, y in enumerate(kernel) for i, row in enumerate(rows)
                      if sum(v * y[c] for c, v in row.items())), None)
    if first is not None:
        i, j = first
        raise InternalInvariantError(
            f"row {i} times the kernel vector for column {free[j]} is not 0"
        )


def rank_exact(matrix: RelationMatrix) -> int:
    """Rank over the rationals, certified from eliminations modulo primes
    below 2^31 (no floating point, no big-integer elimination).

    The distinct rows are reduced modulo each prime in turn.  A rank r mod p
    proves rank >= r: the pivot minor is a nonzero integer.  The reduced
    rows' free-column entries, combined over the primes by CRT, give by
    rational reconstruction one integer kernel vector per free column;
    checking M y = 0 exactly proves rank <= r.  A prime whose pivot columns
    differ from the kept ones has a lower rank or a lexicographically later
    pivot list when it is unlucky; the better of the two is kept and the CRT
    restarts from it.  Primes are added while reconstruction or the check
    fails; once their product exceeds 2 H^2 (H the Hadamard bound on every
    minor, so every reduced entry is a/b with |a|, b <= H),
    InternalInvariantError is raised."""
    rows = _distinct_rows(matrix)
    ncols = len(matrix.symbols)
    if not rows or not ncols:
        return 0
    norms = sorted((max(1, sum(v * v for v in row.values())) for row in rows), reverse=True)
    bound = 2 * math.prod(norms[:min(len(rows), ncols)])
    best = None
    for p in _primes():
        rank, pivots, rref = _rref_mod(rows, ncols, p)
        key = (-rank, pivots)
        if best is not None and key > best:
            continue  # an unlucky prime
        if best is None or key < best:
            best, m = key, p
            pivot_set = set(pivots)
            free = [c for c in range(ncols) if c not in pivot_set]
            residues = rref[:, free].tolist()
        else:
            inv = pow(m, -1, p)
            residues = [[x + m * ((y - x) * inv % p) for x, y in zip(xs, ys)]
                        for xs, ys in zip(residues, rref[:, free].tolist())]
            m *= p
        kernel = _kernel_vectors(residues, m, pivots, free, ncols)
        if kernel is not None:
            try:
                _check_kernel(rows, free, kernel)
                return rank
            except InternalInvariantError:
                pass
        if m > bound:
            raise InternalInvariantError(
                f"no kernel certificate for rank {rank} with a CRT modulus above 2H^2"
            )
    raise InternalInvariantError(f"no kernel certificate for rank {-best[0]}: primes exhausted")


# ---------------------------------------------------------------------------
# The rank table
# ---------------------------------------------------------------------------


def family_rank(weight: int, family: str, *, include_d1_derivation: bool = True) -> int:
    rels = generate_relations(
        weight, family, include_d1_derivation=include_d1_derivation
    )
    return rank_exact(relation_matrix(rels))


def table1(weights: Sequence[int], families: Sequence[str] = FAMILIES, *,
           include_d1_derivation: bool = True,
           max_weight_budget: int = MAX_WEIGHT_BUDGET,
           max_rows_budget: int = MAX_ROWS_BUDGET) -> dict[int, dict[str, int]]:
    """Independent-relation counts per weight and family, plus the stored
    reference column of counts over all known relations.  Every weight is
    checked against the budget before any cell is generated.  The csf and
    derivation families are sub-families of the cyclic one, so at every
    weight neither may exceed it and no family may exceed the reference
    count; InternalInvariantError is raised otherwise."""
    for f in families:
        if f not in FAMILIES:
            raise ValueError(f"unknown family {f!r}")
    for w in weights:
        _check_weight(w, max_weight_budget)
    out: dict[int, dict[str, int]] = {}
    for w in weights:
        row: dict[str, int] = {}
        for f in families:
            rels = generate_relations(w, f, include_d1_derivation=include_d1_derivation,
                                      max_rows_budget=max_rows_budget)
            row[f] = rank_exact(relation_matrix(rels))
        row["all_ref"] = ALL_RELATIONS_REF.get(w, 0)
        nested = [(f, "cyclic") for f in ("csf", "derivation") if f in row and "cyclic" in row]
        for lo, hi in nested + [(f, "all_ref") for f in families]:
            if row[lo] > row[hi]:
                raise InternalInvariantError(
                    f"weight {w}: {lo} rank {row[lo]} exceeds {hi} {row[hi]}"
                )
        out[w] = row
    return out


# ---------------------------------------------------------------------------
# Relation-set serialization (shared with the CLI)
# ---------------------------------------------------------------------------


def relation_set_to_json_obj(weight: int, family: str, rels: Sequence[Relation],
                             settings: dict | None = None) -> dict:
    matrix = relation_matrix(rels)
    rows = []
    for row, prov in zip(matrix.rows, matrix.provenances):
        entry = {
            "provenance": {
                "family": prov.family,
                "shape": str(prov.shape),
                "k": str(prov.args),
            },
            "entries": [[c, str(row[c])] for c in sorted(row)],
        }
        rows.append(entry)
    obj = {
        "weight": weight,
        "family": family,
        "symbols": [str(c) for c in matrix.symbols],
        "rows": rows,
    }
    if settings:
        obj["settings"] = settings
    return obj


def relation_matrix_from_json_obj(obj: dict) -> RelationMatrix:
    try:
        symbols = tuple(Composition.parse(t) for t in obj["symbols"])
        rows = []
        provs: list[Provenance | None] = []
        for row in obj["rows"]:
            rows.append({int(c): int(v) for c, v in row["entries"]})
            p = row.get("provenance")
            if p:
                shape = Shape.parse(p["shape"])
                provs.append(
                    Provenance(p["family"], shape, IntArgs.parse(p["k"], shape))
                )
            else:
                provs.append(None)
        weight = obj.get("weight")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad relation-set object: {exc}") from None
    for row in rows:
        for c in row:
            if not 0 <= c < len(symbols):
                raise ParseError(f"column index {c} out of range")
    return RelationMatrix(symbols, rows, weight, provs)


def relation_set_loads(text: str) -> RelationMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad relation-set JSON: {exc}") from None
    return relation_matrix_from_json_obj(obj)
