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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    combo = SymbolCombination()
    for i in range(d):
        for m in range(1, vals[i]):
            rotated = (
                (vals[i] - m,)
                + tuple(vals[(i + t) % d] for t in range(1, d))
                + (m + 1,)
            )
            combo = combo + zeta_star_expand(Composition(rotated))
    combo = combo - total * SymbolCombination({Composition((total + 1,)): 1})
    return Relation(combo, Provenance("csf", shape, k))


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


def generate_relations(weight: int, family: str, *,
                       include_d1_derivation: bool = True) -> list[Relation]:
    """One relation per configuration; the all-singleton family uses the
    star-expansion route, the others the window decomposition."""
    rels = []
    for shape, k in enumerate_family(
        weight, family, include_d1_derivation=include_d1_derivation
    ):
        rel = csf_relation(k) if family == "csf" else cyclic_relation(k)
        rel = Relation(rel.combo, Provenance(family, shape, k))
        rels.append(rel)
    return rels


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


_P1 = (1 << 61) - 1
_P2 = (1 << 64) - 59


def rank_exact(matrix: RelationMatrix) -> int:
    """Rank over the rationals by fraction-free elimination, re-verified by
    elimination modulo two fixed primes above 2^60."""
    # Repeated rows do not change the rank; keep first occurrences.
    rows = list({tuple(r): r for r in matrix.dense_rows()}.values())
    if not rows or not matrix.symbols:
        return 0
    rank = _rank_bareiss(rows)
    r1 = _rank_mod(rows, _P1)
    r2 = _rank_mod(rows, _P2)
    if not (rank == r1 == r2):
        raise InternalInvariantError(
            f"rank disagreement: exact {rank}, mod {_P1}: {r1}, mod {_P2}: {r2}"
        )
    return rank


# ---------------------------------------------------------------------------
# The rank table
# ---------------------------------------------------------------------------


def family_rank(weight: int, family: str, *, include_d1_derivation: bool = True) -> int:
    rels = generate_relations(
        weight, family, include_d1_derivation=include_d1_derivation
    )
    return rank_exact(relation_matrix(rels))


def table1(weights: Sequence[int], families: Sequence[str] = FAMILIES, *,
           include_d1_derivation: bool = True, max_weight_budget: int = 8,
           max_rows_budget: int = 20000) -> dict[int, dict[str, int]]:
    """Independent-relation counts per weight and family, plus the stored
    reference column of counts over all known relations."""
    for f in families:
        if f not in FAMILIES:
            raise ValueError(f"unknown family {f!r}")
    out: dict[int, dict[str, int]] = {}
    for w in weights:
        if w > HARD_MAX_WEIGHT or w > max_weight_budget:
            raise BudgetError(
                f"weight {w} exceeds the configured budget {min(max_weight_budget, HARD_MAX_WEIGHT)}"
            )
        row: dict[str, int] = {}
        for f in families:
            rels = generate_relations(w, f, include_d1_derivation=include_d1_derivation)
            if len(rels) > max_rows_budget:
                raise BudgetError(f"{len(rels)} rows exceed the budget {max_rows_budget}")
            row[f] = rank_exact(relation_matrix(rels))
        row["all_ref"] = ALL_RELATIONS_REF.get(w, 0)
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
