"""Exact relation families among nested-zeta symbols and their ranks.

Specializing the split-series identity at positive-integer exponents and
expanding each pole factor as a geometric series yields, for every block
configuration, one exact integer relation among admissible symbols (the
cyclic family).  The cyclic relation includes the classical cyclic sum
formula: at an all-singleton configuration it is that formula (the csf
family), and the configurations of one block, or whose trailing blocks are
singleton ones with entry 1, give the derivation family.  All three
families are generated by `cyclic_relation`.  Stacking the relations of
one weight into an integer matrix and computing its exact rank reproduces
the reference table of independent relation counts.  Configurations, and
their shapes, are compositions read off cut points (`_compositions`).

Relations stay rows of partial-sum bitmasks from the generator to the
matrix, computed once per block-rotation orbit (`_orbit_masks`): the
generating integers of the decomposition engine (`decompose._generating`)
of all the systems of one relation are summed, one integer per sign, and
decoded once through a per-weight table of masks.  A configuration whose
slots would not fit `decompose.MEMORY_CAP`, which only weights far past
HARD_MAX_WEIGHT reach, takes the sparse route instead.  One builder
(`relation_matrix`) stacks mask rows, and only its symbol tuple holds
`Composition` objects; `generate_relations` builds one family's matrix, and
`table1` one matrix per weight, ranking each family on its own rows.

The rank is certified modularly (`rank_exact`) from one integer block of
the distinct rows.  Big-integer Bareiss elimination (`_rank_bareiss`) is
kept as a test oracle; `_rank_mod` is the rank `_rref_mod` gives modulo
one prime.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

import numpy as np

from .decompose import Composition, SymbolCombination, _combination, _composition, _filter_steps
from .decompose import MEMORY_CAP, _generating, _mask, _order_count, _prefix_mask, _slot_counts
from .decompose import _sparse_masks, _width
# Unused here, but perfbench/tracing.py wraps this binding until the library counts its own calls.
from .decompose import decompose_to_mzv  # noqa: F401
from .errors import BudgetError, DomainError, InternalInvariantError, NonAdmissibleError, ParseError
from .model import (
    IntArgs,
    Shape,
    build_constraints_S_i,
    build_constraints_S_ij,
    is_integer_point_in_W,
)

FAMILIES = ("csf", "derivation", "cyclic")

# Reference counts of independent relations among all known families, by
# weight; stored as constants, never computed here.
ALL_RELATIONS_REF = {3: 1, 4: 3, 5: 6, 6: 14, 7: 29, 8: 60, 9: 123, 10: 249, 11: 503}

HARD_MAX_WEIGHT = 11
# Default weight budget of the rank table and the CLI.
MAX_WEIGHT_BUDGET = 8


@dataclass(frozen=True)
class Provenance:
    family: str
    shape: Shape
    args: IntArgs


def cyclic_relation(k: IntArgs) -> SymbolCombination:
    """The integer-point relation of a block configuration, as LHS - RHS (a
    zero functional).

    For each position (i, j) and each admissible geometric order m, the
    window domain at (i, j) is decomposed with the exponent at (i, j)
    lowered by m and the extra variable carrying m+1; the window series
    over every block (extra exponent 1) is subtracted.  Every symbol has
    weight sum(k) + 1.  The variables of every S_ij and S_i system are the
    block positions in order, then n, so the exponents are passed to the
    decomposition engine as plain lists (`_relation_masks`).
    """
    if not is_integer_point_in_W(k):
        raise DomainError(f"integer point {k} lies outside W")
    return _combination(_relation_masks(k))


def _relation_masks(k: IntArgs) -> dict[int, int]:
    """The relation of a configuration in W as its nonzero masks and their
    coefficients.  Its systems all have total exponent w = sum(k) + 1, so
    they share the slots of the suffix sums 1..w (`decompose._generating`),
    each wide enough for all their weak orders (`_width`): the S_ij
    systems are summed into one integer and the S_i systems into another,
    decoded once through the weight's table of masks (`_prefix_masks`).
    Where a slot would take more than 64 bits, or the memo, sums, decode
    and table more than MEMORY_CAP, the compositions are counted sparsely
    (`_sparse_relation`)."""
    shape, values = k.shape, list(k.values)
    systems = []
    for i in range(1, shape.d + 1):
        r_i = shape.r[i - 1]
        for j in range(1, r_i + 1):
            delta = 1 if j == r_i else 0
            cs = build_constraints_S_ij(shape, i, j)
            at = shape.offset(i, j)
            for m in range(delta, values[at]):
                exps = values + [m + 1]
                exps[at] -= m
                systems.append((cs, exps, 0))
    for i in range(1, shape.d + 1):
        systems.append((build_constraints_S_i(shape, i), values + [1], 1))
    w, acc = sum(values) + 1, [0, 0]
    width = _width(sum(_order_count(cs) for cs, _, _ in systems))
    filters = max(len(_filter_steps(cs)[1]) for cs, _, _ in systems)
    # a slot takes 2 * width bits in each filter's integer and width in each
    # sum, 8 + width / 8 bytes in each decode and at most about 48 in the table
    if width > 64 or (width * (filters + 2) // 4 + 64) << (w - 1) > MEMORY_CAP:
        return _sparse_relation(systems, w)
    shift = [0] + [width << s for s in range(w)]  # the slot of suffix sum s + 1
    for cs, exps, side in systems:
        acc[side] += _generating(*_filter_steps(cs), exps, shift)[0]
    plus, minus = (_slot_counts(g, width, w - 1) for g in acc)
    nonzero = np.flatnonzero(plus != minus)
    table = _prefix_masks(w)
    return {table[t]: a - b for t, a, b in
            zip(nonzero.tolist(), plus[nonzero].tolist(), minus[nonzero].tolist())}


def _sparse_relation(systems, w: int) -> dict[int, int]:
    """`_relation_masks` in one dict a filter (`decompose._sparse_masks`),
    for a configuration whose slots would not fit MEMORY_CAP."""
    out: dict[int, int] = {}
    for cs, exps, side in systems:
        vs, steps = _filter_steps(cs)
        for mask, c in _sparse_masks(steps, _generating(vs, steps, exps, [0] * (w + 1))[1]).items():
            out[mask] = out.get(mask, 0) + (-c if side else c)
    return {mask: c for mask, c in out.items() if c}


class _PrefixMasks(dict):
    """The partial-sum mask of each suffix mask of the sums 1..weight - 1,
    built when first read, so each is one int shared by every reader."""

    def __init__(self, weight: int):
        super().__init__()
        self.layout = range(1, weight + 1)

    def __missing__(self, slots: int) -> int:
        mask = self[slots] = _prefix_mask(slots, self.layout)
        return mask


# One weight's table at a time: the masks of another weight differ anyway.
_prefix_masks = functools.lru_cache(maxsize=1)(_PrefixMasks)


def zeta_star_expand(c: Composition) -> SymbolCombination:
    """Expand a star symbol (non-strict chain) into strict-chain symbols by
    merging adjacent parts in all 2^(t-1) ways, coefficient +1 each: a merge
    drops partial sums, so the symbols are the submasks of the inner partial
    sums with the weight kept (`decompose._mask`)."""
    if not c.admissible:
        raise NonAdmissibleError(f"star symbol ({c}) is not admissible", parts=c.parts)
    top = 1 << (c.weight - 1)
    inner = _mask(c.parts) ^ top
    acc = {top: 1}
    sub = inner
    while sub:
        acc[sub | top] = 1
        sub = (sub - 1) & inner
    return _combination(acc)


def csf_relation(k: IntArgs) -> SymbolCombination:
    """The cyclic-sum identity at an all-singleton configuration: the sum
    over blocks and orders of the rotated star symbol, minus (sum k) times
    the single full-weight symbol.  Expanded into strict symbols it is the
    cyclic relation of k, which is how it is computed."""
    if not k.shape.all_singleton:
        raise ValueError("the cyclic-sum family needs an all-singleton shape")
    return cyclic_relation(k)


# ---------------------------------------------------------------------------
# Family enumeration
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` positive integers summing to `total`, in
    lexicographic order: the gaps between cut points 0 < c_1 < ... < total,
    which are their partial sums (as in `decompose._mask`)."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


# Whether a family takes a cyclic configuration: csf the all-singleton shapes,
# derivation those whose trailing blocks are single entries 1 (d - 1 ones).
_TAKES = {"csf": lambda shape, k: shape.all_singleton,
          "derivation": lambda shape, k: k.values[shape.r[0]:] == (1,) * (shape.d - 1),
          "cyclic": lambda shape, k: True}


@functools.lru_cache(maxsize=None)
def _configurations(weight: int) -> tuple[tuple[Shape, IntArgs], ...]:
    """Every cyclic configuration of a weight, ordered by d, then r, then k;
    the shapes of d blocks are the compositions of weight - 1 into d + 1
    parts with the last one dropped (total depth <= weight - 2)."""
    shapes = (Shape(r[:-1]) for d in range(1, weight - 1) for r in _compositions(weight - 1, d + 1))
    return tuple((shape, k) for shape in shapes
                 for k in (IntArgs(shape, v) for v in _compositions(weight - 1, shape.total_depth))
                 if is_integer_point_in_W(k))


def enumerate_family(weight: int, family: str) -> list[tuple[Shape, IntArgs]]:
    """A new list of the cyclic configurations (`_configurations`) of symbol
    weight `weight` (exponent total weight - 1) that the family takes."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if weight < 3:
        raise ValueError("weight must be >= 3")
    return [c for c in _configurations(weight) if _TAKES[family](*c)]


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
                       max_weight_budget: int = HARD_MAX_WEIGHT) -> RelationMatrix:
    """The family's matrix, after the weight is checked: one row per
    configuration, computed once per block-rotation orbit (`_orbit_masks`)
    and shared by it."""
    _check_weight(weight, max_weight_budget)
    configs = enumerate_family(weight, family)
    return relation_matrix([_orbit_masks(k) for _, k in configs],
                           [Provenance(family, *c) for c in configs])


# The masks of each block-rotation orbit's relation, from the first
# configuration met in it (relabelling the blocks cyclically maps each S_ij
# and S_i system onto its rotation's).
_ORBIT_MASKS: dict[tuple[tuple[int, ...], ...], dict[int, int]] = {}


def _orbit_masks(k: IntArgs) -> dict[int, int]:
    blocks = tuple(k.block(i) for i in range(1, k.shape.d + 1))
    key = min(blocks[t:] + blocks[:t] for t in range(len(blocks)))
    if key not in _ORBIT_MASKS:
        _ORBIT_MASKS[key] = _relation_masks(k)
    return _ORBIT_MASKS[key]


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
    # The family a relation-set file names, or that table1 ranks; None otherwise.
    family: str | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.symbols))


def relation_matrix(rows: Sequence[dict[int, int]],
                    provenances: list[Provenance | None]) -> RelationMatrix:
    """The matrix of rows of partial-sum masks (`decompose._mask`) and nonzero
    coefficients, over the masks that occur in sort_key order.  Each distinct
    row dict becomes one {column: coefficient} dict by increasing column, which
    its rows share.  A mask's bit length is its weight: mixing raises ValueError."""
    distinct = {id(row): row for row in rows}
    masks = sorted(set().union(*distinct.values()), key=lambda m: _composition(m).parts)
    weights = sorted({m.bit_length() for m in masks})
    if len(weights) > 1:
        raise ValueError(f"relations mix symbol weights {weights}")
    col = {m: t for t, m in enumerate(masks)}
    entries = {key: dict(sorted((col[m], c) for m, c in row.items()))
               for key, row in distinct.items()}
    return RelationMatrix(tuple(map(_composition, masks)), [entries[id(row)] for row in rows],
                          weights[0] if weights else None, provenances)


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
    """Rank of the integer rows modulo a prime p < 2^31 (`_rref_mod`)."""
    return _rref_mod(np.array(rows, dtype=object), list(range(len(rows))), p)[0] if rows else 0


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
    """Primes below 2^26, largest first, found on demand; an int64 entry
    takes about 2^11 unreduced updates by a product of two residues."""
    for n in range(2**26 - 1, 2, -2):
        if _is_prime_below_2_32(n):
            yield n


def _distinct_rows(matrix: RelationMatrix) -> list[dict[int, int]]:
    """Every distinct row, first occurrences in generator order (repeated
    rows do not change the rank), keyed by its columns and coefficients in
    order: generated and written rows list columns in increasing order."""
    seen: dict[tuple, dict[int, int]] = {}
    for row in matrix.rows:
        seen.setdefault((tuple(row), tuple(row.values())), row)
    return list(seen.values())


def _block(rows: list[dict[int, int]], ncols: int) -> np.ndarray:
    """The rows as one dense array, which the elimination, the Hadamard
    bound and the kernel check all read: int64 when every squared row norm
    fits in int64, otherwise Python integers (dtype object)."""
    values = list(itertools.chain.from_iterable(map(dict.values, rows)))
    top = max(map(abs, values), default=0)
    dtype = np.int64 if top * top * ncols < 1 << 63 else object
    block = np.zeros((len(rows), ncols), dtype)
    block[np.repeat(np.arange(len(rows)), [len(row) for row in rows]),
          np.fromiter(itertools.chain.from_iterable(rows), np.intp)] = np.array(values, dtype)
    return block


def _hadamard_square(block: np.ndarray) -> int:
    """H^2 for H the Hadamard bound on every minor of the block: the product
    of its largest min(rows, columns) squared row norms, each at least 1."""
    norms = sorted(np.einsum("ij,ij->i", block, block).tolist(), reverse=True)
    return math.prod(max(1, x) for x in norms[:min(block.shape)])


def _rref_mod(block: np.ndarray, sub: list[int], p: int):
    """Gauss-Jordan elimination of the block's rows sub modulo a prime p <
    2^31 with delayed reduction: only the pivot column (the pivot and the
    row factors) and the normalised pivot row are reduced at each pivot,
    and an update f * piv with both factors in [0, p) lowers an entry by
    less than (p - 1)^2, so from [0, p) an entry stays above -2^63 for
    floor(2^63 / (p - 1)^2) updates.  The whole block is reduced every
    floor((2^63 - p) / (p - 1)^2) - 1 pivots (2047 just below 2^26, 1 at
    2^31 - 1) and at the end.  Returns the rank, the pivot columns, the
    reduced rows (rank x ncols residues in [0, p)) and each pivot row's
    index in sub."""
    a = block[sub]
    a %= p  # in place: one copy of the rows, reduced
    a = a.astype(np.int64, copy=False)
    nrows, ncols = a.shape
    where = list(range(nrows))
    every = (2**63 - p) // (p - 1) ** 2 - 1
    rank = 0
    pivots = []
    for c in range(ncols):
        f = a[:, c] % p
        nz = np.flatnonzero(f[rank:])
        if not nz.size:
            continue
        k = rank + int(nz[0])
        if k != rank:
            a[[rank, k]] = a[[k, rank]]
            f[[rank, k]] = f[[k, rank]]
            where[rank], where[k] = where[k], where[rank]
        piv = a[rank, c:] % p * pow(int(f[rank]), -1, p) % p
        a[rank, c:] = piv
        f[rank] = 0
        hit = np.flatnonzero(f)
        a[hit, c:] -= f[hit, None] * piv
        pivots.append(c)
        rank += 1
        if rank % every == 0:
            a %= p
        if rank == nrows:
            break
    return rank, pivots, a[:rank] % p, where[:rank]


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


def _kernel_vectors(columns: list[list[int]], m: int, pivots: list[int],
                    free: list[int], ncols: int) -> list[list[int]] | None:
    """One integer vector per free column c from the reduced rows' entries
    R[i, c] in that column, known modulo m: d * R[i, c] at the i-th pivot
    column, -d at c and 0 at every other free column, with d the common
    denominator; None if some entry has no rational reconstruction.  With
    d the lcm so far (prime to m), an entry u is read as a/d, a = u d mod m
    in (-m/2, m/2]; in lowest terms within Wang's bounds, that is u's one
    reconstruction, else u is reconstructed alone and d becomes the lcm."""
    half = m >> 1  # m is odd, so (u d + half) % m - half is in [-half, half]
    bound = math.isqrt(half)
    kernel = []
    for column, c in zip(columns, free):
        d, fracs = 1, []
        for u in column:
            a, b = (u * d + half) % m - half, d
            if b > bound or not -bound <= a <= bound:
                g = math.gcd(a, b)
                a, b = a // g, b // g
                if b > bound or not -bound <= a <= bound:
                    frac = _rational_reconstruction(u, m)
                    if frac is None:
                        return None
                    a, b = frac
                    d = math.lcm(d, b)
            fracs.append((a, b))
        y = [0] * ncols
        for col, (a, b) in zip(pivots, fracs):
            y[col] = a * (d // b)
        y[c] = -d
        kernel.append(y)
    return kernel


def _check_kernel(block: np.ndarray, free: list[int], kernel: list[list[int]]) -> None:
    """Raise InternalInvariantError unless the vectors prove rank <= ncols -
    len(free): the block times every vector is exactly 0, and on the free
    columns the vectors form a diagonal with nonzero entries, so they are
    independent.

    On an int64 block, with T = ncols times its largest entry (which bounds
    every partial sum of the block times a vector of entries up to 1) and
    b = min(62, 64 - bit length of T), each vector is split into signed
    b-bit limbs, y = sum_t L_t 2^(b t) with L_t in [-2^(b-1), 2^(b-1)), so
    the block times each limb is exact in int64; vectors that fit one limb
    are one product.  The limb products P_t are recombined by carries, c_0 =
    0 and c_{t+1} = (P_t + c_t) / 2^b: the product is 0 exactly when every
    P_t + c_t has its low b bits zero and the last carry is 0 (P_t + c_t is
    summed as its high and low parts, and |c_t| <= 2^(63-b) + 1, so it
    stays in int64).  Below 24-bit limbs (T >= 2^40), and on an object
    block, the product runs in Python integers (dtype object)."""
    for c, y in zip(free, kernel):
        if not y[c] or any(y[e] for e in free if e != c):
            raise InternalInvariantError(
                f"kernel vector for column {c} is not diagonal on the free columns"
            )
    if not kernel:
        return
    bits = min(62, 64 - (max(-int(block.min()), int(block.max())) * block.shape[1]).bit_length())
    top = max(abs(x) for y in kernel for x in y)
    if block.dtype == object or bits < 24:
        bad = block.astype(object) @ np.array(kernel, object).T
    elif top < 1 << (bits - 1):
        bad = block @ np.array(kernel, np.int64).T
    else:
        ys = np.array(kernel, np.int64 if top < 1 << 62 else object).T
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        carry = np.zeros((block.shape[0], len(kernel)), np.int64)
        bad = carry != 0
        while ys.any():
            limb = (ys + half & mask) - half
            ys = (ys - limb) >> bits
            prod = block @ limb.astype(np.int64)
            low = (prod & mask) + carry
            bad |= (low & mask) != 0
            carry = (prod >> bits) + (low >> bits)
        bad |= carry != 0
    bad = np.argwhere(bad)
    if bad.size:
        i, j = bad[0]
        raise InternalInvariantError(
            f"row {i} times the kernel vector for column {free[j]} is not 0"
        )


def rank_exact(matrix: RelationMatrix) -> int:
    """Rank over the rationals, certified from eliminations modulo primes
    below 2^26 (no floating point, no big-integer elimination).

    The distinct rows are read once into one block, and each prime reduces
    rows of it.  A rank r mod p proves rank >= r: the pivot minor is a
    nonzero integer.  The reduced rows' free-column entries, combined over
    the primes by CRT, give by rational reconstruction (`_kernel_vectors`)
    one integer kernel vector per free column; checking that the block
    times each is exactly 0 proves rank <= r.  A prime
    whose pivot columns differ from the kept ones has a lower rank or a
    lexicographically later pivot list when it is unlucky; the better of the
    two is kept and the CRT restarts from it.  Once a prime is kept, later
    primes reduce only its pivot rows, which span the row space whenever r
    is the rank, so their reduced rows are the same; after a failed check
    (the kept prime was unlucky and its pivot rows miss rank) every later
    prime reduces all rows again.  Primes are added while reconstruction or
    the check fails; once their product exceeds 2 H^2 (H the Hadamard bound
    on every minor, so every reduced entry is a/b with |a|, b <= H),
    InternalInvariantError is raised."""
    rows = _distinct_rows(matrix)
    ncols = len(matrix.symbols)
    if not rows or not ncols:
        return 0
    block = _block(rows, ncols)
    bound = 2 * _hadamard_square(block)
    best = None
    sub = list(range(len(rows)))  # the block rows the next prime reduces
    for p in _primes():
        rank, pivots, rref, where = _rref_mod(block, sub, p)
        key = (-rank, pivots)
        if best is not None and key > best:
            continue  # an unlucky prime
        if best is None or key < best:
            best, m = key, p
            sub = [sub[i] for i in where]
            pivot_set = set(pivots)
            free = [c for c in range(ncols) if c not in pivot_set]
            residues = rref[:, free].T.tolist()
        else:
            inv = pow(m, -1, p)
            residues = [[x + m * ((y - x) * inv % p) for x, y in zip(xs, ys)]
                        for xs, ys in zip(residues, rref[:, free].T.tolist())]
            m *= p
        kernel = _kernel_vectors(residues, m, pivots, free, ncols)
        if kernel is not None:
            try:
                _check_kernel(block, free, kernel)
                return rank
            except InternalInvariantError:
                sub = list(range(len(rows)))
        if m > bound:
            raise InternalInvariantError(
                f"no kernel certificate for rank {rank} with a CRT modulus above 2H^2"
            )
    raise InternalInvariantError(f"no kernel certificate for rank {-best[0]}: primes exhausted")


# ---------------------------------------------------------------------------
# The rank table
# ---------------------------------------------------------------------------


def table1(weights: Sequence[int], families: Sequence[str] = FAMILIES, *,
           max_weight_budget: int = MAX_WEIGHT_BUDGET) -> dict[int, dict[str, int]]:
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
        # One matrix for the weight; zero columns of a family's rows leave its rank.
        configs = [c for c in _configurations(w) if any(_TAKES[f](*c) for f in families)]
        matrix = relation_matrix([_orbit_masks(k) for _, k in configs], [None] * len(configs))
        row: dict[str, int] = {}
        for f in families:
            rows = [r for r, c in zip(matrix.rows, configs) if _TAKES[f](*c)]
            row[f] = rank_exact(RelationMatrix(matrix.symbols, rows, w, [None] * len(rows), f))
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
# Relation-set files: every read and write of the format is here
# ---------------------------------------------------------------------------


# The layout json.dumps(obj, indent=2) gives a relation set, whose settings
# block names the one derivation family (stored sets and their checksums
# include it).
_SET = ('{\n  "weight": %s,\n  "family": %s,\n  "symbols": %s,\n  "rows": %s,\n'
        '  "settings": {\n    "include_d1_derivation": true,\n    "schema": 1\n  }\n}\n')
_ROW = ('    {\n      "provenance": {\n        "family": %s,\n        "shape": %s,\n'
        '        "k": %s\n      },\n      "entries": %s\n    }')
_ENTRY = '        [\n          %d,\n          "%s"\n        ]'


def _json_list(items: list[str], indent: int) -> str:
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]" if items else "[]"


def relation_set_dumps(weight: int, family: str, matrix: RelationMatrix) -> bytes:
    """The relation-set file of a generated matrix: the bytes json.dumps
    (indent=2) writes for it, and a final newline, laid out here directly
    (the json module indents in pure Python).  Each row lists its entries
    by increasing column, each coefficient as its decimal string."""
    q = encode_basestring_ascii
    rows = [_ROW % (q(prov.family), q(str(prov.shape)), q(str(prov.args)),
                    _json_list([_ENTRY % (c, row[c]) for c in sorted(row)], 6))
            for row, prov in zip(matrix.rows, matrix.provenances)]
    symbols = [f"    {q(str(c))}" for c in matrix.symbols]
    return (_SET % (json.dumps(weight), json.dumps(family), _json_list(symbols, 2),
                    _json_list(rows, 2))).encode()


class _Coefficients(dict):
    """int() of each distinct coefficient string of one file that str()
    writes back unchanged, taken once; any other string raises ValueError."""

    def __missing__(self, text: str) -> int:
        value = int(text)
        if str(value) != text:
            raise ValueError(text)
        self[text] = value
        return value


class _Row:
    """The entries list of a row, converted as the decoder closed it: `row`
    maps distinct int columns to the coefficients str() wrote.  Its repr is
    the list as written, for a message that quotes a mistyped field holding
    the row."""

    __slots__ = ("row",)

    def __init__(self, row: dict[int, int]):
        self.row = row

    def __repr__(self) -> str:
        return repr([[c, str(v)] for c, v in self.row.items()])


def _string(v) -> str:
    """v, which the parsers split, if it is a string."""
    if type(v) is not str:
        raise TypeError(f"expected a string, not {v!r}")
    return v


def relation_set_loads(data: str | bytes) -> RelationMatrix:
    """The matrix of a relation-set file, with the weight and family it
    names.  Anything that is not JSON (including bytes that are not UTF-8,
    and nesting too deep to decode) or not a relation set raises
    ParseError: each row's "entries" must be a list of [column,
    coefficient] pairs, the weight an integer or null, the file's family a
    string or null and each provenance's family a string.  So does any
    symbol, column or coefficient that would change on conversion: every
    symbol must be distinct and read back as written, since the rank takes
    each column as a different symbol, and every coefficient must be a
    string that str() writes back unchanged ("7", not "007"; "0", not "-0").

    Bytes are decoded to text first and then dropped, so bytes no caller
    holds are freed before the JSON is decoded.  Each row's entries become
    its {column: int} dict as the decoder closes the row (`_relation_set`),
    so the whole JSON tree (about 170k lists at weight 10) is never held.
    The parse builds only acyclic lists, dicts and tuples, so it runs with
    the cyclic garbage collector paused: its full collections there would
    find nothing.  The caller's collector state is restored on return and
    on error."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        if isinstance(data, bytes):
            try:
                data = data.decode()
            except UnicodeDecodeError as exc:
                raise ParseError(f"bad relation-set JSON: {exc}") from None
        return _relation_set(data)
    finally:
        if enabled:
            gc.enable()


def _relation_set(text: str) -> RelationMatrix:
    """The relation set of a JSON text.  The decoder hook is the only row
    converter: an object's "entries" list whose columns are distinct ints
    and whose coefficients are strings as str() writes them becomes a `_Row`
    as the decoder closes the object, and equal rows share one dict.  The
    hook raises nothing: any other "entries" stays as decoded, so a JSON
    syntax error anywhere comes first, and the first row whose "entries" is
    not a `_Row` is named after decoding, in file order.  The weight and
    both family fields are type-checked, so no `_Row` reaches the matrix."""
    ints: _Coefficients = _Coefficients()
    seen: dict[tuple, dict[int, int]] = {}

    def convert(obj: dict) -> dict:
        entries = obj.get("entries")
        if type(entries) is list:
            try:
                row = {c: ints[v] for c, v in entries if type(c) is int and type(v) is str}
            except (TypeError, ValueError):
                return obj
            if len(row) == len(entries):
                obj["entries"] = _Row(seen.setdefault((tuple(row), tuple(row.values())), row))
        return obj

    try:
        obj = json.loads(text, object_hook=convert)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad relation-set JSON: {exc}") from None
    try:
        symbols = tuple(Composition.parse(_string(t)) for t in obj["symbols"])
        if len(set(symbols)) != len(symbols) or [str(c) for c in symbols] != obj["symbols"]:
            raise ParseError("symbols must be distinct and written as str() writes "
                             "them (comma-separated positive integers)")
        rows = []
        provs: list[Provenance | None] = []
        shape_of = functools.cache(Shape.parse)
        for i, row in enumerate(obj["rows"]):
            entries = row["entries"]
            if type(entries) is not _Row:
                raise ParseError(f'row {i}: "entries" must be a list of [column, coefficient] '
                                 "pairs with distinct integer columns and coefficients "
                                 "written as str() writes integers")
            rows.append(entries.row)
            if p := row.get("provenance"):
                shape = shape_of(_string(p["shape"]))
                p = Provenance(_string(p["family"]), shape,
                               IntArgs.parse(_string(p["k"]), shape))
            provs.append(p or None)
        weight, family = obj.get("weight"), obj.get("family")
        if type(weight) not in (int, type(None)) or type(family) not in (str, type(None)):
            raise TypeError(f"weight must be an integer or null and family a string or "
                            f"null, not {weight!r} and {family!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad relation-set object: {exc}") from None
    for row in rows:
        for c in row:
            if not 0 <= c < len(symbols):
                raise ParseError(f"column index {c} out of range")
    return RelationMatrix(symbols, rows, weight, provs, family)
