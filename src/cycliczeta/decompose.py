"""Exact rewriting of constrained index sums into nested-zeta symbols.

A sum over a domain mixing strict and non-strict inequalities splits into
sums over totally ordered chains, one per ordered set partition (weak
order) of the variable set compatible with the constraints: merge the
exponents of tied variables and read off one symbol per partition.  The
weak orders are the paths of the DAG of order filters (`_filter_steps`,
built from the system's index masks), and the decomposition only needs
how often each symbol occurs, so one engine (`_generating`) counts the
paths as one generating integer with a slot per composition, keyed by its
suffix sums; `decompose_to_mzv` decodes it into partial-sum bitmasks and a
`SymbolCombination`, and relation generation sums many systems' integers
itself.  Where the slots would not fit MEMORY_CAP, both count the
compositions in one dict a filter instead (`_sparse_masks`), within the
same cap.  The series evaluators walk the same DAG.  The engine's pass also
names the first weak order that makes a decomposition non-admissible, so
no caller enumerates the weak orders; `decompose` output counts them from
the combination.  Building the filters bounds the size of a system
(`LEVEL_CAP`) and refuses a cycle through a strict edge; `decompose_to_mzv`
bounds the total exponent (`EXPONENT_CAP`).
Completeness and disjointness of the split are exactly testable against a
brute-force lattice-point count, which this module also provides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import BudgetError, NonAdmissibleError, ParseError
from .model import ConstraintSystem, VarId


@dataclass(frozen=True)
class Composition:
    """A nested-zeta index (k_1, ..., k_t), smallest summation variable first.

    Admissible (convergent) symbols have last part >= 2.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("composition parts must be positive integers")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def admissible(self) -> bool:
        return self.parts[-1] >= 2

    @classmethod
    def parse(cls, text: str) -> "Composition":
        try:
            return cls(tuple(int(p) for p in text.split(",")))
        except ValueError:
            raise ParseError(f"bad composition {text!r}") from None

    def sort_key(self):
        return self.parts

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


class SymbolCombination:
    """Exact integer-coefficient linear combination of admissible symbols."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Composition, int] | None = None):
        self._coeffs: dict[Composition, int] = {
            comp: int(c) for comp, c in (coeffs or {}).items() if c
        }
        for comp in self._coeffs:
            if not comp.admissible:
                raise NonAdmissibleError(
                    f"non-admissible symbol ({comp}) in combination", parts=comp.parts
                )

    def items(self) -> list[tuple[Composition, int]]:
        return sorted(self._coeffs.items(), key=lambda kv: kv[0].sort_key())

    def coefficients(self) -> Mapping[Composition, int]:
        """Read-only view of the nonzero coefficients by symbol, unsorted
        (cheaper than items() for readers that do not need the order)."""
        return MappingProxyType(self._coeffs)

    def coefficient(self, comp: Composition) -> int:
        return self._coeffs.get(comp, 0)

    def weight(self) -> int | None:
        """Common weight of the stored symbols, or None if empty/mixed."""
        ws = {c.weight for c in self._coeffs}
        return ws.pop() if len(ws) == 1 else None

    def __add__(self, other: "SymbolCombination") -> "SymbolCombination":
        out = dict(self._coeffs)
        for comp, c in other._coeffs.items():
            out[comp] = out.get(comp, 0) + c
        return SymbolCombination(out)

    def __sub__(self, other: "SymbolCombination") -> "SymbolCombination":
        out = dict(self._coeffs)
        for comp, c in other._coeffs.items():
            out[comp] = out.get(comp, 0) - c
        return SymbolCombination(out)

    def __rmul__(self, n: int) -> "SymbolCombination":
        return SymbolCombination({comp: n * c for comp, c in self._coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolCombination) and self._coeffs == other._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __hash__(self):
        return hash(tuple(self.items()))

    def to_json_obj(self) -> dict[str, str]:
        return {str(comp): str(c) for comp, c in self.items()}

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for comp, c in self.items():
            sign = "-" if c < 0 else "+"
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(f"{sign} {mag}z({comp})")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


@dataclass(frozen=True)
class OrderedSetPartition:
    """Disjoint nonempty variable levels, earlier levels strictly below later."""

    levels: tuple[tuple[VarId, ...], ...]

    def __post_init__(self):
        seen: set[VarId] = set()
        for lvl in self.levels:
            if not lvl:
                raise ValueError("empty level")
            for v in lvl:
                if v in seen:
                    raise ValueError(f"variable {v} appears in two levels")
                seen.add(v)

    def __str__(self) -> str:
        return "".join("(" + " ".join(str(v) for v in lvl) + ")" for lvl in self.levels)


# The most candidate levels `_filter_steps` tries for one system.  The count
# is the build's own work and bounds the edges of the DAG, so it bounds every
# walk of it too: 14593 for the largest system of shape (4,4,4,4), at most
# 2492 for every shape of total depth <= 9 (weights up to 11).
LEVEL_CAP = 1 << 14


@lru_cache(maxsize=None)
def _filter_steps(cs: ConstraintSystem) -> tuple[tuple[VarId, ...], dict[int, tuple[int, ...]]]:
    """The variables of cs and, for every order filter reachable by peeling
    levels off the bottom, in ascending order, the rest masks of its valid
    next levels in canonical order.

    A filter is a bitmask over the variable indices; the step to a rest
    places the level filter ^ rest (`_members`).  A valid next level is a
    nonempty subset of the currently minimal variables, closed under
    non-strict in-edges; subsets are tried in binary-counter order over the
    sorted candidate list, which fixes the order of the weak orders across
    runs.  A system whose filters need more than LEVEL_CAP candidate levels
    in all raises BudgetError, before the filter past the cap is tried.

    This peel is also the strict-cycle check.  Without a cycle through a
    strict edge, a source strongly connected component of the remaining
    variables is always a valid level; with one, the cycle's variables are
    never peeled, so some reachable filter has no valid next level, and
    the build raises ValueError there.
    """
    vs, strict_in, weak_in = cs.variables, cs.strict_in, cs.weak_in
    n = len(vs)
    steps: dict[int, tuple[int, ...]] = {}
    todo = [(1 << n) - 1]
    tried = 0
    while todo:
        remaining = todo.pop()
        if remaining in steps:
            continue
        cand = [t for t in range(n) if remaining >> t & 1 and not strict_in[t] & remaining]
        size = 1 << len(cand)
        tried += size - 1
        if tried > LEVEL_CAP:
            raise BudgetError(
                f"the order filters of the {n}-variable system on shape {cs.shape} "
                f"need more than {LEVEL_CAP} candidate levels (the cap)")
        # The level and need masks of a subset are those of the subset
        # without its lowest bit, plus that bit's candidate.
        levels = [0] * size
        needs = [0] * size
        out = []
        for mask in range(1, size):
            prev = mask & (mask - 1)
            t = cand[(mask ^ prev).bit_length() - 1]
            level = levels[mask] = levels[prev] | 1 << t
            need = needs[mask] = needs[prev] | weak_in[t]
            if need & remaining & ~level:
                continue
            rest = remaining ^ level
            out.append(rest)
            if rest:
                todo.append(rest)
        if not out:
            raise ValueError("constraint digraph has a cycle through a strict edge")
        steps[remaining] = tuple(out)
    return vs, dict(sorted(steps.items()))


def _members(level: int) -> tuple[int, ...]:
    """The variable indices of a level mask, ascending, in one step per
    member."""
    out = []
    while level:
        low = level & -level
        out.append(low.bit_length() - 1)
        level ^= low
    return tuple(out)


@lru_cache(maxsize=None)
def weak_orders(cs: ConstraintSystem) -> tuple[OrderedSetPartition, ...]:
    """All ordered set partitions compatible with cs, canonically ordered
    (depth-first over the order-filter steps of `_filter_steps`)."""
    vs, steps = _filter_steps(cs)
    out: list[OrderedSetPartition] = []
    levels: list[tuple[VarId, ...]] = []

    def rec(remaining: int):
        if not remaining:
            out.append(OrderedSetPartition(tuple(levels)))
            return
        for rest in steps[remaining]:
            levels.append(tuple(vs[t] for t in _members(remaining ^ rest)))
            rec(rest)
            levels.pop()

    rec((1 << len(vs)) - 1)
    return tuple(out)


# The largest total exponent `decompose_to_mzv` takes: every partial-sum
# mask of a composition then stays below 2^EXPONENT_CAP (512 bytes).
EXPONENT_CAP = 1 << 12
# The most memory, in bytes, that the engine's slots or sparse memo, or the
# counting oracle's grid and mask (`count_lattice_points`), may take.
MEMORY_CAP = 1 << 28


def decompose_to_mzv(cs: ConstraintSystem, exponents: Mapping[VarId, int]) -> SymbolCombination:
    """Rewrite the sum over cs with the given nonnegative integer exponents
    as an exact combination of admissible symbols (one per weak order, with
    tied variables' exponents merged).  A total exponent above EXPONENT_CAP
    raises BudgetError.  The engine's (`_generating`) first pass, at width
    0, counts the weak orders and raises NonAdmissibleError; the second has
    a slot per distinct filter sum (`_width`).  Where a slot would take more
    than 64 bits, or its memo and decode more than MEMORY_CAP, the
    compositions are counted in one dict a filter instead (`_sparse_masks`).
    """
    for v in cs.variables:
        if v not in exponents:
            raise ValueError(f"missing exponent for variable {v}")
    for v, e in exponents.items():
        if int(e) != e or e < 0:
            raise ValueError(f"exponent of {v} must be a nonnegative integer")
    exps = [int(exponents[v]) for v in cs.variables]
    total = sum(exps)
    if total > EXPONENT_CAP:
        raise BudgetError(f"total exponent {total} exceeds cap {EXPONENT_CAP}")
    vs, steps = _filter_steps(cs)
    orders, sums = _generating(vs, steps, exps, [0] * (total + 1))
    layout = sorted(set(sums.values()) - {0})
    width, shift = _width(orders), [0] * (total + 1)
    for j, s in enumerate(layout):
        shift[s] = width << j
    # 2 * shift bits a filter, and 8 bytes a slot to decode
    memo = sum(shift[sums[mask]] for mask in steps) // 4 + (8 << (len(layout) - 1))
    if width > 64 or memo > MEMORY_CAP:
        return _combination(_sparse_masks(steps, sums))
    counts = _slot_counts(_generating(vs, steps, exps, shift)[0], width, len(layout) - 1)
    slots = np.flatnonzero(counts)
    return _combination({_prefix_mask(t, layout): c
                         for t, c in zip(slots.tolist(), counts[slots].tolist())})


def _generating(vs: Sequence[VarId], steps: Mapping[int, Sequence[int]],
                exps: Sequence[int], shift: Sequence[int]) -> tuple[int, dict[int, int]]:
    """The decomposition engine, for the DAG (vs, steps) of `_filter_steps`
    and nonnegative exponents in the order of vs (not checked here): the
    source's generating integer below its top slot, and the exponent sum
    S(R) of every filter R.

    The suffix sums of a weak order's composition are S of the filters on
    its path, so with a slot of width bits for each suffix sum s, starting
    at bit shift[s], the sum of count * 2^(width * suffix mask) over the
    completions of R is G(R) = (sum of G(rest) over its steps) << shift[S(R)],
    with G(0) = 1 (Kronecker substitution): one ascending pass, one add a
    step.  The width must exceed every count (at width 0 G counts paths).
    The pass also marks the filters with a completion that has a part below
    1 or a top part below 2, and a marked source raises NonAdmissibleError.
    """
    exp = exps.__getitem__
    # floor[R]: the least filter sum a step to R admits, so that each part is
    # at least 1 and the top part at least 2
    sums, floor, gen, bad = {0: 0}, {0: 2}, {0: 1}, set()
    acc = 0
    for mask, rests in steps.items():
        level, s = mask ^ rests[0], sums[rests[0]]
        while level:
            t = level.bit_length() - 1
            s += exp(t)
            level ^= 1 << t
        sums[mask] = s
        floor[mask] = s + 1
        if s < max(map(floor.__getitem__, rests)) or bad and not bad.isdisjoint(rests):
            bad.add(mask)
        acc = sum(map(gen.__getitem__, rests))
        gen[mask] = acc << shift[s]
    if bad:
        _raise_non_admissible(vs, steps, exps, sums, floor, bad)
    return acc, sums


def _sparse_masks(steps: Mapping[int, Sequence[int]], sums: Mapping[int, int]) -> dict[int, int]:
    """The partial-sum masks (`_mask`) of the weak orders of the DAG of
    `_filter_steps` and their counts, given the filter sums of
    `_generating`, as one dict a filter: the sparse route, for DAGs whose
    slots would not fit MEMORY_CAP.  A weak order's partial sums are the
    total less the sums of the filters on its path, so each step to a rest
    sets that rest's bit in each composition of its completions.  The dicts
    take about 100 bytes and one for each 8 units of the total an entry;
    BudgetError after the step whose entries pass MEMORY_CAP."""
    total = sums[max(steps)]
    memo: dict[int, dict[int, int]] = {0: {0: 1}}
    entries = 0
    for mask, rests in steps.items():
        got: dict[int, int] = {}
        for rest in rests:
            bit = 1 << (total - sums[rest] - 1)
            for tail, c in memo[rest].items():
                key = tail | bit
                got[key] = got.get(key, 0) + c
            if (entries + len(got)) * (100 + total // 8) > MEMORY_CAP:
                raise BudgetError(f"the sparse memo of {entries + len(got)} compositions of "
                                  f"total exponent {total} exceeds the cap of {MEMORY_CAP >> 20} MiB")
        memo[mask] = got
        entries += len(got)
    return got


def _width(count: int) -> int:
    """The slot width for counts up to count: the bits of the whole bytes
    that hold it.  The decode (`_slot_counts`) takes at most 64, so past
    that the callers take the sparse route, and a slot never wraps."""
    return -(-count.bit_length() // 8) * 8


def _slot_counts(g: int, width: int, slots: int) -> np.ndarray:
    """The counts, uint64 by suffix mask, of the 2^slots slots of width bits
    (`_width`) of g (`_generating`)."""
    rows = np.zeros((1 << slots, 8), np.uint8)
    rows[:, :width // 8] = np.frombuffer(g.to_bytes(width << slots >> 3, "little"),
                                         np.uint8).reshape(-1, width // 8)
    return rows.view("<u8")[:, 0]


@lru_cache(maxsize=None)
def _order_count(cs: ConstraintSystem) -> int:
    """The number of weak orders of cs: `_generating` at width 0, with every
    exponent 2 so that every part is admissible."""
    n = len(cs.variables)
    return _generating(*_filter_steps(cs), [2] * n, [0] * (2 * n + 1))[0]


def _prefix_mask(slots: int, layout: Sequence[int]) -> int:
    """The partial-sum mask (`_mask`) of the composition of weight
    layout[-1] whose suffix sums below it are layout[j] for each bit j of
    slots: its partial sums are the weight and the weight less each."""
    top = layout[-1]
    return sum(1 << (top - layout[j] - 1) for j in _members(slots)) | 1 << (top - 1)


def _mask(parts: Sequence[int]) -> int:
    """The partial sums s of positive parts as a bitmask, bit s - 1 for each
    (Stanley, Enumerative Combinatorics I, 1.2): the highest bit is bit
    weight - 1."""
    return sum(1 << (s - 1) for s in itertools.accumulate(parts))


@lru_cache(maxsize=None)
def _composition(mask: int) -> Composition:
    """The composition whose partial-sum mask (`_mask`) is mask."""
    parts, prev = [], 0
    while mask:
        low = mask & -mask
        s = low.bit_length()
        parts.append(s - prev)
        prev = s
        mask ^= low
    return Composition(tuple(parts))


def _combination(counts: Mapping[int, int]) -> SymbolCombination:
    """The combination of partial-sum masks and their coefficients; each
    symbol is built once per process."""
    return SymbolCombination({_composition(mask): c for mask, c in counts.items()})


def _raise_non_admissible(vs: Sequence[VarId], steps: Mapping[int, Sequence[int]],
                          exps: Sequence[int], sums: Mapping[int, int],
                          floor: Mapping[int, int], bad: set[int]):
    """Raise for the first non-admissible weak order in canonical order,
    given the filter sums, floors and marks of `_generating`: from the
    source, the first step that is non-admissible or leads to a marked
    filter, until one is non-admissible, then the first step of each later
    filter."""
    levels, mask, rest = [], max(steps), None
    while rest is None:
        for r in steps[mask]:
            if sums[mask] < floor[r]:
                rest = r
            elif r not in bad:
                continue
            levels.append(mask ^ r)
            mask = r
            break
    while rest:
        levels.append(rest ^ steps[rest][0])
        rest = steps[rest][0]
    members = [_members(level) for level in levels]
    osp = OrderedSetPartition(tuple(tuple(vs[t] for t in lvl) for lvl in members))
    parts = tuple(sum(exps[t] for t in lvl) for lvl in members)
    raise NonAdmissibleError(
        f"weak order {osp} yields non-admissible parts {parts}",
        partition=osp,
        parts=parts,
    )


ORACLE_CUTOFF_CAP = 30


def count_lattice_points(cs: ConstraintSystem, n_max: int) -> int:
    """Exact number of assignments in [1, n_max]^#vars satisfying cs.

    Brute force by full-box masking (independent of the weak-order split);
    n_max above ORACLE_CUTOFF_CAP, more than 5e8 points, or a grid and mask
    above 256 MiB or numpy's limit on axes are refused.
    """
    if n_max > ORACLE_CUTOFF_CAP:
        raise BudgetError(f"oracle cutoff {n_max} exceeds cap {ORACLE_CUTOFF_CAP}")
    if n_max < 1:
        return 0
    k = len(cs.variables)
    # The grid holds k-1 int16 rows and the mask one bool row, each of
    # n_max^(k-1) cells, in k axes (numpy 2 allows 64, numpy 1 32).
    axes = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32
    if k > axes or n_max**k > 5 * 10**8 or (2 * (k - 1) + 1) * n_max ** (k - 1) > MEMORY_CAP:
        raise BudgetError("oracle grid too large")
    if k == 1:  # a constraint needs two variables
        return n_max
    cons = [(u, cs.strict_in[w] >> u & 1, w) for w in range(k) for u in range(k)
            if (cs.strict_in[w] | cs.weak_in[w]) >> u & 1]
    grids = np.indices((n_max,) * (k - 1), dtype=np.int16).reshape(k - 1, -1)
    grids += 1

    def axis(t: int, v0: int):
        return v0 if t == 0 else grids[t - 1]

    total = 0
    for v0 in range(1, n_max + 1):
        mask = np.ones(grids.shape[1], dtype=bool)
        for (a, strict, b) in cons:
            lhs, rhs = axis(a, v0), axis(b, v0)
            mask &= (lhs < rhs) if strict else (lhs <= rhs)
            if not mask.any():
                break
        total += int(mask.sum())
    return total


def chain_count(t: int, n_max: int) -> int:
    """Number of strict chains x_1 < ... < x_t in [1, n_max]."""
    if t < 1:
        raise ValueError("need at least one level")
    return math.comb(n_max, t)
