"""Exact rewriting of constrained index sums into nested-zeta symbols.

A sum over a domain mixing strict and non-strict inequalities splits into
sums over totally ordered chains, one per ordered set partition (weak
order) of the variable set compatible with the constraints: merge the
exponents of tied variables and read off one symbol per partition.  The
decomposition only needs how often each symbol occurs, so one engine
(`_part_counts`) counts weak orders by a recursion over the order filters of
the constraint poset and returns plain part tuples with their counts;
`decompose_to_mzv` checks its input and wraps that result as a
`SymbolCombination`, and relation generation sums the tuples itself.  The
series evaluators walk the same order filters (`_filter_steps`) for their
plain and coupled sums.  The weak orders themselves are enumerated only to
name the one that makes a decomposition non-admissible
(`_raise_non_admissible`); `decompose` output counts them from the
combination.
Completeness and disjointness of the split are exactly testable against a
brute-force lattice-point count, which this module also provides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import BudgetError, InternalInvariantError, NonAdmissibleError, ParseError
from .model import ConstraintSystem, REL_LT, VarId


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


@lru_cache(maxsize=None)
def _filter_steps(cs: ConstraintSystem) -> tuple[tuple[VarId, ...], dict]:
    """The variables of cs and, for every order filter reachable by peeling
    levels off the bottom, its valid next levels in canonical order.

    A filter is a bitmask over the variable indices; its steps are
    (level indices, rest mask) pairs.  A valid next level is a nonempty
    subset of the currently minimal variables, closed under non-strict
    in-edges; subsets are tried in binary-counter order over the sorted
    candidate list, which fixes the order of the weak orders across runs.
    """
    vs = cs.variables
    n = len(vs)
    idx = {v: t for t, v in enumerate(vs)}
    strict_in = [0] * n  # strict_in[w]: mask of the u with u < w
    weak_in = [0] * n  # weak_in[w]: mask of the u with u <= w
    for c in cs.constraints:
        if c.rel == REL_LT:
            strict_in[idx[c.rhs]] |= 1 << idx[c.lhs]
        else:
            weak_in[idx[c.rhs]] |= 1 << idx[c.lhs]
    steps: dict[int, tuple[tuple[tuple[int, ...], int], ...]] = {}
    todo = [(1 << n) - 1]
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
        for lvl, rest in steps[remaining]:
            levels.append(tuple(vs[t] for t in lvl))
            rec(rest)
            levels.pop()

    rec((1 << len(vs)) - 1)
    return tuple(out)


def decompose_to_mzv(cs: ConstraintSystem, exponents: Mapping[VarId, int]) -> SymbolCombination:
    """Rewrite the sum over cs with the given nonnegative integer exponents
    as an exact combination of admissible symbols (one per weak order, with
    tied variables' exponents merged): the checked public form of
    `_part_counts`.
    """
    for v in cs.variables:
        if v not in exponents:
            raise ValueError(f"missing exponent for variable {v}")
    for v, e in exponents.items():
        if int(e) != e or e < 0:
            raise ValueError(f"exponent of {v} must be a nonnegative integer")
    return _combination(_part_counts(cs, [int(exponents[v]) for v in cs.variables]))


def _part_counts(cs: ConstraintSystem, exps: Sequence[int]) -> dict[tuple[int, ...], int]:
    """The decomposition engine: each part tuple of the weak orders of cs and
    how many weak orders read it, for nonnegative integer exponents listed
    in the order of cs.variables (not checked here).

    The weak orders are counted, not built: a memoised recursion over the
    order filters maps each filter to the multiset of part tuples of its
    completions, each level's part being the sum of its exponents.
    """
    vs, steps = _filter_steps(cs)
    memo: dict[int, dict[tuple[int, ...], int]] = {0: {(): 1}}

    def completions(remaining: int) -> dict[tuple[int, ...], int]:
        got = memo.get(remaining)
        if got is None:
            got = {}
            for lvl, rest in steps[remaining]:
                part = sum(exps[t] for t in lvl)
                if part < 1 or (part < 2 and not rest):
                    _raise_non_admissible(cs, dict(zip(vs, exps)))
                for tail, n in completions(rest).items():
                    key = (part,) + tail
                    got[key] = got.get(key, 0) + n
            memo[remaining] = got
        return got

    return completions((1 << len(vs)) - 1)


@lru_cache(maxsize=None)
def _composition(parts: tuple[int, ...]) -> Composition:
    return Composition(parts)


def _combination(counts: Mapping[tuple[int, ...], int]) -> SymbolCombination:
    """The combination of part tuples and their coefficients; each symbol
    is built once per process."""
    return SymbolCombination({_composition(parts): c for parts, c in counts.items()})


def _raise_non_admissible(cs: ConstraintSystem, exponents: Mapping[VarId, int]):
    """Raise for the first weak order, in canonical order, with a part < 1
    or a last part < 2.  Every filter step lies on some weak order, so a bad
    step found by the recursion always has one."""
    for osp in weak_orders(cs):
        parts = tuple(sum(int(exponents[v]) for v in lvl) for lvl in osp.levels)
        if any(p < 1 for p in parts) or parts[-1] < 2:
            raise NonAdmissibleError(
                f"weak order {osp} yields non-admissible parts {parts}",
                partition=osp,
                parts=parts,
            )
    raise InternalInvariantError("non-admissible filter step on no weak order")


ORACLE_CUTOFF_CAP = 30


def count_lattice_points(cs: ConstraintSystem, n_max: int) -> int:
    """Exact number of assignments in [1, n_max]^#vars satisfying cs.

    Brute force by full-box masking (independent of the weak-order split);
    n_max above ORACLE_CUTOFF_CAP, more than 5e8 points, or a grid and mask
    above 256 MiB are refused.
    """
    if n_max > ORACLE_CUTOFF_CAP:
        raise BudgetError(f"oracle cutoff {n_max} exceeds cap {ORACLE_CUTOFF_CAP}")
    if n_max < 1:
        return 0
    vs = list(cs.variables)
    k = len(vs)
    # The grid holds k-1 int16 rows and the mask one bool row, each of
    # n_max^(k-1) cells.
    if n_max**k > 5 * 10**8 or (2 * (k - 1) + 1) * n_max ** (k - 1) > 2**28:
        raise BudgetError("oracle grid too large")
    idx = {v: t for t, v in enumerate(vs)}
    cons = [(idx[c.lhs], c.rel == REL_LT, idx[c.rhs]) for c in cs.constraints]
    if k == 1:
        total = n_max
        return total if not cons else 0
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
