"""Block shapes, argument vectors, constraint systems, and convergence domains.

A *shape* groups the summation indices into d blocks of depths r_1..r_d.
Within a block the indices are strictly increasing; blocks are chained
cyclically by non-strict constraints (the first index of block a is bounded
by the top index of block a+1, wrapping around).  The constraint-system
constructors below build the four families of index domains used by the
series evaluators and the exact decomposer:

  - S       : the cyclic domain on the block variables only,
  - S_ij    : S with the link into block i replaced as needed, plus a window
              for one extra summation variable n around position (i, j),
  - S_i     : S plus the window  n_{i,1} <= n <= n_{i+1, r_{i+1}},
  - T_i     : S with the single cyclic link into block i removed.

Membership tests for the convergence domains (the region W attached to a
shape, and the absolute-convergence region of the plain nested series) are
implemented exactly as printed: strict inequalities stay strict, and the
singleton-block boundary Re >= 1 is non-strict, with plain IEEE comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import ParseError

# ---------------------------------------------------------------------------
# Variables and constraints
# ---------------------------------------------------------------------------

REL_LT = "<"
REL_LE = "<="


@dataclass(frozen=True)
class VarId:
    """A summation variable: block position (i, j), or the extra variable n.

    The extra variable is encoded as (0, 0) and sorts after every block
    variable (fixed total order used for canonical serialization).
    """

    i: int
    j: int

    @classmethod
    def block(cls, i: int, j: int) -> "VarId":
        if i < 1 or j < 1:
            raise ValueError("block indices are 1-based")
        return cls(i, j)

    @classmethod
    def extra(cls) -> "VarId":
        return cls(0, 0)

    @property
    def is_extra(self) -> bool:
        return self.i == 0

    def sort_key(self):
        return (1, 0, 0) if self.is_extra else (0, self.i, self.j)

    def __str__(self) -> str:
        return "n" if self.is_extra else f"n{self.i}_{self.j}"


EXTRA = VarId.extra()


@dataclass(frozen=True)
class Constraint:
    """lhs REL rhs with REL one of '<' (strict) or '<=' (non-strict)."""

    lhs: VarId
    rel: str
    rhs: VarId

    def __post_init__(self):
        if self.rel not in (REL_LT, REL_LE):
            raise ValueError(f"unknown relation {self.rel!r}")
        if self.lhs == self.rhs:
            raise ValueError("tautological constraint (lhs == rhs)")

    def sort_key(self):
        return (self.lhs.sort_key(), self.rhs.sort_key(), self.rel)

    def __str__(self) -> str:
        return f"{self.lhs} {self.rel} {self.rhs}"


# ---------------------------------------------------------------------------
# Shape and argument vectors
# ---------------------------------------------------------------------------


def _check_text(text: str, what: str):
    """Refuse text that is not ASCII or holds '_': int() and complex() read
    '_' digit groups and the digits of other scripts, which str never writes."""
    if not text.isascii() or "_" in text:
        raise ParseError(f"bad {what} {text!r}: only ASCII text without '_' is read")


@dataclass(frozen=True)
class Shape:
    """Block structure (d; r_1, ..., r_d) with d = len(r)."""

    r: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(int(x) for x in self.r))
        if len(self.r) < 1 or any(x < 1 for x in self.r):
            raise ValueError("shape needs d >= 1 blocks of depth >= 1")

    @property
    def d(self) -> int:
        return len(self.r)

    @property
    def total_depth(self) -> int:
        return sum(self.r)

    @property
    def all_singleton(self) -> bool:
        return all(x == 1 for x in self.r)

    def positions(self) -> list[tuple[int, int]]:
        """All (i, j) positions, block-major, 1-based."""
        return [(i, j) for i in range(1, self.d + 1) for j in range(1, self.r[i - 1] + 1)]

    def block_vars(self) -> list[VarId]:
        return [VarId.block(i, j) for (i, j) in self.positions()]

    def offset(self, i: int, j: int) -> int:
        """Flat index of position (i, j)."""
        if not (1 <= i <= self.d and 1 <= j <= self.r[i - 1]):
            raise ValueError(f"position ({i},{j}) out of range for shape {self}")
        return sum(self.r[: i - 1]) + (j - 1)

    def wrap_block(self, i: int) -> int:
        """Block index reduced mod d into 1..d (for the cyclic conventions)."""
        return (i - 1) % self.d + 1

    @classmethod
    def parse(cls, text: str) -> "Shape":
        _check_text(text, "shape")
        try:
            return cls(tuple(int(p) for p in text.split(",")))
        except (ValueError, TypeError) as exc:
            raise ParseError(f"bad shape {text!r}: {exc}") from None

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.r)


@dataclass(frozen=True)
class _BlockArgs:
    """Values arranged by block, flattened block-major.  The text form
    separates blocks by ';' and entries by ','; each subclass reads and
    writes its own entries (`_parse_entry`, `_format_entry`)."""

    shape: Shape
    values: tuple

    def __getitem__(self, ij: tuple[int, int]):
        return self.values[self.shape.offset(*ij)]

    def block(self, i: int) -> tuple:
        lo = sum(self.shape.r[: i - 1])
        return self.values[lo : lo + self.shape.r[i - 1]]

    @classmethod
    def parse(cls, text: str, shape: Shape | None = None):
        """The blocks of text, which must have the structure of shape if one
        is given; a ';'-free comma list of shape.total_depth entries is read
        block by block in shape."""
        _check_text(text, "arguments")
        blocks = []
        for b in text.split(";"):
            if not b.strip():
                raise ParseError(f"empty block in {text!r}")
            blocks.append([cls._parse_entry(e) for e in b.split(",")])
        inferred = Shape(tuple(len(b) for b in blocks))
        if shape is not None and shape != inferred:
            if len(blocks) > 1 or inferred.total_depth != shape.total_depth:
                raise ParseError(
                    f"arguments {text!r} have block structure {inferred}, expected {shape}"
                )
            inferred = shape
        return cls(inferred, tuple(v for b in blocks for v in b))

    def __str__(self) -> str:
        return ";".join(",".join(self._format_entry(v) for v in self.block(i))
                        for i in range(1, self.shape.d + 1))


@dataclass(frozen=True)
class ComplexArgs(_BlockArgs):
    """Complex exponents s_{i,j}; each entry is written 'a+bi'."""

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if len(self.values) != self.shape.total_depth:
            raise ValueError("argument count does not match shape depth")
        for v in self.values:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("arguments must be finite")

    def conjugate(self) -> "ComplexArgs":
        return ComplexArgs(self.shape, tuple(v.conjugate() for v in self.values))

    @staticmethod
    def _parse_entry(text: str) -> complex:
        """One 'a+bi' entry (decimal reals; plain 'a' also accepted)."""
        t = text.strip().replace(" ", "")
        try:
            v = complex(t.replace("i", "j"))
        except ValueError:
            raise ParseError(f"bad complex entry {text!r}") from None
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ParseError(f"non-finite complex entry {text!r}")
        return v

    @staticmethod
    def _format_entry(v: complex) -> str:
        sign = "+" if v.imag >= 0 else "-"
        return f"{v.real!r}{sign}{abs(v.imag)!r}i"


@dataclass(frozen=True)
class IntArgs(_BlockArgs):
    """Positive-integer exponents arranged by block."""

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if len(self.values) != self.shape.total_depth:
            raise ValueError("argument count does not match shape depth")
        if any(v < 1 for v in self.values):
            raise ValueError("integer arguments must be >= 1")

    @property
    def weight(self) -> int:
        return sum(self.values)

    @staticmethod
    def _parse_entry(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"bad integer entry {text!r}") from None

    _format_entry = staticmethod(str)


# ---------------------------------------------------------------------------
# Constraint systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSystem:
    """A conjunction of strict/non-strict inequalities on a shape's variables.

    Constraints are normalized to a canonical sorted, deduplicated tuple.
    The constraint digraph may contain non-strict cycles (forced equalities)
    but never a cycle through a strict edge; such a system would be empty and
    the constructors never emit one (ad-hoc construction raises ValueError).
    """

    shape: Shape
    has_extra_var: bool
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        cons = tuple(sorted(set(self.constraints), key=Constraint.sort_key))
        object.__setattr__(self, "constraints", cons)
        allowed = set(self.shape.block_vars())
        if self.has_extra_var:
            allowed.add(EXTRA)
        for c in cons:
            for v in (c.lhs, c.rhs):
                if v not in allowed:
                    raise ValueError(f"variable {v} not valid for this system")
        if _has_strict_cycle(self.variables, cons):
            raise ValueError("constraint digraph has a cycle through a strict edge")

    @property
    def variables(self) -> tuple[VarId, ...]:
        vs = list(self.shape.block_vars())
        if self.has_extra_var:
            vs.append(EXTRA)
        return tuple(vs)

    def __str__(self) -> str:
        return "{" + ", ".join(str(c) for c in self.constraints) + "}"


def _has_strict_cycle(variables: Iterable[VarId], cons: Sequence[Constraint]) -> bool:
    # A strict edge lies on a cycle exactly when its head reaches its tail.
    # At this size, one reachability set per variable (a search from each)
    # is simpler than finding strongly connected components.
    vs = list(variables)
    idx = {v: k for k, v in enumerate(vs)}
    n = len(vs)
    adj = [[] for _ in range(n)]
    for c in cons:
        adj[idx[c.lhs]].append(idx[c.rhs])

    reach = [set() for _ in range(n)]
    for start in range(n):
        seen = reach[start]
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    for c in cons:
        if c.rel == REL_LT:
            u, w = idx[c.lhs], idx[c.rhs]
            if u in reach[w]:  # rhs reaches back to lhs -> cycle through this edge
                return True
    return False


def _assemble(shape: Shape, strict: list[Constraint], weak: list[tuple[VarId, VarId]],
              has_extra: bool) -> ConstraintSystem:
    """Combine strict constraints with non-strict ones, dropping degenerates.

    A non-strict u <= v is dropped when u == v (tautology) or when the same
    ordered pair already carries a strict constraint.
    """
    strict_pairs = {(c.lhs, c.rhs) for c in strict}
    cons = list(strict)
    for (u, v) in weak:
        if u == v or (u, v) in strict_pairs:
            continue
        cons.append(Constraint(u, REL_LE, v))
    return ConstraintSystem(shape, has_extra, tuple(cons))


def _chain(shape: Shape) -> list[Constraint]:
    out = []
    for i in range(1, shape.d + 1):
        for j in range(1, shape.r[i - 1]):
            out.append(Constraint(VarId.block(i, j), REL_LT, VarId.block(i, j + 1)))
    return out


def _cyclic_link(shape: Shape, a: int) -> tuple[VarId, VarId]:
    """Link a: first index of block a is <= top index of block a+1 (wrapping)."""
    b = shape.wrap_block(a + 1)
    return (VarId.block(a, 1), VarId.block(b, shape.r[b - 1]))


def build_constraints_S(shape: Shape) -> ConstraintSystem:
    """Cyclic domain on the block variables: in-block strict chains plus the
    d cross-block non-strict links."""
    weak = [_cyclic_link(shape, a) for a in range(1, shape.d + 1)]
    return _assemble(shape, _chain(shape), weak, has_extra=False)


@lru_cache(maxsize=None)
def build_constraints_S_ij(shape: Shape, i: int, j: int) -> ConstraintSystem:
    """Domain of the split series at position (i, j).

    The link into block i (the one with left end n_{i-1,1}, wrapping to the
    closing link when i = 1) carries the max-bound; it resolves to the
    unchanged link for j < r_i and to n_{i-1,1} <= n for j = r_i.  The extra
    variable n is pinned to the window n_{i,j} < n < n_{i,j+1}, the upper
    bound being absent for j = r_i.
    """
    if not (1 <= i <= shape.d and 1 <= j <= shape.r[i - 1]):
        raise ValueError(f"position ({i},{j}) out of range for shape {shape}")
    r_i = shape.r[i - 1]
    strict = _chain(shape)
    strict.append(Constraint(VarId.block(i, j), REL_LT, EXTRA))
    if j < r_i:
        strict.append(Constraint(EXTRA, REL_LT, VarId.block(i, j + 1)))
    into_i = shape.wrap_block(i - 1)
    weak: list[tuple[VarId, VarId]] = []
    for a in range(1, shape.d + 1):
        if a == into_i:
            if j < r_i:
                weak.append(_cyclic_link(shape, a))
            else:
                weak.append((VarId.block(a, 1), EXTRA))
        else:
            weak.append(_cyclic_link(shape, a))
    return _assemble(shape, strict, weak, has_extra=True)


@lru_cache(maxsize=None)
def build_constraints_S_i(shape: Shape, i: int) -> ConstraintSystem:
    """S plus the window n_{i,1} <= n <= n_{i+1, r_{i+1}} (wrapping)."""
    if not (1 <= i <= shape.d):
        raise ValueError(f"block {i} out of range for shape {shape}")
    weak = [_cyclic_link(shape, a) for a in range(1, shape.d + 1)]
    nxt = shape.wrap_block(i + 1)
    weak.append((VarId.block(i, 1), EXTRA))
    weak.append((EXTRA, VarId.block(nxt, shape.r[nxt - 1])))
    return _assemble(shape, _chain(shape), weak, has_extra=True)


def build_constraints_T_i(shape: Shape, i: int) -> ConstraintSystem:
    """S with the single cyclic link into block i removed (for i = 1 this is
    the closing link from block d)."""
    if not (1 <= i <= shape.d):
        raise ValueError(f"block {i} out of range for shape {shape}")
    into_i = shape.wrap_block(i - 1)
    weak = [_cyclic_link(shape, a) for a in range(1, shape.d + 1) if a != into_i]
    return _assemble(shape, _chain(shape), weak, has_extra=False)


# ---------------------------------------------------------------------------
# Convergence domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WIneq:
    """One membership inequality with its evaluated left-hand side."""

    label: str
    value: float
    threshold: float
    strict: bool

    @property
    def ok(self) -> bool:
        return self.value > self.threshold if self.strict else self.value >= self.threshold

    def describe(self) -> str:
        op = ">" if self.strict else ">="
        bad = "<=" if self.strict else "<"
        if self.ok:
            return f"{self.label} = {self.value:g} {op} {self.threshold:g}"
        return f"{self.label} = {self.value:g} {bad} {self.threshold:g}"


def w_inequalities(s: ComplexArgs) -> list[WIneq]:
    """All inequalities defining membership of s in the domain W of its shape."""
    shape = s.shape
    out: list[WIneq] = []
    if shape.all_singleton:
        d = shape.d
        re = [s[(i, 1)].real for i in range(1, d + 1)]
        total = sum(re)
        label = "+".join(f"Re(s_{{{l},1}})" for l in range(1, d + 1))
        out.append(WIneq(label, total, float(d), strict=True))
        for l in range(1, d + 1):
            for i in range(0, d - 1):
                vals = [re[(l - 1 + t) % d] for t in range(i + 1)]
                lbl = "+".join(
                    f"Re(s_{{{(l - 1 + t) % d + 1},1}})" for t in range(i + 1)
                )
                out.append(WIneq(lbl, sum(vals), float(i), strict=True))
        return out
    for i in range(1, shape.d + 1):
        r_i = shape.r[i - 1]
        if r_i == 1:
            out.append(WIneq(f"Re(s_{{{i},1}})", s[(i, 1)].real, 1.0, strict=False))
        else:
            acc = 0.0
            for j in range(r_i, 0, -1):
                acc += s[(i, j)].real
                lbl = "+".join(f"Re(s_{{{i},{t}}})" for t in range(j, r_i + 1))
                out.append(WIneq(lbl, acc, float(r_i - j + 1), strict=True))
    return out


def in_domain_W(s: ComplexArgs) -> bool:
    return all(q.ok for q in w_inequalities(s))


def ez_inequalities(s: Sequence[complex]) -> list[WIneq]:
    """Suffix-sum inequalities of the absolute-convergence region for the
    plain nested series on r variables."""
    vals = [complex(v) for v in s]
    r = len(vals)
    if r == 0:
        raise ValueError("empty argument list")
    out = []
    acc = 0.0
    for l in range(r, 0, -1):
        acc += vals[l - 1].real
        lbl = f"Re(s({l},{r}))"
        out.append(WIneq(lbl, acc, float(r - l + 1), strict=True))
    return out


def is_integer_point_in_W(k: IntArgs) -> bool:
    """Integer characterization of membership in W.

    Non-all-singleton shapes: every block of depth >= 2 must end with an
    entry >= 2 (the remaining inequalities are automatic for entries >= 1).
    All-singleton shapes: the total must be >= d + 1.
    """
    shape = k.shape
    if shape.all_singleton:
        return k.weight >= shape.d + 1
    for i in range(1, shape.d + 1):
        r_i = shape.r[i - 1]
        if r_i >= 2 and k[(i, r_i)] < 2:
            return False
    return True

