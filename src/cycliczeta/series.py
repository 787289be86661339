"""Truncated evaluation of the complex-argument series attached to a shape.

Every sum here is a box truncation: each summation variable runs over
1..N.  A constrained sum is split into the weak orders of its constraint
system, as the exact decomposer splits it, each a totally ordered chain.
Its plain part walks the order-filter DAG of the system
(`decompose._filter_steps`), on which every weak order is a path: one
vector per filter and one multiply per edge, not one chain per weak order.
As in the decomposer, a variable is its position in the system's
variables (the block positions, then n): exponents are lists in that
order, and a coupling names its two variables by position.
A term may couple two variables, through the pole factor
a^p / (b^q (b - a)) or a harmonic-range factor.  Where the two share a
level, the coupled walk puts the coupling's tie factor on the edge that
places both and hands its run on to the plain walk to the sink.  Across
levels every coupling is a short sum of separable cell terms
coeff * L(u) * R(w) * K(w - u) over value pairs u < w, with K a Toeplitz
kernel (1/d, 1 or H(d - 1); see couplings.py); the plain levels between
the coupled pair split into separable prefix sums by Chen's identity at a
cut filter, and the paths through one cut share one row.  So the coupled
part of a system is one walk of the same DAG and one `toeplitz_rows` call
per kernel: 1/d is a real tile product of fixed shape
(rows x 256) @ (256 x 256) in a fixed order, 1 a prefix sum, and H(d - 1)
a prefix sum of the 1/d product.  There is no transcendental or complex
division per cell, and results are bit-reproducible.  The double series
sum m^-a n^-b (m + n)^-c is one convolution per cutoff, taken with real
transforms of the real and imaginary parts.

A box truncation at n keeps exactly the terms whose largest value is at
most n, so every evaluator but the double series makes one pass at its
largest cutoff and reads the value at each smaller cutoff (the refinements
and N/2) off that pass; each is bit-identical to a separate evaluation at
that cutoff.  The plain walks are streamed over value segments, each
filter carrying its sums into the next, so their memory does not grow
with N.  The coupled walk holds its vectors over all values 1..N at once.

The harmonic-form evaluators sum the extra variable analytically into a
harmonic-range factor and truncate only the outer variables, so at finite
N they differ from the direct path; the two agree in the limit.

Complex powers n^(-s) of n up to 2^14 are computed as exp(-s log n) with
the real log of a positive integer (`couplings.cpow`).  Above 2^14,
n^(-s) = c^(-s) (1 + u)^(-s) with an anchor c every 16 values and
u = (n - c)/c <= 15/16385, with (1 + u)^(-s) by its binomial series, cut
at the least degree whose proven tail bound is below 2^-56; an exponent
that needs more than 7 terms takes cpow for every value.  As
sum_k (a_k c^(-s) c^-k) j^k for n = c + j, the series of the 1024 groups
of one aligned block of 2^14 values is one real product of fixed shape
(1024 x 2m) @ (2m x 32): c^(-s) by cpow once per anchor, c^-k shared by
every exponent of the block, a_k j^k a cached matrix, and the product
written straight into the complex output.  A range that covers part of a
block computes the whole block, so a power depends only on n and s and
has the same bits in every segment and table (bits of the linked BLAS,
the same with one or two OpenBLAS threads).  A plain walk's segment
past 2^14 writes its powers into work vectors shared by every segment
(`_PowerWork`); any other range gets one fresh vector.  Both routes take
the sine/cosine and the series at |Im s| and negate the imaginary part
(the product through the signs of its matrix), so that conjugating every
argument conjugates the result exactly.  Products of
powers are taken in variable order, never in an order of their values,
which conjugation could change, so they stay exact under conjugation too.

Every evaluator refuses in one order before it sums: a position out of
range, a system past `decompose.LEVEL_CAP` (its DAG is built with it,
`_sized`), arguments outside the convergence domain (W, or that of the
plain series; DomainError), a cutoff past the budget.  The double series
only warns about its domain.
"""

from __future__ import annotations

import cmath
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .couplings import (
    Coupling,
    Kernel,
    Term,
    cpow,
    harmonic_gap,
    harmonic_wrap_1,
    harmonic_wrap_2,
    mul,
    pole_coupling,
    toeplitz_rows,
)
from .decompose import _filter_steps, _members
# Unused here, but perfbench/tracing.py wraps this binding until the library counts its own calls.
from .decompose import weak_orders  # noqa: F401
from .errors import BudgetError, DomainError, InternalInvariantError
from .model import (
    ComplexArgs,
    ConstraintSystem,
    build_constraints_S,
    build_constraints_S_i,
    build_constraints_S_ij,
    build_constraints_T_i,
    ez_inequalities,
    first_failure,
    w_inequalities,
)

COUPLED_CUTOFF_CAP = 5000
CHAIN_CUTOFF_CAP = 20_000_000
# The double series is O(N log N) per cutoff, but its peak memory grows by
# about 180 bytes per N (210 MiB at 1e6).
MT_CUTOFF_CAP = 1_000_000
# Plain sums are streamed over segments of this many values; a walk keeps
# one pending vector per filter it has reached (18 for (2,2,2) S_1).
_SEGMENT = 1 << 14
# Powers of values above _ANCHOR_FROM come from anchors every _GROUP values
# (`_pow_vec`); _U_MAX bounds the offset u = (v - c)/c from the anchor c.
# They are computed in aligned blocks of _BLOCK values, _ROWS groups each,
# whatever the segment: _ANCHOR_FROM is a multiple of _BLOCK.
_ANCHOR_FROM = 1 << 14
_GROUP = 16
_U_MAX = (_GROUP - 1) / (_ANCHOR_FROM + 1)
_BLOCK = 1 << 14
_ROWS = _BLOCK // _GROUP
# The binomial series of (1 + u)^-s is cut where its tail is below
# _SERIES_TOL.  _MAX_DEGREE bounds the work per value: an exponent that needs
# more terms (|s| past about 30) takes cpow for every value.
_SERIES_TOL = 2.0 ** -56
_MAX_DEGREE = 7


# ---------------------------------------------------------------------------
# Plan and report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationPlan:
    """Box cutoff plus optional increasing refinement cutoffs, each an
    integer (anything operator.index reads; ValueError otherwise)."""

    cutoff: int
    refinements: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "cutoff", _cutoff(self.cutoff))
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.refinements is not None:
            refs = tuple(map(_cutoff, self.refinements))
            if any(b <= a for a, b in zip(refs, refs[1:])) or any(n < 1 for n in refs):
                raise ValueError("refinements must be strictly increasing and >= 1")
            object.__setattr__(self, "refinements", refs)


def _cutoff(n) -> int:
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"cutoffs must be integers, not {n!r}") from None


@dataclass
class EvalReport:
    value: complex
    cutoff: int
    residual: float
    refinements: list[tuple[int, complex]] | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "value": [self.value.real, self.value.imag],
            "cutoff": self.cutoff,
            "residual": self.residual,
        }
        if self.refinements is not None:
            obj["refinements"] = [[n, v.real, v.imag] for n, v in self.refinements]
        return obj


@dataclass
class TheoremReport:
    """Both sides of the split-series identity at one box truncation."""

    lhs: complex
    rhs: complex
    residual: float
    cutoff: int
    refinements: list[tuple[int, complex, complex, float]] | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "residual": self.residual,
            "cutoff": self.cutoff,
        }
        if self.refinements is not None:
            obj["refinements"] = [
                [n, l.real, l.imag, r.real, r.imag, q]
                for n, l, r, q in self.refinements
            ]
        return obj


# ---------------------------------------------------------------------------
# Powers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _binomial_series(s: complex) -> Optional[tuple[complex, ...]]:
    """binom(e, k) for k = 0..K, the coefficients of (1 + u)^e for the
    exponent e = -s taken at |Im s|, with K >= 1 the least degree whose tail
    is below _SERIES_TOL relative to (1 + u)^e for every 0 <= u <= _U_MAX;
    None for real s, and where that needs a degree past _MAX_DEGREE.

    With a_{k+1} = a_k (e - k)/(k + 1) and |e - k| <= |e| + k, every ratio
    |a_{k+1}/a_k| past a_{K+1} is at most q = max(1, (|e| + K + 1)/(K + 2)),
    so the tail is at most |a_{K+1}| U^{K+1} / (1 - qU), and
    |(1 + u)^e| = (1 + u)^Re e is at least (1 + U)^min(Re e, 0)."""
    s = complex(s)
    if not s.imag:
        return None
    e = complex(-s.real, abs(s.imag))
    coeffs = [1 + 0j]
    for k in range(_MAX_DEGREE + 1):
        a = coeffs[-1] * (e - k) / (k + 1)
        rho = _U_MAX * max(1.0, (abs(e) + k + 1) / (k + 2))
        if k and rho < 1 and (abs(a) * _U_MAX ** (k + 1) / (1 - rho)
                              * (1 + _U_MAX) ** max(-e.real, 0.0)) < _SERIES_TOL:
            return tuple(coeffs)
        coeffs.append(a)
    return None


@lru_cache(maxsize=1024)
def _binomial_matrix(s: complex) -> Optional[np.ndarray]:
    """The right operand of `_block` for the exponent e = -s taken at
    |Im s| (None where `_binomial_series` is).  With a_0..a_{m-1} the
    series' terms, it is the real (2m x 2 _GROUP) matrix that takes the row
    (Re q_0..q_{m-1} | Im q_0..q_{m-1}) of q_k = c^e c^-k to the interleaved
    real and imaginary parts of sum_k q_k a_k j^k = c^e (1 + j/c)^e for
    j < _GROUP.  For Im(-s) < 0 its imaginary columns are negated, which
    negates the imaginary part of the result exactly."""
    coeffs = _binomial_series(s)
    if coeffs is None:
        return None
    m = len(coeffs)
    j = np.arange(_GROUP, dtype=np.float64)
    a = np.array(coeffs)[:, None] * j ** np.arange(m)[:, None]
    y = np.empty((2 * m, 2 * _GROUP))
    y[:m, 0::2], y[:m, 1::2] = a.real, a.imag
    y[m:, 0::2], y[m:, 1::2] = -a.imag, a.real
    if complex(s).imag > 0:
        y[:, 1::2] *= -1
    y.flags.writeable = False
    return y


class _PowerWork:
    """Work vectors of the anchored route, shared by every range a walk
    takes in turn, so no range pays fresh pages for them: the anchors of one
    block and their powers c^-k (kept for the next exponent of that block),
    the left operand of the block product, one block for a range that
    covers part of a block, and one output vector per exponent for ranges
    of up to `size` values, made at its first use.  A range's powers are
    written over the last range's, so a walk drops one range's powers
    before it asks for the next."""

    def __init__(self, size: int):
        self.size = size
        self.block = None  # the block whose anchors and c^-k are held
        self.anchors = np.empty(_ROWS)
        self.inv = np.empty((_MAX_DEGREE + 1, _ROWS))
        self.lhs = np.empty(_ROWS * 2 * (_MAX_DEGREE + 1))
        self.part: Optional[np.ndarray] = None
        self.outs: dict[complex, np.ndarray] = {}

    def out(self, s: complex) -> np.ndarray:
        """The output vector of exponent s, made at its first use."""
        buf = self.outs.get(s)
        if buf is None:
            buf = self.outs[s] = np.empty(self.size, dtype=np.complex128)
        return buf


def _block(work: _PowerWork, b: int, e: complex, y: np.ndarray, out: np.ndarray):
    """The values b _BLOCK + 1 .. (b + 1) _BLOCK to the power -s into out,
    for e = -s taken at |Im s| and y = `_binomial_matrix(s)`: one real
    product of the fixed shape (_ROWS x 2m) @ (2m x 2 _GROUP) written as the
    interleaved real and imaginary parts of out.  Row g is the group of
    anchor c = b _BLOCK + 1 + _GROUP g: (Re q | Im q) with q_k = c^e c^-k,
    c^e from cpow.  The row depends only on (b, s), and so do its bits."""
    m = len(y) // 2
    inv = work.inv
    if work.block != b:
        np.add(np.arange(_ROWS, dtype=np.float64) * _GROUP, b * _BLOCK + 1, out=work.anchors)
        inv[0] = 1.0
        np.divide(1.0, work.anchors, out=inv[1])
        for k in range(2, _MAX_DEGREE + 1):
            np.multiply(inv[k - 1], inv[1], out=inv[k])
        work.block = b
    p = cpow(work.anchors, e).view(np.float64).reshape(_ROWS, 2).T
    lhs = work.lhs[:_ROWS * 2 * m].reshape(2, m, _ROWS)
    np.multiply(inv[:m], p[:, None, :], out=lhs)
    np.matmul(lhs.reshape(2 * m, _ROWS).T, y,
              out=out.view(np.float64).reshape(_ROWS, 2 * _GROUP))


def _anchored(work: _PowerWork, lo: int, hi: int, e: complex, y: np.ndarray,
              out: np.ndarray):
    """[lo+1..hi]^(-s) for _ANCHOR_FROM <= lo < hi into out (e and y as in
    `_block`), one `_block` per aligned block the range touches: a block the
    range covers is written in place, a part of one is cut from the whole
    block in work.part."""
    for b in range(lo // _BLOCK, -(-hi // _BLOCK)):
        b0, b1 = b * _BLOCK, (b + 1) * _BLOCK
        if lo <= b0 and b1 <= hi:
            _block(work, b, e, y, out[b0 - lo:b1 - lo])
        else:
            if work.part is None:
                work.part = np.empty(_BLOCK, dtype=np.complex128)
            _block(work, b, e, y, work.part)
            a, z = max(lo, b0), min(hi, b1)
            out[a - lo:z - lo] = work.part[a - b0:z - b0]


def _pow_vec(n_max: int, s: complex, start: int = 0,
             work: Optional[_PowerWork] = None) -> np.ndarray:
    """[start+1..n_max]^(-s): in work's output vector of s when the range
    fits work, else in a fresh vector.

    Values up to _ANCHOR_FROM take cpow, and so does every value when s is
    real or `_binomial_series` has no degree for it.  Above, v^(-s) is
    c^(-s) (1 + u)^(-s) with the anchor c = v - ((v - 1) mod _GROUP) and
    u = (v - c)/c, summed by the fixed-shape product of v's aligned block
    (`_block`), whichever range asks; so a value's power depends only on
    (v, s) and has the same bits in every range.  Both routes work at
    |Im s| and negate the imaginary part (the product through the signs of
    its matrix), so conjugating s conjugates the result exactly."""
    e = -complex(s)
    y = _binomial_matrix(s)
    if y is None or n_max <= _ANCHOR_FROM:
        return cpow(np.arange(start + 1, n_max + 1, dtype=np.float64), e)
    if work is not None and n_max - start <= work.size:
        out = work.out(s)[:n_max - start]
    else:
        out = np.empty(n_max - start, dtype=np.complex128)
        work = work or _PowerWork(0)
    lo = max(start, _ANCHOR_FROM)
    if lo > start:
        out[:lo - start] = cpow(np.arange(start + 1, lo + 1, dtype=np.float64), e)
    _anchored(work, lo, n_max, complex(e.real, abs(e.imag)), y, out[lo - start:])
    return out


def _power_table(n_max: int, start: int = 0,
                 work: Optional[_PowerWork] = None) -> Callable[[complex], np.ndarray]:
    """Memoised e -> `_pow_vec(n_max, e, start, work)`."""
    table: dict[complex, np.ndarray] = {}

    def power(e: complex) -> np.ndarray:
        g = table.get(e)
        if g is None:
            g = table[e] = _pow_vec(n_max, e, start, work)
        return g

    return power


# ---------------------------------------------------------------------------
# Chain evaluation
# ---------------------------------------------------------------------------


def _add(runs: dict, key, g: np.ndarray):
    """Add g into runs[key] (a new array, so no stored vector changes)."""
    runs[key] = g if key not in runs else runs[key] + g


def _product(power: Callable[[complex], np.ndarray],
             members: Sequence[complex]) -> np.ndarray:
    """The product of the members' power vectors in order (none: ones)."""
    g = power(members[0] if members else 0)
    for e in members[1:]:
        g = g * power(e)
    return g


def _path(levels: Sequence[Sequence[int]]) -> dict:
    """The steps, in `_filter_steps` format, of the one path through the
    given levels of variable indices, bottom to top."""
    steps, rest = {}, 0
    for lvl in reversed(levels):
        mask = rest | sum(1 << t for t in lvl)
        steps[mask] = (rest,)
        rest = mask
    return steps


def _edges(steps: Mapping[int, Sequence[int]], exps: Sequence[complex]) -> dict:
    """The edges of steps by source from the largest mask down:
    {mask: [(members, rest), ...]}, members the nonzero exponents of the
    level mask ^ rest in index order.  Every filter has a step (the minimal
    class of what remains is a level), so every edge is on some path to the
    sink 0."""
    return {mask: [(tuple(exps[t] for t in _members(mask ^ rest) if exps[t] != 0), rest)
                   for rest in steps[mask]]
            for mask in sorted(steps, reverse=True)}


def _walk(edges: dict, runs: dict, vec: Callable[[tuple], np.ndarray], carries: dict):
    """Pop the run of each source of edges in turn and yield (mask, rest, g)
    per edge: vec(members) times the run's strict prefix sums (a run of None
    is all ones), seeded by carries.get(mask, 0), which then keeps their
    total, so walks over consecutive value segments sum as one."""
    for mask, out in edges.items():
        if mask not in runs:
            continue
        pre = runs.pop(mask)
        if pre is not None:
            run, pre = pre, np.empty(len(pre) + 1, pre.dtype)
            pre[0] = carries.get(mask, 0)
            pre[1:] = run
            del run  # free the run before the edges make their vectors
            np.cumsum(pre, out=pre)
            carries[mask] = pre[-1]
            pre = pre[:-1]
        for members, rest in out:
            yield mask, rest, mul(vec(members), pre)


def _chain_plain(steps: Mapping[int, Sequence[int]],
                 exps: Sequence[complex], cutoffs: Sequence[int]) -> list[complex]:
    """For every cutoff n, the sum over the paths of a DAG of order filters,
    given as `decompose._filter_steps` gives it ({mask: (rest mask, ...)},
    each step placing the level mask ^ rest), of the sum over
    1 <= x_1 < ... < x_t <= n of prod_l prod_{i in level l} x_l^(-exps[i]).

    One pass at the largest cutoff, streamed over value segments, each with
    one table of single-exponent powers; the tables share one `_PowerWork`,
    as each segment's vectors are dropped before the next.  A level's
    vector is the product of its members' vectors in index order (empty:
    ones), so conjugation stays exact.  Each segment is one `_walk` from the
    source down, whose carries give every filter's prefix sums the bits of
    one sequential sum.  The value at n adds, segment by segment, the sum of
    the sink's run up to n.
    """
    edges = _edges(steps, exps)
    top = max(cutoffs, default=0)
    carries: dict[int, complex] = {}
    totals = [0j] * len(cutoffs)
    work = _PowerWork(min(_SEGMENT, top))
    source = max(steps)
    for s0 in range(0, top, _SEGMENT):
        s1 = min(s0 + _SEGMENT, top)
        power = _power_table(s1, s0, work)
        runs: dict[int, Optional[np.ndarray]] = {source: None}  # None: all ones
        # Runs this walk made, so it may add into them in place; an edge out
        # of the source yields a level vector itself, which the table keeps.
        own: set[int] = set()
        for mask, rest, g in _walk(edges, runs, lambda members: _product(power, members), carries):
            if rest in own:
                runs[rest] += g
            else:
                if rest in runs or mask != source:
                    own.add(rest)
                _add(runs, rest, g)
            # Drop g before the walk makes the next edge's vector, so that
            # vector can reuse g's block instead of new pages.
            del g
        sink = runs.get(0)
        for k, n in enumerate(cutoffs):
            if n > s0 and sink is not None:
                totals[k] += complex(sink[:min(n, s1) - s0].sum())
    return totals


def _chain_coupled(exps: Sequence[complex], n_max: int, p: int, q: int,
                   members: Sequence[Term]) -> np.ndarray:
    """Coupled chain by top value: entry w-1 is the sum over the chains
    1 <= x_0 < ... < x_{t-1} = w, level l of exponent exps[l], of the cell
    terms members between levels p < q.

    The one-chain view of `_coupled_sink`: the walk over the one path of
    levels 0..t-1, with the members as the `below` terms of one coupling
    of the levels p and q.
    """
    sink = _coupled_sink(_path([(l,) for l in range(len(exps))]), exps,
                         [(1.0, Coupling(p, q, tuple(members), ()))], n_max)
    return np.zeros(n_max, complex) if sink is None else sink


def _eval_system(cs: ConstraintSystem, es: Sequence[complex], pieces,
                 cutoffs: Sequence[int]) -> list[complex]:
    """The constrained sum at every cutoff (all >= 1), with the exponents es
    listed in the order of cs.variables (the block positions, then n), as
    `decompose._generating` takes them, and the pieces [(coeff, coupling
    or None)] coupling variables by those positions.  The uncoupled part
    is a sum over the order-filter DAG of cs; the coupled pieces, on two
    levels or tied on one, are one cut-filter walk of that DAG
    (`_coupled_sink`), once at the largest cutoff."""
    _, steps = _filter_steps(cs)
    es = [complex(e) for e in es]
    coupled = [(coeff, cp) for coeff, cp in pieces if cp is not None]
    plain = sum(coeff for coeff, cp in pieces if cp is None)
    totals = [0j] * len(cutoffs)
    if plain != 0:
        totals = [a + plain * v for a, v in zip(totals, _chain_plain(steps, es, cutoffs))]
    if not coupled:
        return totals

    sink = _coupled_sink(steps, es, coupled, max(cutoffs))
    if sink is None:
        return totals
    return [a + complex(sink[:n].sum()) for a, n in zip(totals, cutoffs)]


def _coupled_sink(steps, es: Sequence[complex], coupled, top: int) -> Optional[np.ndarray]:
    """The sink run over 1..top of the coupled pieces [(coeff, coupling)]:
    entry w-1 sums the paths of the filter DAG whose top level takes the
    value w (None if there is none).

    The couplings of one pair a < b merge, oriented so that `below` puts a
    on the lower level.  A filter holds both, one or neither of the pair.
    On every path either one edge out of a both-filter places the pair on
    one level, or the lower of the two is placed by an edge out of a
    both-filter (at value u) and the upper by an edge out of a one-filter
    (at w); the levels between are the neither-edges of a one-filter path.
    Chen's identity splits those mid levels at every filter C of that path,
        sum_{u < x_1 < ... < x_m < w} = sum_k (-1)^k A_k(u) B_k(w),
    A_k over u >= x_1 >= ... >= x_k >= 1 and B_k over x_{k+1} < ... < x_m < w,
    and the Toeplitz product is linear, so the paths are regrouped by that
    cut filter C:
    1. the lower walk runs the plain walk over both-filters; an edge that
       places one of the pair sends its g to lowp[target], and an edge that
       places both sends g times the sum of coeff * tie(x) over the pair's
       couplings to the plain run of its target (a coupling singular on
       ties raises InternalInvariantError there);
    2. row_C = sum_T lowp[T] h_T, with h_C = 1 and, walking back,
       h_F = sum over edges F -> F' of -cumsum(g h_F'), which is
       sum_k (-1)^k A_k; the variable still in C picks below or above;
    3. every term coeff L(u) R(w) K(w - u) sends coeff L row_C through one
       `toeplitz_rows` call per kernel (a tile product for 1/d, a prefix
       sum for 1 and for H(d - 1)), and col_C = sum of y R;
    4. the upper walk from C carries B = 1, g, g * (strict prefix of B),
       ... and the edge that places the other variable adds
       g * col_C * (strict prefix of B) to the plain run of its target;
    5. one plain walk, shared by every pair, takes those runs to the sink.
    Every walk is a `_walk` of the same `_edges` over [1..top], with one
    memo of level vectors, each the product of its members' powers in
    index order; every step is elementwise, a cumsum or a Toeplitz product,
    so the first n entries are those of a call at cutoff n.
    """
    pairs: dict[tuple[int, int], tuple[list[Term], list[Term], list]] = {}
    for coeff, cp in coupled:
        a, b = cp.var_a, cp.var_b
        below, above = ([t._replace(coeff=coeff * t.coeff) for t in terms]
                        for terms in (cp.below, cp.above))
        if a > b:
            a, b, below, above = b, a, above, below
        lo, hi, ties = pairs.setdefault((a, b), ([], [], []))
        lo += below
        hi += above
        ties.append((coeff, cp))

    power = _power_table(top)
    vals = np.arange(1, top + 1, dtype=np.float64)
    edges = _edges(steps, es)
    vecs: dict[tuple, np.ndarray] = {}

    def vec(members: tuple) -> np.ndarray:
        g = vecs.get(members)
        if g is None:
            g = vecs[members] = _product(power, members)
        return g

    groups: dict[Kernel, list] = {}  # kernel -> [(row, right, (a, b, cut))]
    upper: dict[int, np.ndarray] = {}  # plain runs past the pair, for step 5
    for (a, b), (below, above, ties) in pairs.items():
        pair = 1 << a | 1 << b
        # 1. the lower walk
        runs: dict[int, Optional[np.ndarray]] = {max(steps): None}
        lowp: dict[int, np.ndarray] = {}
        tie = None
        for mask, rest, g in _walk(edges, runs, vec, {}):
            placed = mask & ~rest & pair
            if placed != pair:
                _add(lowp if placed else runs, rest, g)
                continue
            if tie is None:
                if not all(cp.allow_tie for _, cp in ties):
                    raise InternalInvariantError(
                        f"singular coupling between the tied variables {a} and {b}")
                tie = sum(coeff * cp.tie(vals) for coeff, cp in ties)
            _add(upper, rest, g * tie)
        # the cut filters: those reached from lowp by neither-edges
        cuts = set(lowp)
        for mask, out in edges.items():
            if mask in cuts:
                cuts.update(rest for _, rest in out if not mask & ~rest & pair)
        cuts = sorted(cuts)
        sides = [[(t.kernel, t.coeff * t.left(vals) if t.left else t.coeff,
                   t.right and t.right(vals)) for t in side] for side in (below, above)]
        # 2. the rows of every cut filter
        for k, cut in enumerate(cuts):
            h: dict[int, Optional[np.ndarray]] = {cut: None}  # None: 1
            for mask in cuts[k + 1:]:
                acc = None
                for members, rest in edges[mask]:
                    if rest in h:
                        t = np.cumsum(mul(vec(members), h[rest]))
                        acc = -t if acc is None else acc - t
                if acc is not None:
                    h[mask] = acc
            row = sum(mul(low, h[target]) for target, low in lowp.items() if target in h)
            for kernel, left, right in sides[0 if cut >> b & 1 else 1]:
                groups.setdefault(kernel, []).append((left * row, right, (a, b, cut)))

    # 3. one Toeplitz product per kernel
    cols: dict[tuple[int, int, int], np.ndarray] = {}
    for kernel, group in groups.items():
        ys = toeplitz_rows([x for x, _, _ in group], kernel)
        for y, (_, right, key) in zip(ys, group):
            _add(cols, key, mul(y, right))

    # 4. the upper walks, one per cut filter
    for (a, b, cut), col in cols.items():
        pair = 1 << a | 1 << b
        mids: dict[int, Optional[np.ndarray]] = {cut: None}  # None: B = 1
        for mask, rest, g in _walk(edges, mids, vec, {}):
            if mask & ~rest & pair:
                _add(upper, rest, g * col)
            else:
                _add(mids, rest, g)

    # 5. the plain walk to the sink
    for _, rest, g in _walk(edges, upper, vec, {}):
        _add(upper, rest, g)
    return upper.get(0)


def _evaluate(plan, cap: int, max_cutoff: int | None,
              evalfn: Callable[[tuple[int, ...]], Sequence],
              half: bool = True) -> tuple[TruncationPlan, dict]:
    """The plan (a bare cutoff is a plan without refinements) and
    {n: value} at its cutoff, its refinements and, with half, cutoff // 2
    when that is >= 1.  evalfn maps increasing cutoffs to their values; it
    is called once, after a cutoff past max_cutoff (past cap when
    max_cutoff is None) raises BudgetError."""
    if not isinstance(plan, TruncationPlan):
        plan = TruncationPlan(plan)
    ns = {plan.cutoff, *(plan.refinements or ())}
    cap = cap if max_cutoff is None else max_cutoff
    if max(ns) > cap:
        raise BudgetError(f"cutoff {max(ns)} exceeds the enumeration cap {cap}")
    if half and plan.cutoff > 1:
        ns.add(plan.cutoff // 2)
    ns = tuple(sorted(ns))
    return plan, dict(zip(ns, evalfn(ns)))


def _make_report(plan, cap: int, max_cutoff: int | None,
                 evalfn: Callable[[tuple[int, ...]], Sequence[complex]]) -> EvalReport:
    """The report of `_evaluate`: the value at the cutoff, its distance
    from the value at cutoff // 2 (0 at 0) and the refinements."""
    plan, at = _evaluate(plan, cap, max_cutoff, evalfn)
    value = at[plan.cutoff]
    residual = abs(value - at.get(plan.cutoff // 2, 0j))
    _check_finite(plan.cutoff, residual, *at.values())
    refs = None if plan.refinements is None else [(n, at[n]) for n in plan.refinements]
    return EvalReport(value=value, cutoff=plan.cutoff, residual=residual, refinements=refs)


def _check_finite(n: int, *values: complex):
    """Refuse a report at cutoff n with a value or residual that is not
    finite: NaN and infinity are not JSON."""
    if not all(map(cmath.isfinite, values)):
        raise InternalInvariantError(f"non-finite value or residual at cutoff {n}")


# ---------------------------------------------------------------------------
# Named series of the block model
# ---------------------------------------------------------------------------


def _require(ineqs, domain: str):
    """Raise DomainError naming the first inequality that fails."""
    bad = first_failure(ineqs)
    if bad is not None:
        raise DomainError(f"arguments outside {domain}: {bad.describe()}")


def _sized(cs: ConstraintSystem) -> ConstraintSystem:
    """cs, its order-filter DAG built (BudgetError past `decompose.LEVEL_CAP`)."""
    _filter_steps(cs)
    return cs


def _tilde_pieces(s: ComplexArgs, i: int, j: int, variant) -> list:
    """The pole couplings of the split series at (i, j), between the
    position of (i, j) and that of n, which follows the block positions."""
    shape = s.shape
    delta = 1 if j == shape.r[i - 1] else 0
    x, n = shape.offset(i, j), shape.total_depth
    c1 = pole_coupling(x, n, delta, delta)
    c2 = pole_coupling(x, n, s[(i, j)], s[(i, j)])
    if variant in (1, "1"):
        return [(1.0, c1)]
    if variant in (2, "2"):
        return [(1.0, c2)]
    if variant == "diff":
        return [(1.0, c1), (-1.0, c2)]
    raise ValueError(f"unknown variant {variant!r}")


def eval_zeta_tilde(s: ComplexArgs, i: int, j: int, variant, plan,
                    *, max_cutoff: int | None = None) -> EvalReport:
    """Direct box-truncated evaluation of the split series at position (i, j).

    variant 1 and 2 are the two halves; 'diff' is their termwise difference
    over the same index domain.
    """
    cs = _sized(build_constraints_S_ij(s.shape, i, j))
    _require(w_inequalities(s), "W")
    pieces = _tilde_pieces(s, i, j, variant)
    return _make_report(plan, COUPLED_CUTOFF_CAP, max_cutoff,
                        lambda ns: _eval_system(cs, [*s.values, 0], pieces, ns))


def _tilde_harmonic_setup(s: ComplexArgs, i: int, j: int, variant):
    """Outer system, the positions of the coupled pair and the harmonic
    coupling for the closed-form path."""
    shape, at = s.shape, s.shape.offset
    x, r_i = at(i, j), shape.r[i - 1]  # refuses a position out of range
    if variant in (1, "1"):
        if j < r_i:
            return build_constraints_S(shape), x, at(i, j + 1), harmonic_gap
        prev = shape.wrap_block(i - 1)
        return build_constraints_T_i(shape, i), at(prev, 1), at(i, r_i), harmonic_wrap_1
    if variant in (2, "2"):
        if j == 1:
            nxt = shape.wrap_block(i + 1)
            return (build_constraints_T_i(shape, nxt), at(i, 1),
                    at(nxt, shape.r[nxt - 1]), harmonic_wrap_2)
        return build_constraints_S(shape), at(i, j - 1), x, harmonic_gap
    raise ValueError(f"harmonic path supports variants 1 and 2, not {variant!r}")


def eval_zeta_tilde_harmonic(s: ComplexArgs, i: int, j: int, variant, plan,
                             *, max_cutoff: int | None = None) -> EvalReport:
    """Closed-form path: the extra variable is summed analytically into a
    harmonic-range factor; only the outer chain is truncated at N."""
    cs, a, b, coupling = _tilde_harmonic_setup(s, i, j, variant)
    _sized(cs)
    _require(w_inequalities(s), "W")
    pieces = [(1.0, coupling(a, b))]
    return _make_report(plan, COUPLED_CUTOFF_CAP, max_cutoff,
                        lambda ns: _eval_system(cs, s.values, pieces, ns))


def eval_zeta_C_i(s: ComplexArgs, i: int, plan, *, max_cutoff: int | None = None) -> EvalReport:
    """Truncated window series over S_i (extra variable with exponent 1)."""
    cs = _sized(build_constraints_S_i(s.shape, i))
    _require(w_inequalities(s), "W")
    return _make_report(plan, CHAIN_CUTOFF_CAP, max_cutoff,
                        lambda ns: _eval_system(cs, [*s.values, 1], [(1.0, None)], ns))


def eval_zeta_C(s: ComplexArgs, plan, *, max_cutoff: int | None = None) -> EvalReport:
    """Truncated series over the cyclic domain S (block variables only)."""
    cs = _sized(build_constraints_S(s.shape))
    _require(w_inequalities(s), "W")
    return _make_report(plan, CHAIN_CUTOFF_CAP, max_cutoff,
                        lambda ns: _eval_system(cs, s.values, [(1.0, None)], ns))


def eval_theorem_residual(s: ComplexArgs, plan, *,
                          max_cutoff: int | None = None) -> TheoremReport:
    """Both sides of the main identity at matched box truncations.

    lhs sums the termwise differences over every position; rhs sums the
    window series over every block.
    """
    shape = s.shape
    tilde = [(_sized(build_constraints_S_ij(shape, i, j)), _tilde_pieces(s, i, j, "diff"))
             for i, j in shape.positions()]
    cees = [(_sized(build_constraints_S_i(shape, i)), [(1.0, None)])
            for i in range(1, shape.d + 1)]
    _require(w_inequalities(s), "W")

    def total(systems, extra: int, ns) -> list[complex]:
        values = [_eval_system(cs, [*s.values, extra], pieces, ns) for cs, pieces in systems]
        return [sum(col, 0j) for col in zip(*values)]

    plan, at = _evaluate(plan, COUPLED_CUTOFF_CAP, max_cutoff,
                         lambda ns: list(zip(total(tilde, 0, ns), total(cees, 1, ns))),
                         half=False)
    _check_finite(plan.cutoff, *(abs(ln - rn) for ln, rn in at.values()))
    lhs, rhs = at[plan.cutoff]
    refs = None
    if plan.refinements is not None:
        refs = [(n, *at[n], abs(at[n][0] - at[n][1])) for n in plan.refinements]
    return TheoremReport(
        lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), cutoff=plan.cutoff, refinements=refs
    )


# ---------------------------------------------------------------------------
# Plain nested series, double series, and the product identity
# ---------------------------------------------------------------------------


def eval_mzf(s: Sequence[complex], plan, *, max_cutoff: int | None = None) -> EvalReport:
    """Truncated nested series on a strict chain, via prefix-sum recursion."""
    vals = [complex(v) for v in s]
    _require(ez_inequalities(vals), "the absolute-convergence domain")
    steps = _path([(t,) for t in range(len(vals))])
    return _make_report(plan, CHAIN_CUTOFF_CAP, max_cutoff,
                        lambda ns: _chain_plain(steps, vals, ns))


def mzv_partial_sum(parts: Sequence[int], n_max: int) -> float:
    """Box-truncated value of an admissible integer symbol."""
    return _mzv_partial_cached(tuple(int(p) for p in parts), int(n_max))


@lru_cache(maxsize=4096)
def _mzv_partial_cached(parts: tuple[int, ...], n_max: int) -> float:
    steps = _path([(t,) for t in range(len(parts))])
    return _chain_plain(steps, [complex(p) for p in parts], (n_max,))[0].real


def combo_partial_sum(combo, n_max: int) -> float:
    """Box-truncated value of an integer-coefficient symbol combination."""
    total = 0.0
    for comp, coeff in combo.items():
        total += coeff * mzv_partial_sum(comp.parts, n_max)
    return total


def eval_mordell_tornheim(s1: complex, s2: complex, s3: complex, plan,
                          *, max_cutoff: int | None = None) -> EvalReport:
    """Truncated double series sum_{m,n<=N} m^{-s1} n^{-s2} (m+n)^{-s3}."""
    s1, s2, s3 = complex(s1), complex(s2), complex(s3)
    if not (
        (s1 + s3).real > 1 and (s2 + s3).real > 1 and (s1 + s2 + s3).real > 2
    ):
        warnings.warn(
            "double series may not converge absolutely for these exponents",
            stacklevel=2,
        )

    def evalfn(n: int) -> complex:
        # conv[k - 2] = sum over m + n = k (m, n <= N) of m^-s1 n^-s2, from
        # real transforms of the real and imaginary parts: negating an
        # input negates its transform exactly, so conjugation stays exact.
        size = 2 * n
        a, b = _pow_vec(n, s1), _pow_vec(n, s2)
        ar, ai = (np.fft.rfft(v, size) for v in (a.real, a.imag))
        br, bi = (np.fft.rfft(v, size) for v in (b.real, b.imag))
        conv = np.empty(size - 1, dtype=complex)
        conv.real = np.fft.irfft(ar * br - ai * bi, size)[:size - 1]
        conv.imag = np.fft.irfft(ar * bi + ai * br, size)[:size - 1]
        return complex((conv * _pow_vec(size, s3)[1:]).sum())

    return _make_report(plan, MT_CUTOFF_CAP, max_cutoff, lambda ns: [evalfn(n) for n in ns])


def harmonic_relation_check(s1: complex, s2: complex, n_max: int) -> float:
    """Defect of the product identity for two single series at one matched
    box truncation (the four pieces tile the box exactly, so this measures
    floating rounding at any N)."""
    s1, s2 = complex(s1), complex(s2)
    one, two, tied = _path([(0,)]), _path([(0,), (1,)]), _path([(0, 1)])
    z1, z2, z12, z21, zd = (
        _chain_plain(steps, exps, (n_max,))[0]
        for steps, exps in ((one, [s1]), (one, [s2]), (two, [s1, s2]),
                            (two, [s2, s1]), (tied, [s1, s2])))
    return abs(z1 * z2 - z12 - z21 - zd)
