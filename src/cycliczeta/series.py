"""Truncated evaluation of the complex-argument series attached to a shape.

Every sum here is a box truncation: each summation variable runs over
1..N.  A constrained sum is split into the weak orders of its constraint
system, as the exact decomposer splits it, each a totally ordered chain.
Its plain part walks the order-filter DAG of the system
(`decompose._filter_steps`), on which every weak order is a path: one
vector per filter and one multiply per edge, not one chain per weak order.
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
u = (n - c)/c <= 15/16385: c^(-s) by cpow, (1 + u)^(-s) by its binomial
series in real Horner steps, cut at the least degree whose proven tail
bound is below 2^-56; an exponent that needs more than 7 terms takes cpow
for every value.  The rule depends only on n and s, so a power has the same
bits in every segment and table.  A plain walk's segment past 2^14 writes
its powers into work vectors shared by every segment (`_PowerWork`); any
other range gets one fresh vector.  Both routes take the sine/cosine and
the series at |Im s| and negate the imaginary part, so that conjugating
every argument conjugates the result exactly.  Products of
powers are taken in variable order, never in an order of their values,
which conjugation could change, so they stay exact under conjugation too.

Every block-model evaluator and `eval_mzf` refuse arguments outside their
convergence domain (W, or the absolute-convergence domain of the plain
series) with DomainError; the double series only warns.
"""

from __future__ import annotations

import cmath
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
from .decompose import _filter_steps
# Unused here, but perfbench/tracing.py wraps this binding until the library counts its own calls.
from .decompose import weak_orders  # noqa: F401
from .errors import BudgetError, DomainError, InternalInvariantError
from .model import (
    EXTRA,
    ComplexArgs,
    ConstraintSystem,
    VarId,
    build_constraints_S,
    build_constraints_S_i,
    build_constraints_S_ij,
    build_constraints_T_i,
    ez_inequalities,
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
# (`_pow_vec`); _U_MAX bounds the offset u = (v - c)/c from the anchor c.  A
# segment that starts at a multiple of _ANCHOR_FROM splits into whole groups.
_ANCHOR_FROM = 1 << 14
_GROUP = 16
_U_MAX = (_GROUP - 1) / (_ANCHOR_FROM + 1)
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
    """Box cutoff plus optional increasing refinement cutoffs."""

    cutoff: int
    refinements: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.refinements is not None:
            refs = tuple(int(n) for n in self.refinements)
            if any(b <= a for a, b in zip(refs, refs[1:])) or any(n < 1 for n in refs):
                raise ValueError("refinements must be strictly increasing and >= 1")
            object.__setattr__(self, "refinements", refs)


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


def _as_plan(plan) -> TruncationPlan:
    if isinstance(plan, TruncationPlan):
        return plan
    return TruncationPlan(int(plan))


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


class _PowerWork:
    """Work and output vectors of the anchored route for ranges of up to
    `size` values, shared by every range a walk takes in turn, so no range
    pays fresh pages for them: the offsets u, the real and imaginary Horner
    accumulators, and one output vector per exponent, made at its first
    use.  A range's powers are written over the last range's, so a walk
    drops one range's powers before it asks for the next."""

    def __init__(self, size: int):
        self.size = size
        self.groups = size // _GROUP + 2  # the most groups `size` values touch
        self.u, self.re, self.im = (np.empty((self.groups, _GROUP)) for _ in range(3))
        self.layout = None  # (first anchor, groups) of the offsets in u
        self.outs: dict[complex, np.ndarray] = {}

    def out(self, s: complex) -> np.ndarray:
        """The output vector of exponent s, made at its first use."""
        buf = self.outs.get(s)
        if buf is None:
            buf = self.outs[s] = np.empty((self.groups, _GROUP), dtype=np.complex128)
        return buf


def _horner(acc: np.ndarray, u: np.ndarray, coeffs: Sequence[float]):
    """acc = sum_k coeffs[k] u^k (degree >= 1) by Horner's rule, in place."""
    np.multiply(u, coeffs[-1], out=acc)
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= u
    if coeffs[0]:
        acc += coeffs[0]


def _anchored(work: _PowerWork, lo: int, hi: int, e: complex,
              coeffs: Sequence[complex], out: np.ndarray) -> np.ndarray:
    """[lo+1..hi]^e for _ANCHOR_FROM <= lo < hi and Im e >= 0, coeffs the
    binomial series of (1 + u)^e, written into out (a `work.out` vector) in
    whole groups of _GROUP from the anchor `first`: value first + _GROUP g + j
    is c^e (1 + u)^e with c = first + _GROUP g and u = j / c, c^e by cpow,
    (1 + u)^e by real Horner steps on the real and imaginary parts, their
    product in real steps.  work keeps u for the next exponent of the range."""
    first = lo + 1 - lo % _GROUP
    groups = -(-(hi - first + 1) // _GROUP)
    anchors = first + _GROUP * np.arange(groups, dtype=np.float64)
    u = work.u[:groups]
    if work.layout != (first, groups):
        np.divide(np.arange(_GROUP, dtype=np.float64), anchors[:, None], out=u)
        work.layout = (first, groups)
    re, im, out = work.re[:groups], work.im[:groups], out[:groups]
    _horner(re, u, [c.real for c in coeffs])
    _horner(im, u, [c.imag for c in coeffs])
    anchors = cpow(anchors, e)
    ar, ai = anchors.real[:, None], anchors.imag[:, None]
    o_re, o_im = out.real, out.imag
    np.multiply(re, ar, out=o_re)
    np.multiply(im, ai, out=o_im)
    o_re -= o_im
    np.multiply(im, ar, out=o_im)
    re *= ai
    o_im += re
    skip = lo + 1 - first
    return out.reshape(-1)[skip:skip + hi - lo]


def _pow_vec(n_max: int, s: complex, start: int = 0,
             work: Optional[_PowerWork] = None) -> np.ndarray:
    """[start+1..n_max]^(-s): in work's output vector of s when the range
    starts at or above _ANCHOR_FROM and fits work, else in a fresh vector.

    Values up to _ANCHOR_FROM take cpow, and so does every value when s is
    real or `_binomial_series` has no degree for it.  Above, v^(-s) is
    c^(-s) (1 + u)^(-s) with the anchor c = v - ((v - 1) mod _GROUP) and
    u = (v - c)/c; the rule depends only on (v, s), so a value's power has
    the same bits in every range.  Both routes work at |Im s| and negate
    the imaginary part, so conjugating s conjugates the result exactly."""
    e = -complex(s)
    coeffs = _binomial_series(s)
    if coeffs is None or n_max <= _ANCHOR_FROM:
        return cpow(np.arange(start + 1, n_max + 1, dtype=np.float64), e)
    up = complex(e.real, abs(e.imag))
    if work is not None and start >= _ANCHOR_FROM and n_max - start <= work.size:
        out = _anchored(work, start, n_max, up, coeffs, work.out(s))
    else:
        # cpow up to _ANCHOR_FROM, then one segment at a time, so the work
        # set does not grow with the range
        lo = max(start, _ANCHOR_FROM)
        out = np.empty(n_max - start, dtype=np.complex128)
        out[:lo - start] = cpow(np.arange(start + 1, lo + 1, dtype=np.float64), up)
        work = _PowerWork(min(_SEGMENT, n_max - lo))
        for a in range(lo, n_max, _SEGMENT):
            b = min(a + _SEGMENT, n_max)
            out[a - start:b - start] = _anchored(work, a, b, up, coeffs, work.out(s))
    if e.imag < 0:
        np.subtract(0.0, out.imag, out=out.imag)
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
        steps[mask] = ((tuple(lvl), rest),)
        rest = mask
    return steps


def _edges(steps: Mapping[int, Sequence[tuple[tuple[int, ...], int]]],
           exps: Sequence[complex]) -> dict:
    """The edges of steps by source from the largest mask down:
    {mask: [(members, rest), ...]}, members the level's nonzero exponents in
    index order.  Every filter has a step (the minimal class of what remains
    is a level), so every edge is on some path to the sink 0."""
    return {mask: [(tuple(exps[t] for t in lvl if exps[t] != 0), rest)
                   for lvl, rest in steps[mask]]
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


def _chain_plain(steps: Mapping[int, Sequence[tuple[tuple[int, ...], int]]],
                 exps: Sequence[complex], cutoffs: Sequence[int]) -> list[complex]:
    """For every cutoff n, the sum over the paths of a DAG of order filters,
    given as `decompose._filter_steps` gives it ({mask: ((level indices,
    rest mask), ...)}, from the largest mask down to 0), of the sum over
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
    of placeholder variables on levels p and q.
    """
    vs = [VarId.block(1, l + 1) for l in range(len(exps))]
    coupling = Coupling(vs[p], vs[q], tuple(members), ())
    sink = _coupled_sink(vs, _path([(l,) for l in range(len(exps))]), exps,
                         [(1.0, coupling)], n_max)
    return np.zeros(n_max, complex) if sink is None else sink


def _eval_system(cs: ConstraintSystem, exps, pieces, cutoffs: Sequence[int]) -> list[complex]:
    """The constrained sum at every cutoff (all >= 1).  The uncoupled part
    is a sum over the order-filter DAG of cs; the coupled pieces, on two
    levels or tied on one, are one cut-filter walk of that DAG
    (`_coupled_sink`), once at the largest cutoff."""
    vs, steps = _filter_steps(cs)
    es = [complex(exps.get(v, 0)) for v in vs]
    coupled = [(coeff, cp) for coeff, cp in pieces if cp is not None]
    plain = sum(coeff for coeff, cp in pieces if cp is None)
    totals = [0j] * len(cutoffs)
    if plain != 0:
        totals = [a + plain * v for a, v in zip(totals, _chain_plain(steps, es, cutoffs))]
    if not coupled:
        return totals

    sink = _coupled_sink(vs, steps, es, coupled, max(cutoffs))
    if sink is None:
        return totals
    return [a + complex(sink[:n].sum()) for a, n in zip(totals, cutoffs)]


def _coupled_sink(vs: Sequence[VarId], steps, es: Sequence[complex], coupled,
                  top: int) -> Optional[np.ndarray]:
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
    idx = {v: t for t, v in enumerate(vs)}
    pairs: dict[tuple[int, int], tuple[list[Term], list[Term], list]] = {}
    for coeff, cp in coupled:
        a, b = idx[cp.var_a], idx[cp.var_b]
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
                        f"singular coupling between tied variables {vs[a]}, {vs[b]}")
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


def _check_budget(plan: TruncationPlan, cap: int, max_cutoff: int | None):
    """Refuse a plan past max_cutoff, or past cap when max_cutoff is None."""
    if max_cutoff is not None:
        cap = max_cutoff
    top = max(plan.cutoff, *(plan.refinements or (1,)))
    if top > cap:
        raise BudgetError(f"cutoff {top} exceeds the enumeration cap {cap}")


def _make_report(evalfn: Callable[[tuple[int, ...]], Sequence[complex]],
                 plan: TruncationPlan) -> EvalReport:
    """evalfn maps increasing cutoffs (all >= 1) to their values; it is
    asked once for the cutoff, its half and the refinements."""
    half = plan.cutoff // 2
    ns = tuple(sorted({plan.cutoff, *(plan.refinements or ()), *((half,) if half else ())}))
    at = dict(zip(ns, evalfn(ns)))
    at[0] = 0j
    value = at[plan.cutoff]
    residual = abs(value - at[half])
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
    bad = next((q for q in ineqs if not q.ok), None)
    if bad is not None:
        raise DomainError(f"arguments outside {domain}: {bad.describe()}")


def _block_exponents(s: ComplexArgs, extra: complex | None = None):
    exps: dict[VarId, complex] = {
        VarId.block(i, j): s[(i, j)] for (i, j) in s.shape.positions()
    }
    if extra is not None:
        exps[EXTRA] = extra
    return exps


def _tilde_pieces(s: ComplexArgs, i: int, j: int, variant) -> list:
    r_i = s.shape.r[i - 1]
    delta = 1 if j == r_i else 0
    x = VarId.block(i, j)
    c1 = pole_coupling(x, EXTRA, delta, delta)
    c2 = pole_coupling(x, EXTRA, s[(i, j)], s[(i, j)])
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
    plan = _as_plan(plan)
    cs = build_constraints_S_ij(s.shape, i, j)
    _require(w_inequalities(s), "W")
    _check_budget(plan, COUPLED_CUTOFF_CAP, max_cutoff)
    exps = _block_exponents(s, extra=0)
    pieces = _tilde_pieces(s, i, j, variant)
    return _make_report(lambda ns: _eval_system(cs, exps, pieces, ns), plan)


def _tilde_harmonic_setup(s: ComplexArgs, i: int, j: int, variant):
    """Outer system, coupled pair and harmonic coupling for the closed-form
    path."""
    shape = s.shape
    r_i = shape.r[i - 1]
    if variant in (1, "1"):
        if j < r_i:
            return (build_constraints_S(shape), VarId.block(i, j),
                    VarId.block(i, j + 1), harmonic_gap)
        prev = shape.wrap_block(i - 1)
        return (build_constraints_T_i(shape, i), VarId.block(prev, 1),
                VarId.block(i, r_i), harmonic_wrap_1)
    if variant in (2, "2"):
        if j == 1:
            nxt = shape.wrap_block(i + 1)
            return (build_constraints_T_i(shape, nxt), VarId.block(i, 1),
                    VarId.block(nxt, shape.r[nxt - 1]), harmonic_wrap_2)
        return (build_constraints_S(shape), VarId.block(i, j - 1),
                VarId.block(i, j), harmonic_gap)
    raise ValueError(f"harmonic path supports variants 1 and 2, not {variant!r}")


def eval_zeta_tilde_harmonic(s: ComplexArgs, i: int, j: int, variant, plan,
                             *, max_cutoff: int | None = None) -> EvalReport:
    """Closed-form path: the extra variable is summed analytically into a
    harmonic-range factor; only the outer chain is truncated at N."""
    plan = _as_plan(plan)
    shape = s.shape
    if not (1 <= i <= shape.d and 1 <= j <= shape.r[i - 1]):
        raise ValueError(f"position ({i},{j}) out of range for shape {shape}")
    _require(w_inequalities(s), "W")
    _check_budget(plan, COUPLED_CUTOFF_CAP, max_cutoff)
    cs, va, vb, coupling = _tilde_harmonic_setup(s, i, j, variant)
    exps = _block_exponents(s)

    pieces = [(1.0, coupling(va, vb))]
    return _make_report(lambda ns: _eval_system(cs, exps, pieces, ns), plan)


def eval_zeta_C_i(s: ComplexArgs, i: int, plan, *, max_cutoff: int | None = None) -> EvalReport:
    """Truncated window series over S_i (extra variable with exponent 1)."""
    plan = _as_plan(plan)
    cs = build_constraints_S_i(s.shape, i)
    _require(w_inequalities(s), "W")
    _check_budget(plan, CHAIN_CUTOFF_CAP, max_cutoff)
    exps = _block_exponents(s, extra=1)
    return _make_report(lambda ns: _eval_system(cs, exps, [(1.0, None)], ns), plan)


def eval_zeta_C(s: ComplexArgs, plan, *, max_cutoff: int | None = None) -> EvalReport:
    """Truncated series over the cyclic domain S (block variables only)."""
    plan = _as_plan(plan)
    _require(w_inequalities(s), "W")
    _check_budget(plan, CHAIN_CUTOFF_CAP, max_cutoff)
    cs = build_constraints_S(s.shape)
    exps = _block_exponents(s)
    return _make_report(lambda ns: _eval_system(cs, exps, [(1.0, None)], ns), plan)


def eval_theorem_residual(s: ComplexArgs, plan, *,
                          max_cutoff: int | None = None) -> TheoremReport:
    """Both sides of the main identity at matched box truncations.

    lhs sums the termwise differences over every position; rhs sums the
    window series over every block.
    """
    plan = _as_plan(plan)
    shape = s.shape
    _require(w_inequalities(s), "W")
    _check_budget(plan, COUPLED_CUTOFF_CAP, max_cutoff)
    tilde = [(build_constraints_S_ij(shape, i, j), _tilde_pieces(s, i, j, "diff"))
             for i, j in shape.positions()]
    cees = [build_constraints_S_i(shape, i) for i in range(1, shape.d + 1)]
    # Refuse a system over the DAG cap before any sum.
    for cs in [cs for cs, _ in tilde] + cees:
        _filter_steps(cs)
    exps_t = _block_exponents(s, extra=0)
    exps_c = _block_exponents(s, extra=1)

    ns = tuple(sorted({plan.cutoff, *(plan.refinements or ())}))
    lhs = [0j] * len(ns)
    for cs, pieces in tilde:
        lhs = [a + v for a, v in zip(lhs, _eval_system(cs, exps_t, pieces, ns))]
    rhs = [0j] * len(ns)
    for cs in cees:
        rhs = [a + v for a, v in zip(rhs, _eval_system(cs, exps_c, [(1.0, None)], ns))]
    at = {n: (ln, rn) for n, ln, rn in zip(ns, lhs, rhs)}
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
    if not vals:
        raise ValueError("empty argument list")
    plan = _as_plan(plan)
    _require(ez_inequalities(vals), "the absolute-convergence domain")
    _check_budget(plan, CHAIN_CUTOFF_CAP, max_cutoff)
    steps = _path([(t,) for t in range(len(vals))])
    return _make_report(lambda ns: _chain_plain(steps, vals, ns), plan)


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
    plan = _as_plan(plan)
    s1, s2, s3 = complex(s1), complex(s2), complex(s3)
    if not (
        (s1 + s3).real > 1 and (s2 + s3).real > 1 and (s1 + s2 + s3).real > 2
    ):
        warnings.warn(
            "double series may not converge absolutely for these exponents",
            stacklevel=2,
        )
    _check_budget(plan, MT_CUTOFF_CAP, max_cutoff)

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

    return _make_report(lambda ns: [evalfn(n) for n in ns], plan)


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
