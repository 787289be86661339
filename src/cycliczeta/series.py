"""Truncated evaluation of the complex-argument series attached to a shape.

Every sum here is a box truncation: each summation variable runs over
1..N.  A constrained sum is split into the weak orders of its constraint
system, as the exact decomposer splits it, each a totally ordered chain.
Its plain part walks the order-filter DAG of the system
(`decompose._filter_steps`), on which every weak order is a path: one
vector per filter and one multiply per edge, not one chain per weak order.
A term may couple two variables, through the pole factor
a^p / (b^q (b - a)) or a harmonic-range factor.  Where the two share a
level, the coupling is one more walk, restricted to such levels and with
its tie factor on them.  Across levels the weak orders are enumerated, and
every coupling is a short sum of separable cell terms
coeff * L(u) * R(w) * K(w - u) over value pairs u < w, with K a Toeplitz
kernel (1/d, 1 or H(d - 1); see couplings.py); the plain levels between
the coupled pair split into separable prefix sums by Chen's identity.  So a
coupled chain is a few real Toeplitz tile products of fixed shape,
(rows x 256) @ (256 x 256), in a fixed order: no transcendental or complex
division per cell, and bit-reproducible results.  The double series
sum m^-a n^-b (m + n)^-c is one convolution per cutoff, taken with real
transforms of the real and imaginary parts.

A box truncation at n keeps exactly the terms whose largest value is at
most n, so every evaluator makes one pass at its largest cutoff and reads
the value at each smaller cutoff (the refinements and N/2) off that pass;
each is bit-identical to a separate evaluation at that cutoff.  The walks
are streamed over value segments, each filter carrying its sums into the
next, so their memory does not grow with N.  The coupled chains keep one
power of each level's summed exponent.

The harmonic-form evaluators sum the extra variable analytically into a
harmonic-range factor and truncate only the outer variables, so at finite
N they differ from the direct path; the two agree in the limit.

Complex powers n^(-s) are computed as exp(-s log n) with the real log of a
positive integer; the sine/cosine are taken at |Im s| log n so that
conjugating every argument conjugates the result exactly.  Products of
powers are taken in variable order, never in an order of their values,
which conjugation could change, so they stay exact under conjugation too.

Every block-model evaluator and `eval_mzf` refuse arguments outside their
convergence domain (W, or the absolute-convergence domain of the plain
series) with DomainError; the double series only warns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .couplings import (
    Kernel,
    Term,
    cpow,
    harmonic_gap,
    harmonic_table,
    harmonic_wrap_1,
    harmonic_wrap_2,
    kernel_tiles,
    mul,
    pole_coupling,
    toeplitz_rows,
)
from .decompose import _filter_steps, weak_orders
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
# Coupled chains are summed one weak order at a time: a system with coupled
# pieces may have at most this many (929 for shape (2,2,2), 60663 for
# (2,2,2,2)).
COUPLED_ORDER_CAP = 5000
CHAIN_CUTOFF_CAP = 20_000_000
# The double series is O(N log N) per cutoff, but its peak memory grows by
# about 180 bytes per N (210 MiB at 1e6).
MT_CUTOFF_CAP = 1_000_000
# Plain sums are streamed over segments of this many values; a walk keeps
# one pending vector per filter it has reached (18 for (2,2,2) S_1).
_SEGMENT = 1 << 14


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


def _pow_vec(n_max: int, s: complex, start: int = 0) -> np.ndarray:
    """[start+1..n_max]^(-s)."""
    return cpow(np.arange(start + 1, n_max + 1, dtype=np.float64), -complex(s))


def _power_table(n_max: int, start: int = 0) -> Callable[[complex], np.ndarray]:
    """Memoised e -> [start+1..n_max]^(-e)."""
    table: dict[complex, np.ndarray] = {}

    def power(e: complex) -> np.ndarray:
        g = table.get(e)
        if g is None:
            g = table[e] = _pow_vec(n_max, e, start)
        return g

    return power


# ---------------------------------------------------------------------------
# Chain evaluation
# ---------------------------------------------------------------------------


def _shift_prefix(c: np.ndarray) -> np.ndarray:
    out = np.empty_like(c)
    out[0] = 0
    np.cumsum(c[:-1], out=out[1:])
    return out


def _path(levels: Sequence[Sequence[int]]) -> dict:
    """The steps, in `_filter_steps` format, of the one path through the
    given levels of variable indices, bottom to top."""
    steps, rest = {}, 0
    for lvl in reversed(levels):
        mask = rest | sum(1 << t for t in lvl)
        steps[mask] = ((tuple(lvl), rest),)
        rest = mask
    return steps


def _chain_plain(steps: Mapping[int, Sequence[tuple[tuple[int, ...], int]]],
                 exps: Sequence[complex], cutoffs: Sequence[int],
                 tie: Optional[tuple[int, Callable]] = None) -> list[complex]:
    """For every cutoff n, the sum over the paths of a DAG of order filters,
    given as `decompose._filter_steps` gives it ({mask: ((level indices,
    rest mask), ...)}, from the largest mask down to 0), of the sum over
    1 <= x_1 < ... < x_t <= n of prod_l prod_{i in level l} x_l^(-exps[i]).
    tie = (pair mask, fn) keeps the paths on which the pair shares a level
    and puts fn(x) on that level.

    One pass at the largest cutoff, streamed over value segments, each with
    one table of single-exponent powers.  A level's vector is the product of
    its members' vectors in index order (empty: ones), so conjugation stays
    exact.  Filters are visited from the source down; each sums the runs of
    its in-edges, and its strict prefix sums, seeded by the carry of all
    smaller values, have the bits of one sequential sum.  An edge multiplies
    its level's vector by its source's prefix sums.  The value at n adds,
    segment by segment, the sum of the sink's run up to n.
    """
    pair, fn = tie or (0, None)
    # The edges on some path to the sink, source first; with a tie, those
    # whose level holds both of the pair or neither.
    live, edges = {0}, []
    for mask in sorted(steps):
        out = [([exps[t] for t in lvl if exps[t] != 0], rest, (mask & ~rest & pair) != 0)
               for lvl, rest in steps[mask]
               if rest in live and (mask & ~rest & pair) in (0, pair)]
        if out:
            live.add(mask)
            edges.insert(0, (mask, out))
    top = max(cutoffs, default=0)
    carries: dict[int, complex] = {}
    totals = [0j] * len(cutoffs)
    for s0 in range(0, top, _SEGMENT):
        s1 = min(s0 + _SEGMENT, top)
        power = _power_table(s1, s0)
        factor = fn and fn(np.arange(s0 + 1, s1 + 1, dtype=np.float64))
        runs: dict[int, Optional[np.ndarray]] = {max(steps): None}  # None: all ones
        for mask, out in edges:
            if mask not in runs:
                continue
            pre = run = runs.pop(mask)
            if run is not None:
                pre = np.empty(len(run) + 1, run.dtype)
                pre[0] = carries.get(mask, 0)
                pre[1:] = run
                np.cumsum(pre, out=pre)
                carries[mask] = pre[-1]
                pre = pre[:-1]
            for members, rest, tied in out:
                g = power(members[0] if members else 0)
                for e in members[1:]:
                    g = g * power(e)
                if tied:
                    g = g * factor
                if pre is not None:
                    g = g * pre
                runs[rest] = g if rest not in runs else runs[rest] + g
        sink = runs.get(0)
        for k, n in enumerate(cutoffs):
            if n > s0 and sink is not None:
                totals[k] += complex(sink[:min(n, s1) - s0].sum())
    return totals


def _chain_coupled(exps: Sequence[complex], n_max: int, p: int, q: int,
                   members: Sequence[Term],
                   power: Callable[[complex], np.ndarray],
                   tiles: Callable[[Kernel, int], np.ndarray]) -> np.ndarray:
    """Coupled chain by top value: entry w-1 is the sum over the chains
    whose top level takes the value w.  Levels p < q carry the cell terms
    coeff L(u) R(w) K(w - u) summed over value pairs u < w; the levels
    below p, between p and q, and above q are plain.  power(e) is
    [1..n_max]^(-e) and tiles(K, nb) the Toeplitz tiles of K.

    The m levels between p and q split by Chen's identity,
        sum_{u < x_1 < ... < x_m < w} = sum_k (-1)^k A_k(u) B_k(w),
    with A_k(u) over u >= x_1 >= ... >= x_k >= 1 and B_k(w) over
    x_{k+1} < ... < x_m < w, so every term is separable: its rows
    coeff g_a L A_k go through the Toeplitz tile products of K, and each
    row's columns are weighted by (-1)^k R B_k.  The first n entries are
    bit-identical to a call at cutoff n.  The levels above q run as a
    prefix chain over the column sums.
    """
    t = len(exps)
    run = None
    for l in range(p):
        g = power(exps[l])
        run = g if run is None else g * _shift_prefix(run)
    g_a = mul(power(exps[p]), None if run is None else _shift_prefix(run))

    mids = [power(exps[l]) for l in range(p + 1, q)]
    lows: list[Optional[np.ndarray]] = [None]  # A_0 = 1
    for k in range(1, len(mids) + 1):
        acc = np.cumsum(mids[k - 1])
        for g in reversed(mids[:k - 1]):
            acc = np.cumsum(g * acc)
        lows.append(acc)
    highs: list[Optional[np.ndarray]] = []
    for k in range(len(mids)):
        acc = mids[k]
        for g in mids[k + 1:]:
            acc = g * _shift_prefix(acc)
        highs.append(_shift_prefix(acc))
    highs.append(None)  # B_m = 1

    vals = np.arange(1, n_max + 1, dtype=np.float64)
    groups: dict[Kernel, list] = {}
    for term in members:
        x = mul(term.coeff * g_a, term.left and term.left(vals))
        right = term.right and term.right(vals)
        for k, (low, high) in enumerate(zip(lows, highs)):
            groups.setdefault(term.kernel, []).append(
                (mul(x, low), mul(right, high), k % 2))

    col = np.zeros(n_max, dtype=complex)
    for kernel, group in groups.items():
        ys = toeplitz_rows([x for x, _, _ in group], kernel, tiles)
        for y, (_, weight, odd) in zip(ys, group):
            y = mul(y, weight)
            col = col - y if odd else col + y

    run = power(exps[q]) * col
    for l in range(q + 1, t):
        run = power(exps[l]) * _shift_prefix(run)
    return run


def _eval_system(cs: ConstraintSystem, exps, pieces, cutoffs: Sequence[int],
                 tiles: Callable[[Kernel, int], np.ndarray] | None = None
                 ) -> list[complex]:
    """The constrained sum at every cutoff (all >= 1).  The uncoupled part
    and each coupling that allows ties, where its two variables share a
    level, are sums over the order-filter DAG of cs; a coupling across two
    levels is summed per weak order, each coupled chain once at the largest
    cutoff; a coupled system with more than COUPLED_ORDER_CAP weak orders
    raises BudgetError before anything is summed.  tiles may be shared by
    systems evaluated at the same cutoffs."""
    vs, steps = _filter_steps(cs)
    idx = {v: t for t, v in enumerate(vs)}
    es = [complex(exps.get(v, 0)) for v in vs]
    coupled = [(coeff, cp) for coeff, cp in pieces if cp is not None]
    if coupled:
        # Every weak order is one path from the full filter to 0, and rest
        # masks are smaller than theirs, so one pass in mask order counts
        # them.
        paths = {0: 1}
        for mask in sorted(steps):
            paths[mask] = sum(paths[rest] for _, rest in steps[mask])
        orders = paths[max(steps)]
        if orders > COUPLED_ORDER_CAP:
            raise BudgetError(f"coupled system with {orders} weak orders exceeds "
                              f"the cap {COUPLED_ORDER_CAP}")
    plain = sum(coeff for coeff, cp in pieces if cp is None)
    walks = [(plain, None)] if plain != 0 else []
    walks += [(coeff, (1 << idx[cp.var_a] | 1 << idx[cp.var_b], cp.tie))
              for coeff, cp in coupled if cp.allow_tie]
    totals = [0j] * len(cutoffs)
    for coeff, tie in walks:
        totals = [a + coeff * v for a, v in zip(totals, _chain_plain(steps, es, cutoffs, tie))]
    if not coupled:
        return totals

    top = max(cutoffs)
    power = _power_table(top)
    tiles = tiles or kernel_tiles()
    for osp in weak_orders(cs):
        level_of = {v: l for l, lvl in enumerate(osp.levels) for v in lvl}
        groups: dict[tuple[int, int], list[Term]] = {}
        for coeff, cp in coupled:
            la, lb = level_of[cp.var_a], level_of[cp.var_b]
            if la == lb:
                if not cp.allow_tie:
                    raise InternalInvariantError(
                        f"singular coupling between tied variables {cp.var_a}, {cp.var_b}"
                    )
                continue
            terms = cp.below if la < lb else cp.above
            if terms:
                groups.setdefault((min(la, lb), max(la, lb)), []).extend(
                    t._replace(coeff=coeff * t.coeff) for t in terms
                )
        # Coupled chains take one power of each level's summed exponent.
        level_exps = [sum((es[idx[v]] for v in lvl), 0j) for lvl in osp.levels]
        for (p, q), terms in sorted(groups.items()):
            run = _chain_coupled(level_exps, top, p, q, terms, power, tiles)
            totals = [a + complex(run[:n].sum()) for a, n in zip(totals, cutoffs)]
    return totals


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
    refs = None
    if plan.refinements is not None:
        refs = [(n, at[n]) for n in plan.refinements]
    return EvalReport(value=value, cutoff=plan.cutoff, residual=abs(value - at[half]),
                      refinements=refs)


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

    def evalfn(ns: tuple[int, ...]) -> list[complex]:
        pieces = [(1.0, coupling(va, vb, harmonic_table(ns[-1])))]
        return _eval_system(cs, exps, pieces, ns)

    return _make_report(evalfn, plan)


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
    tilde = []
    for i in range(1, shape.d + 1):
        for j in range(1, shape.r[i - 1] + 1):
            tilde.append(
                (build_constraints_S_ij(shape, i, j), _tilde_pieces(s, i, j, "diff"))
            )
    cees = [build_constraints_S_i(shape, i) for i in range(1, shape.d + 1)]
    exps_t = _block_exponents(s, extra=0)
    exps_c = _block_exponents(s, extra=1)

    ns = tuple(sorted({plan.cutoff, *(plan.refinements or ())}))
    tiles = kernel_tiles()
    lhs = [0j] * len(ns)
    for cs, pieces in tilde:
        lhs = [a + v for a, v in zip(lhs, _eval_system(cs, exps_t, pieces, ns, tiles))]
    rhs = [0j] * len(ns)
    for cs in cees:
        rhs = [a + v for a, v in zip(rhs, _eval_system(cs, exps_c, [(1.0, None)], ns))]
    at = {n: (ln, rn) for n, ln, rn in zip(ns, lhs, rhs)}
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
