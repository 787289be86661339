"""Truncated evaluation of the complex-argument series attached to a shape.

Every sum here is a box truncation: each summation variable runs over
1..N.  Generic constrained sums are split into the weak orders of their
constraint system (the same split the exact decomposer uses) and each
totally ordered chain is evaluated by prefix cumulative sums.  A term may
couple two variables, either through the pole factor
a^p / (b^q (b - a)) or through a harmonic-range factor.  Every coupling is
a short sum of separable cell terms coeff * L(u) * R(w) * K(w - u) over
value pairs u < w, with K a Toeplitz kernel (1/d, 1 or H(d - 1); see
couplings.py), and the plain levels between the coupled pair split into
separable prefix sums by Chen's identity.  So a coupled chain is a few real
Toeplitz tile products of fixed shape, (rows x 256) @ (256 x 256), taken
in a fixed order: no transcendental or complex division per cell, and
bit-reproducible results.  The double series sum m^-a n^-b (m + n)^-c is
one convolution per cutoff, taken with real transforms of the real and
imaginary parts.

A box truncation at n keeps exactly the terms whose largest value is at
most n, so every evaluator makes one pass at its largest cutoff and reads
the value at each smaller cutoff (the refinements and N/2) off that pass;
each of those values is bit-identical to a separate evaluation at that
cutoff.  Plain chains (no coupling, or a coupling between tied variables)
are streamed over fixed value segments: each segment has one table of
single-exponent powers, shared by every chain of every weak order, and a
level of tied variables is the product of its members' powers.  Chains
that share their bottom levels (neighbouring weak orders do) share those
levels' prefix sums, and each prefix carries its sums from one segment to
the next, so their memory does not grow with N.  The coupled chains keep
one power of each level's summed exponent.

The harmonic-form evaluators sum the extra variable analytically into a
harmonic-range factor and truncate only the outer variables, so at finite
N they differ from the direct path; the two agree in the limit.

Complex powers n^(-s) are computed as exp(-s log n) with the real log of a
positive integer; the sine/cosine are taken at |Im s| log n so that
conjugating every argument conjugates the result exactly.  Products of
powers are taken in variable order, never in an order of their values,
which conjugation could change, so they stay exact under conjugation too.
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
from .decompose import weak_orders
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
    in_domain_EZ_absolute,
    in_domain_W,
    w_inequalities,
)

COUPLED_CUTOFF_CAP = 5000
CHAIN_CUTOFF_CAP = 20_000_000
# The double series is O(N log N) per cutoff, but its peak memory grows by
# about 180 bytes per N (210 MiB at 1e6).
MT_CUTOFF_CAP = 1_000_000
# Plain chains are streamed over segments of this many values.
_SEGMENT = 1 << 16


# ---------------------------------------------------------------------------
# Term and plan types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleSpec:
    """Factor num^{num_exp} / (den^{den_exp} * (den - num)) joining two
    strictly separated variables."""

    num_var: VarId
    den_var: VarId
    num_exp: complex
    den_exp: complex

    def __post_init__(self):
        if self.num_var == self.den_var:
            raise ValueError("pole needs two distinct variables")


@dataclass(frozen=True)
class TermSpec:
    """Summand: product of v^{-e(v)} over the exponent map, times the
    optional pole factor."""

    exponents: Mapping[VarId, complex]
    pole: PoleSpec | None = None


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
# Powers and harmonic numbers
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


def harmonic_number(k: int) -> float:
    """H(k) = 1 + 1/2 + ... + 1/k, with H(0) = 0."""
    if k < 0:
        raise ValueError("harmonic index must be >= 0")
    return float(np.sum(1.0 / np.arange(1, k + 1))) if k else 0.0


def harmonic_range(a: int, b: int) -> float:
    """Sum of 1/k for a <= k <= b (0 for an empty range)."""
    if b < a:
        return 0.0
    return harmonic_number(b) - harmonic_number(a - 1)


# ---------------------------------------------------------------------------
# Chain evaluation
# ---------------------------------------------------------------------------


def _shift_prefix(c: np.ndarray) -> np.ndarray:
    out = np.empty_like(c)
    out[0] = 0
    np.cumsum(c[:-1], out=out[1:])
    return out


# A plain chain: its levels, bottom to top, each the exponents of its
# members (a tied level is their product), and an optional extra per-value
# factor (level, fn) applied as fn(x) on that level.
_Plain = tuple[Sequence[Sequence[complex]], Optional[tuple[int, Callable]]]


def _chain_plain(chains: Sequence[_Plain],
                 cutoffs: Sequence[int]) -> list[list[complex]]:
    """For every chain and every cutoff n, the sum over
    1 <= x_1 < ... < x_t <= n of prod_l prod_{e in E_l} x_l^(-e), from one
    pass at the largest cutoff streamed over value segments.

    Each segment has one table of single-exponent powers shared by all
    chains.  A level's vector is the product of its members' vectors, taken
    in the given member order (an empty level is the ones vector), so a
    tied level costs one complex multiply per extra member and conjugation
    stays exact.

    The run of a chain prefix (levels 0..l, with the extra factor if it
    sits at or below l) depends on that prefix alone, so chains that share
    a prefix share its work.  The chains are walked in the given order with
    a stack of (prefix, its prefix sums); a chain keeps the stack up to its
    first differing level, which for weak orders in depth-first order is
    most of it, and the prefix sums of each depth reuse one buffer.  Each
    prefix carries the sum of its run over all smaller values; it seeds the
    segment's cumsum, so every prefix sum has the bits of one sequential
    sum.  Carries are read from the previous segment's dict and written to
    a fresh one, so a prefix that leaves the stack and is met again in the
    same segment does not advance twice.  The value at n adds, segment by
    segment, the sum of the top level's run up to n.
    """
    top = max(cutoffs, default=0)
    # Number the distinct prefixes: chains with equal ids have equal runs.
    ids: dict[tuple, int] = {}
    paths = []
    for levels, weight in chains:
        pid, path = None, []
        for l, members in enumerate(levels):
            fn = weight[1] if weight is not None and weight[0] == l else None
            pid = ids.setdefault((pid, tuple(members), fn), len(ids))
            path.append(pid)
        paths.append(path)
    carries: dict[int, complex] = {}
    # One prefix-sum buffer per stack depth and dtype, reused every segment.
    bufs: dict[tuple[int, np.dtype], np.ndarray] = {}
    totals = [[0j] * len(cutoffs) for _ in chains]
    for s0 in range(0, top, _SEGMENT):
        s1 = min(s0 + _SEGMENT, top)
        power = _power_table(s1, s0)
        x = np.arange(s0 + 1, s1 + 1, dtype=np.float64)
        fresh: dict[int, complex] = {}
        stack: list[tuple[int, np.ndarray]] = []  # (prefix id, its prefix sums)
        for (levels, weight), path, total in zip(chains, paths, totals):
            d = 0
            while d < min(len(stack), len(path) - 1) and stack[d][0] == path[d]:
                d += 1
            del stack[d:]
            for l in range(d, len(levels)):
                members = levels[l]
                run = power(members[0] if members else 0)
                for e in members[1:]:
                    run = run * power(e)
                if weight is not None and weight[0] == l:
                    run = run * weight[1](x)
                if stack:
                    run = run * stack[-1][1]
                if l < len(levels) - 1:
                    key = (l, run.dtype)
                    if key not in bufs:
                        bufs[key] = np.empty(min(top, _SEGMENT) + 1, run.dtype)
                    pre = bufs[key][:s1 - s0 + 1]
                    pre[0] = carries.get(path[l], 0)
                    pre[1:] = run
                    np.cumsum(pre, out=pre)
                    fresh[path[l]] = pre[-1]
                    stack.append((path[l], pre[:-1]))
            part: dict[int, complex] = {}
            for k, n in enumerate(cutoffs):
                if n > s0:
                    m = min(n, s1) - s0
                    if m not in part:
                        part[m] = complex(run[:m].sum())
                    total[k] += part[m]
        carries = fresh
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


def _split_order(osp, exps: Mapping[VarId, complex], pieces):
    """One weak order's summand: its levels (each the tuple of its members'
    nonzero exponents, in variable order), the coefficient of the uncoupled
    chain, the tied couplings (coeff, level, fn) and the cell terms between
    levels p < q grouped by (p, q)."""
    levels = osp.levels
    level_of = {v: l for l, lvl in enumerate(levels) for v in lvl}
    members = [tuple(complex(exps[v]) for v in lvl if exps.get(v, 0) != 0)
               for lvl in levels]

    plain_coeff = 0j
    diag: list[tuple[complex, int, Callable]] = []
    groups: dict[tuple[int, int], list[Term]] = {}
    for coeff, cp in pieces:
        if cp is None:
            plain_coeff += coeff
            continue
        la, lb = level_of[cp.var_a], level_of[cp.var_b]
        if la == lb:
            if not cp.allow_tie:
                raise InternalInvariantError(
                    f"singular coupling between tied variables {cp.var_a}, {cp.var_b}"
                )
            diag.append((coeff, la, cp.tie))
            continue
        terms = cp.below if la < lb else cp.above
        if terms:
            groups.setdefault((min(la, lb), max(la, lb)), []).extend(
                t._replace(coeff=coeff * t.coeff) for t in terms
            )
    return members, plain_coeff, diag, sorted(groups.items())


def _eval_system(cs: ConstraintSystem, exps, pieces, cutoffs: Sequence[int],
                 tiles: Callable[[Kernel, int], np.ndarray] | None = None
                 ) -> list[complex]:
    """The constrained sum at every cutoff (all >= 1): the plain chains of
    every weak order share one streamed pass, each coupled chain is
    evaluated once at the largest cutoff.  tiles may be shared by systems
    evaluated at the same cutoffs."""
    orders = [_split_order(osp, exps, pieces) for osp in weak_orders(cs)]
    chains: list[_Plain] = []
    for levels, plain_coeff, diag, _ in orders:
        if plain_coeff != 0:
            chains.append((levels, None))
        chains.extend((levels, (l, fn)) for _, l, fn in diag)
    plain = iter(_chain_plain(chains, cutoffs))
    top = max(cutoffs)
    power = _power_table(top)
    tiles = tiles or kernel_tiles()

    totals = [0j] * len(cutoffs)
    for levels, plain_coeff, diag, groups in orders:
        order = [0j] * len(cutoffs)
        if plain_coeff != 0:
            order = [a + plain_coeff * v for a, v in zip(order, next(plain))]
        for coeff, _, _ in diag:
            order = [a + coeff * v for a, v in zip(order, next(plain))]
        # Coupled chains take one power of each level's summed exponent.
        level_exps = [sum(lvl, 0j) for lvl in levels]
        for (p, q), terms in groups:
            run = _chain_coupled(level_exps, top, p, q, terms, power, tiles)
            order = [a + complex(run[:n].sum()) for a, n in zip(order, cutoffs)]
        totals = [a + v for a, v in zip(totals, order)]
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
# Generic constrained sums
# ---------------------------------------------------------------------------


def _pole_pieces(term: TermSpec):
    if term.pole is None:
        return [(1.0, None)]
    pole = term.pole
    return [(1.0, pole_coupling(pole.num_var, pole.den_var,
                                 pole.num_exp, pole.den_exp))]


def eval_constrained_sum(cs: ConstraintSystem, term: TermSpec, plan,
                         *, max_cutoff: int | None = None) -> EvalReport:
    """Box-truncated sum of the term over the lattice points of cs."""
    plan = _as_plan(plan)
    varset = set(cs.variables)
    for v in term.exponents:
        if v not in varset:
            raise ValueError(f"term variable {v} not in the constraint system")
    if term.pole is not None:
        for v in (term.pole.num_var, term.pole.den_var):
            if v not in varset:
                raise ValueError(f"pole variable {v} not in the constraint system")
    _check_budget(plan, CHAIN_CUTOFF_CAP if term.pole is None else COUPLED_CUTOFF_CAP,
                  max_cutoff)
    pieces = _pole_pieces(term)
    return _make_report(lambda ns: _eval_system(cs, term.exponents, pieces, ns), plan)


# ---------------------------------------------------------------------------
# Named series of the block model
# ---------------------------------------------------------------------------


def _require_w(s: ComplexArgs, enforce: bool):
    if in_domain_W(s):
        return
    bad = next(q for q in w_inequalities(s) if not q.ok)
    msg = f"arguments outside W: {bad.describe()}"
    if enforce:
        raise DomainError(msg)
    warnings.warn(msg, stacklevel=3)


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
                    *, enforce_domain: bool = True,
                    max_cutoff: int | None = None) -> EvalReport:
    """Direct box-truncated evaluation of the split series at position (i, j).

    variant 1 and 2 are the two halves; 'diff' is their termwise difference
    over the same index domain.
    """
    plan = _as_plan(plan)
    shape = s.shape
    if not (1 <= i <= shape.d and 1 <= j <= shape.r[i - 1]):
        raise ValueError(f"position ({i},{j}) out of range for shape {shape}")
    _require_w(s, enforce_domain)
    _check_budget(plan, COUPLED_CUTOFF_CAP, max_cutoff)
    cs = build_constraints_S_ij(shape, i, j)
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
                             *, enforce_domain: bool = True,
                             max_cutoff: int | None = None) -> EvalReport:
    """Closed-form path: the extra variable is summed analytically into a
    harmonic-range factor; only the outer chain is truncated at N."""
    plan = _as_plan(plan)
    shape = s.shape
    if not (1 <= i <= shape.d and 1 <= j <= shape.r[i - 1]):
        raise ValueError(f"position ({i},{j}) out of range for shape {shape}")
    _require_w(s, enforce_domain)
    _check_budget(plan, COUPLED_CUTOFF_CAP, max_cutoff)
    cs, va, vb, coupling = _tilde_harmonic_setup(s, i, j, variant)
    exps = _block_exponents(s)

    def evalfn(ns: tuple[int, ...]) -> list[complex]:
        pieces = [(1.0, coupling(va, vb, harmonic_table(ns[-1])))]
        return _eval_system(cs, exps, pieces, ns)

    return _make_report(evalfn, plan)


def eval_zeta_C_i(s: ComplexArgs, i: int, plan, *, enforce_domain: bool = True,
                  max_cutoff: int | None = None) -> EvalReport:
    """Truncated window series over S_i (extra variable with exponent 1)."""
    plan = _as_plan(plan)
    if not (1 <= i <= s.shape.d):
        raise ValueError(f"block {i} out of range for shape {s.shape}")
    _require_w(s, enforce_domain)
    _check_budget(plan, CHAIN_CUTOFF_CAP, max_cutoff)
    cs = build_constraints_S_i(s.shape, i)
    exps = _block_exponents(s, extra=1)
    return _make_report(lambda ns: _eval_system(cs, exps, [(1.0, None)], ns), plan)


def eval_zeta_C(s: ComplexArgs, plan, *, enforce_domain: bool = True,
                max_cutoff: int | None = None) -> EvalReport:
    """Truncated series over the cyclic domain S (block variables only)."""
    plan = _as_plan(plan)
    _require_w(s, enforce_domain)
    _check_budget(plan, CHAIN_CUTOFF_CAP, max_cutoff)
    cs = build_constraints_S(s.shape)
    exps = _block_exponents(s)
    return _make_report(lambda ns: _eval_system(cs, exps, [(1.0, None)], ns), plan)


def eval_theorem_residual(s: ComplexArgs, plan, *, enforce_domain: bool = True,
                          max_cutoff: int | None = None) -> TheoremReport:
    """Both sides of the main identity at matched box truncations.

    lhs sums the termwise differences over every position; rhs sums the
    window series over every block.
    """
    plan = _as_plan(plan)
    shape = s.shape
    _require_w(s, enforce_domain)
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


def eval_mzf(s: Sequence[complex], plan, *, enforce_domain: bool = True,
             max_cutoff: int | None = None) -> EvalReport:
    """Truncated nested series on a strict chain, via prefix-sum recursion."""
    vals = [complex(v) for v in s]
    if not vals:
        raise ValueError("empty argument list")
    plan = _as_plan(plan)
    if not in_domain_EZ_absolute(vals):
        bad = next(q for q in ez_inequalities(vals) if not q.ok)
        msg = f"arguments outside the absolute-convergence domain: {bad.describe()}"
        if enforce_domain:
            raise DomainError(msg)
        warnings.warn(msg, stacklevel=2)
    _check_budget(plan, CHAIN_CUTOFF_CAP, max_cutoff)
    chain = ([(v,) for v in vals], None)
    return _make_report(lambda ns: _chain_plain([chain], ns)[0], plan)


def mzv_partial_sum(parts: Sequence[int], n_max: int) -> float:
    """Box-truncated value of an admissible integer symbol."""
    return _mzv_partial_cached(tuple(int(p) for p in parts), int(n_max))


@lru_cache(maxsize=4096)
def _mzv_partial_cached(parts: tuple[int, ...], n_max: int) -> float:
    return _chain_plain([([(complex(p),) for p in parts], None)], (n_max,))[0][0].real


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
    chains = [([(s1,)], None), ([(s2,)], None), ([(s1,), (s2,)], None),
              ([(s2,), (s1,)], None), ([(s1, s2)], None)]
    z1, z2, z12, z21, zd = (v[0] for v in _chain_plain(chains, (n_max,)))
    return abs(z1 * z2 - z12 - z21 - zd)
