"""Couplings between two summation variables as separable cell terms, and
the Toeplitz products that sum them.

A coupling is a factor f(a, b) of the values of two variables of a chain.
Over the value pairs u < w of the two coupled levels, every coupling the
series use is a short sum of terms coeff * L(u) * R(w) * K(w - u), with
per-value factors L and R and a kernel K of the distance d = w - u only:

- the pole a^p / (b^q (b - a)) is K = 1/d with L = u^p and R = w^-q; with
  a above b the sign flips and L and R exchange;
- the harmonic ranges are K = 1 or K = H(d - 1), with at most one harmonic
  number as L or R.

So summing a row x over u < w is a product with the Toeplitz matrix
T[u, w] = K(w - u), and `toeplitz_rows` alone knows how each kernel is
summed: 1/d over fixed 256 x 256 tiles, K = 1 as the strict prefix sum of
the rows, and H(d - 1) = sum over u < t < w of 1/(t - u) as the strict
prefix sum of the 1/d product.

`cpow` computes complex powers v^e as exp(e log v) with the real log of a
positive integer; the sine/cosine are taken at |Im e| log v so that
conjugating the exponent conjugates the result exactly.  It is the direct
route and the oracle.  `series._pow_vec` takes the powers of values above
2^14 from binomial series around anchors every 16 values, with c^e for
each anchor c from cpow; its callers are the plain walks
(`series._chain_plain`), the coupled walks' power tables
(`series._coupled_sink`, past cutoff 2^14) and the double series
(`series.eval_mordell_tornheim`, whose vectors reach 2N, so past N = 8192).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .model import VarId

# Values are summed in tiles of this many rows and columns.
TILE = 256


def cpow(vals: np.ndarray, e: complex) -> np.ndarray:
    """vals**e for positive vals, conjugation-symmetric in e.

    Written in place into the result and one work buffer (the log, then the
    modulus): cos and sin of |Im e| log v fill the real and imaginary
    halves, and both are scaled by v**Re e."""
    e = complex(e)
    v = np.asarray(vals, dtype=np.float64)
    if e == 0:
        return np.ones_like(v)
    if e.imag == 0.0:
        return v**e.real
    out = np.empty(v.shape, dtype=np.complex128)
    re, im = out.real, out.imag
    buf = np.log(v)
    buf *= abs(e.imag)
    np.cos(buf, out=re)
    np.sin(buf, out=im)
    if e.imag < 0:
        np.subtract(0.0, im, out=im)  # not negative(): sin 0 stays +0
    np.power(v, e.real, out=buf)
    re *= buf
    im *= buf
    return out


def harmonic_table(n_max: int) -> np.ndarray:
    """H(0..n_max) as a lookup vector."""
    return np.concatenate(
        ([0.0], np.cumsum(1.0 / np.arange(1, n_max + 1, dtype=np.float64)))
    )


class Kernel(NamedTuple):
    """K(d) of the distance d = w - u, summed by `toeplitz_rows`; at_zero
    is K(0), taken on ties (None where the kernel is singular there)."""

    at_zero: Optional[float]


POLE = Kernel(None)  # 1/d
ONE = Kernel(1.0)
# H(d - 1): the harmonic range strictly between u and w.
GAP = Kernel(0.0)


class Term(NamedTuple):
    """Cell term coeff * L(u) * R(w) * K(w - u); L and R map value arrays
    to per-value factors (None is 1)."""

    coeff: complex
    left: Optional[Callable[[np.ndarray], np.ndarray]]
    right: Optional[Callable[[np.ndarray], np.ndarray]]
    kernel: Kernel


class Coupling(NamedTuple):
    """A factor tying the values of two variables.  `below` holds its cell
    terms where var_a takes the smaller value u and var_b the larger w;
    `above` where var_b takes u and var_a takes w.  On a tie the factor is
    `below` at distance 0, and a kernel singular there refuses ties."""

    var_a: VarId
    var_b: VarId
    below: tuple[Term, ...]
    above: tuple[Term, ...]

    @property
    def allow_tie(self) -> bool:
        return all(t.kernel.at_zero is not None for t in self.below)

    def tie(self, x: np.ndarray):
        """The factor at a = b = x."""
        total = 0.0
        for t in self.below:
            f = t.coeff * t.kernel.at_zero
            for side in (t.left, t.right):
                if side is not None:
                    f = f * side(x)
            total = total + f
        return total


def mul(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """a * b, where None is the factor 1."""
    return b if a is None else a if b is None else a * b


# ---------------------------------------------------------------------------
# The couplings of the series
# ---------------------------------------------------------------------------


def pole_coupling(num_var: VarId, den_var: VarId, num_exp: complex,
                  den_exp: complex) -> Coupling:
    """The factor a^num_exp / (b^den_exp (b - a)) on a = num_var,
    b = den_var.  Singular on ties."""
    num, den = partial(cpow, e=num_exp), partial(cpow, e=-complex(den_exp))
    return Coupling(num_var, den_var, (Term(1.0, num, den, POLE),),
                    (Term(-1.0, den, num, POLE),))


# Harmonic-range couplings of a = va and b = vb.


def _harmonic_value(shift: int) -> Callable:
    """v -> H(v - shift), from the harmonic table up to the largest v."""
    return lambda v: harmonic_table(int(v.max()))[v.astype(np.int64) - shift]


def harmonic_gap(va: VarId, vb: VarId) -> Coupling:
    """H(b - a - 1), and 0 when a >= b - 1: H(d - 1) below, 0 above."""
    return Coupling(va, vb, (Term(1.0, None, None, GAP),), ())


def harmonic_wrap_1(va: VarId, vb: VarId) -> Coupling:
    """H(max(b, a - 1)) - H(max(a - b - 1, 0)): H(w) below,
    H(w - 1) - H(d - 1) above."""
    return Coupling(va, vb, (Term(1.0, None, _harmonic_value(0), ONE),),
                    (Term(1.0, None, _harmonic_value(1), ONE),
                     Term(-1.0, None, None, GAP)))


def harmonic_wrap_2(va: VarId, vb: VarId) -> Coupling:
    """H(a - 1) - H(max(a - b - 1, 0)): H(u - 1) below,
    H(w - 1) - H(d - 1) above."""
    return Coupling(va, vb, (Term(1.0, _harmonic_value(1), None, ONE),),
                    (Term(1.0, None, _harmonic_value(1), ONE),
                     Term(-1.0, None, None, GAP)))


# ---------------------------------------------------------------------------
# Toeplitz products
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _pole_tiles(nb: int) -> np.ndarray:
    """The nb tiles of the Toeplitz matrix T[i, c] = 1/(c - i) for c > i
    (0 otherwise), read-only: tile k holds T[a, 256 k + b] for a, b < 256,
    which is also the block (I, I + k) for every row tile I.  Tile k does
    not depend on nb, and one stack (512 KiB per tile) is kept between
    calls, as every product of one evaluation has the same nb."""
    size = nb * TILE
    # kv[d + 255] = 1/d for d in -255..size-1, zero for d <= 0
    kv = np.zeros(size + TILE - 1)
    kv[TILE:] = 1.0 / np.arange(1, size, dtype=np.float64)
    win = np.lib.stride_tricks.sliding_window_view(kv, TILE)
    start = TILE * np.arange(nb)[:, None] + (TILE - 1) - np.arange(TILE)
    t = win[start]
    t.flags.writeable = False
    return t


def _shift_prefix(c: np.ndarray) -> np.ndarray:
    """Strict prefix sums of c along its last axis, in value order."""
    out = np.empty_like(c)
    out[..., 0] = 0
    np.cumsum(c[..., :-1], axis=-1, out=out[..., 1:])
    return out


def toeplitz_rows(rows: list[np.ndarray], kernel: Kernel) -> np.ndarray:
    """y_i(w) = sum over u < w of x_i(u) K(w - u) for complex rows x_i over
    the values 1..n.

    K = 1 is the strict prefix sum of the rows, and K = H(d - 1) the
    strict prefix sum of the 1/d product.  For 1/d the real and imaginary
    parts are rows of one real matrix, zero past n up to whole tiles, and
    go through fixed (rows x 256) @ (256 x 256) tile products in row-tile
    order.  Every product has the same shape at any n and values past n
    only meet zeros left of the diagonal, and prefix sums run in value
    order, so the first m columns are bit-identical to a call on the rows
    cut at m.  Negating an input part negates its output part exactly.
    """
    if kernel == ONE:
        return _shift_prefix(np.array(rows, dtype=complex))
    r, n = len(rows), len(rows[0])
    nb = -(-n // TILE)
    flat = np.zeros((2 * r, nb * TILE))
    for i, x in enumerate(rows):
        flat[i, :n] = x.real
        flat[r + i, :n] = x.imag
    xs = np.ascontiguousarray(flat.reshape(2 * r, nb, TILE).transpose(1, 0, 2))
    tk = _pole_tiles(nb)
    out = np.empty_like(xs)
    for J in range(nb):
        acc = xs[0] @ tk[J]
        for I in range(1, J + 1):
            acc += xs[I] @ tk[J - I]
        out[J] = acc
    ys = out.transpose(1, 0, 2).reshape(2 * r, nb * TILE)[:, :n]
    y = np.empty((r, n), dtype=complex)
    y.real, y.imag = ys[:r], ys[r:]
    return y if kernel == POLE else _shift_prefix(y)
