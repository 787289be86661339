"""A 40-digit oracle for multiple zeta values, shared by the tests.

The iterated integral of zeta over 1 > t_1 > ... > t_n > 0, split at 1/2
(the Hoelder convolution with p = 2; Borwein, Bradley, Broadhurst and
Lisonek, Special values of multiple polylogarithms, Trans. AMS 353, 2001):
zeta(w) = sum_k L(rev_swap(w[:k])) L(w[k:]), with L(u) the multiple
polylogarithm of the word u at 1/2, each series converging like 2^-n.
Values are fixed-point integers with MZV_BITS fraction bits.
"""

import functools

MZV_BITS = 160  # fraction bits of the fixed-point values
MZV_TERMS = 180  # terms per series: the tail is below 2^-180 times a polylog factor


@functools.lru_cache(maxsize=None)
def polylog_half(word: tuple[int, ...]) -> int:
    """2^MZV_BITS times the iterated integral from 0 to 1/2 of the word,
    letters outermost first (0: dt/t, 1: dt/(1 - t)), empty or ending in 1:
    for x0^(r_1 - 1) x1 ... x0^(r_l - 1) x1 that is the sum over
    n_1 > ... > n_l >= 1 of 2^-n_1 / (n_1^r_1 ... n_l^r_l), cut at
    n_1 <= MZV_TERMS.  Each step floors, so the error is a few thousand
    units of 2^-MZV_BITS at most."""
    rs, run = [], 1
    for letter in word:
        if letter:
            rs.append(run)
            run = 1
        else:
            run += 1
    one = 1 << MZV_BITS
    if not rs:
        return one
    below = [one] * (MZV_TERMS + 1)  # the sum over the inner variables below n
    for r in reversed(rs[1:]):
        acc, nxt = 0, [0] * (MZV_TERMS + 1)
        for n in range(1, MZV_TERMS + 1):
            nxt[n] = acc
            acc += below[n] // n**r
        below = nxt
    return sum(below[n] // n ** rs[0] >> n for n in range(1, MZV_TERMS + 1))


@functools.lru_cache(maxsize=None)
def mzv_fixed(parts: tuple[int, ...]) -> int:
    """2^MZV_BITS times the symbol z(parts), smallest variable first (so the
    last part, on the largest variable, is >= 2)."""
    word = tuple(letter for p in reversed(parts) for letter in (0,) * (p - 1) + (1,))
    return sum(polylog_half(tuple(1 - a for a in reversed(word[:k]))) * polylog_half(word[k:])
               for k in range(len(word) + 1)) >> MZV_BITS
