"""Thermal bit-string sources and the initial/terminal permutations.

Bits are 0 with probability (1+eps)/2.  Two distribution models:

* ``binomial`` -- independent identically biased bits;
* ``markov``   -- a stationary two-state chain whose +/-1 spin encoding has
  Pearson autocorrelation rho**d at lag d, with rho = (1/10)**(1/ell), so
  the correlation at the declared distance ell equals the threshold 1/10.
  Realized as copy-with-probability-rho / refresh: each refresh starts a
  run that repeats its fresh value, filled 64 cells per uint64 word.

All randomness is owned by the caller through explicit seeds; samplers are
pure functions of (model, n, seed).

The draw.  A cell drawn at probability p is 1 iff K < P, where K is a
uniform 53-bit integer and P = ceil(p * 2^53): exactly the law of
``rng.random() < p``, whose double is K / 2^53, so P(one) = P / 2^53.  K is
never formed.  Its bits are read from the top down, for 64 cells at once in
a uint64 word, and a cell settles at the first bit where K and P differ: to
1 if that bit of P is 1, to 0 if it is 0.  So each random word settles
about half of the cells still open.  The words come from the PCG64
stream's ``random_raw``, and this schedule fixes which word goes where, so
it defines the output bytes:

* The n cells are drawn in blocks of ``_BLOCK`` = 2^20 (the last block
  holds the rest), one block after another.  Cell c of a block is bit
  c % 64 of the block's word c // 64.  The last word's lanes past the
  block are drawn like the others and then dropped.
* P = 0 makes every cell 0 and P = 2^53 every cell 1; neither draws a word.
* Otherwise step s = 1, 2, ... reads bit 53 - s of P, from bit 52 down to
  P's lowest 1.  At each step every active word takes one ``random_raw``
  word, in increasing word order, and bit j of it is the next bit of K for
  lane j.  At first every word of the block is active.  After steps 8, 12,
  16, ... the active words are cut to those with a lane still open, and
  the block ends once none is left.
* Lanes still open after the last step read 0: K and P agree down to P's
  lowest 1, and P's remaining bits are all zero, so K >= P.

So a dyadic p = a / 2^b ends after at most b steps; the benchmark's p =
0.375 takes 3.  A p with a long binary expansion takes about 9 words per 64
cells.  At n = 10^7 on a 2-vCPU Xeon the draw took 2.6 ms at p = 0.375
and 9.8 ms at p = 0.3712345678; one double per cell took 38-41 ms in the
same run.

Every draw runs this schedule through one loop, ``_blocks``, which yields
each block's words as it draws them.  ``sample`` joins them and unpacks
the sample whole, one uint8 per cell.  The direct pipeline takes a
binomial sample's blocks as they are drawn and never unpacks them
(``cooling.PackedBits``): its first pairing round reads each block's
words 16 cells at a time, so the n bits are never held, packed or not.
A markov sample draws the copy coins of all n cells, then their fresh
values, and fills the runs from the two word arrays (``_fill_words``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "BiasModel",
    "sample",
    "stride_shuffle_perm",
    "stride_spread",
    "stride_inversions",
]


@dataclass(frozen=True)
class BiasModel:
    """Initial thermal distribution: kind 'binomial' or 'markov'."""

    kind: str
    epsilon: float
    ell: int | None = None

    def __post_init__(self):
        if self.kind not in ("binomial", "markov"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.kind == "markov":
            if self.ell is None or self.ell < 1:
                raise ValueError("markov model needs a correlation distance ell >= 1")

    @property
    def p_one(self):
        return (1.0 - self.epsilon) / 2.0

    @property
    def rho(self):
        """Lag-1 spin autocorrelation of the markov model."""
        if self.kind != "markov":
            return 0.0
        return 0.1 ** (1.0 / self.ell)


# cells per draw block; a block's working words (128 KiB each) stay in cache
_BLOCK = 1 << 20
_ALL = np.uint64(2**64 - 1)


def _threshold(p):
    """P = ceil(p * 2^53): a cell with uniform 53-bit K is 1 iff K < P."""
    return math.ceil(p * 2**53)


def _draw(raw, P, words):
    """Fill ``words``, the words of one block, with cells that are 1 iff
    K < P, reading K's bits from ``raw(m)``, m random uint64 words per call;
    the schedule is the module docstring's."""
    if not P or P >> 53:
        words.fill(_ALL if P else 0)
        return
    words.fill(0)
    ones, lanes, active = words, np.full(len(words), _ALL), None
    low = (P & -P).bit_length() - 1  # past P's lowest one, K >= P
    for step, i in enumerate(range(52, low - 1, -1), 1):
        r = raw(len(lanes))
        if P >> i & 1:
            r &= lanes  # drew 1: still open
            lanes ^= r  # drew 0: K < P, settled to one
            ones |= lanes
            lanes = r
        else:
            np.invert(r, out=r)
            lanes &= r  # drew 1: K > P, settled to zero
        if step >= 8 and step % 4 == 0:  # keep the words with a lane open
            keep = lanes != 0
            if active is None:
                active = np.flatnonzero(keep)
            else:
                words[active] = ones
                active = active[keep]
            ones, lanes = ones[keep], lanes[keep]
            if not len(lanes):
                break
    if active is not None:
        words[active] = ones


def _blocks(rng, n, p):
    """The n cells drawn at p (``_draw``), block after block: each block's
    words, a fresh array, with its cell count."""
    raw, P = rng.bit_generator.random_raw, _threshold(p)
    for lo in range(0, n, _BLOCK):
        m = min(_BLOCK, n - lo)
        words = np.empty(-(-m // 64), np.uint64)
        _draw(raw, P, words)
        yield words, m


def _draw_words(rng, n, p):
    """n cells drawn at p, 64 to a word: the words of every block in turn."""
    return np.concatenate([words for words, _ in _blocks(rng, n, p)])


def _cells(words, n):
    """The first n cells of ``words``, unsigned words of b bits, as 0/1
    uint8, cell c bit c % b of word c // b."""
    words = words.astype(words.dtype.newbyteorder("<"), copy=False)
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


def sample(model, n, seed):
    """Draw n bits; deterministic for fixed (model, n, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if model.kind == "binomial":
        return _cells(_draw_words(rng, n, model.p_one), n)
    # markov: X_t copies X_{t-1} with prob rho, else refreshes from the
    # stationary marginal; draw order is the copy coins first, then values.
    # Each refresh starts a run that repeats its fresh value.
    copy = _draw_words(rng, n, model.rho)
    fresh = _draw_words(rng, n, model.p_one)
    copy[0] &= ~np.uint64(1)
    return _cells(_fill_words(copy, fresh), n)


def _fill_words(u, fresh):
    """The markov runs, 64 cells per uint64 word: out[t] = fresh[t] where
    copy[t] is 0 (a start), else out[t - 1], with u the copy words (cell 0
    must be a start) and ``fresh`` the fresh words (overwritten).  The cost
    grows with n but not with the number of runs.

    In a word, with U the copy bits, S = ~U the starts and V = S & fresh
    the starts of value 1, a cell is 1 iff it is in V or it is a copy
    behind a 1-start: x = V | ((U + (V << 1)) ^ U) & U.  The carry that
    ``V << 1`` puts on the cell after a 1-start runs up through the ones
    of U, the copies, and stops at the first zero of U, which is the next
    start; a 0-start adds no carry, so the copies behind it stay 0.  A
    carry out of bit 63 is dropped.  Across words, a word's leading
    copies, (S & -S) - 1 (all ones when the word has no start), take the
    value of the last cell, bit 63, of the nearest earlier word that has a
    start.  The arithmetic runs in place: at 3^15 cells a fresh array per
    step measured 10-25% slower.
    """
    s = ~u
    v = fresh
    v &= s
    x = v << 1
    x += u
    x ^= u
    x &= u
    x |= v
    # the nearest word at or before each one that has a start (word 0 has
    # one, cell 0 being a start), and its bit 63 spread over a word
    last = np.arange(len(x))
    last *= s != 0
    np.maximum.accumulate(last, out=last)
    carry = (x.view(np.int64)[last[:-1]] >> 63).view(np.uint64)
    lead = np.negative(s)
    lead &= s
    lead -= 1
    carry &= lead[1:]
    x[1:] |= carry
    return x


def _icbrt(x):
    """Largest integer r with r**3 <= x, exact for any non-negative int."""
    x = int(x)
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // 3)  # above the root
    while True:
        s = (2 * r + x // (r * r)) // 3
        if s >= r:
            return r
        r = s


def _cube_root(n):
    m = _icbrt(n)
    if m < 1 or m**3 != n:
        raise ValueError(f"n={n} is not a perfect cube")
    return m


def stride_shuffle_perm(n):
    """Deterministic spreading permutation for locally correlated sources.

    Index r*m + s (0 <= s < m, m = n**(1/3)) goes to ((r+s) mod m^2)*m + s,
    so indices that start within distance < m of each other never land in
    the same m-sized block.
    """
    m = _cube_root(n)
    idx = np.arange(n)
    r, s = idx // m, idx % m
    return ((r + s) % (m * m)) * m + s


def stride_spread(bits):
    """``perms.apply_to(bits, stride_shuffle_perm(len(bits)))`` as a fresh
    array, without building the destination map.

    On the m^2 x m grid, out[R, s] = bits[(R - s) mod m^2, s]: cell (R, s)
    sits at R*m - s*(m-1) counted from the second of two back-to-back
    copies, so one strided read with row stride m and column stride -(m-1)
    takes every column's rotation at once.
    """
    bits = np.asarray(bits)
    n = len(bits)
    m = _cube_root(n)
    both = np.concatenate([bits, bits])
    step = both.itemsize
    return as_strided(both[n:], shape=(m * m, m), strides=(m * step, -(m - 1) * step)).ravel()


def stride_inversions(n):
    """Exact inversion count of ``stride_shuffle_perm(n)``, in closed form.

    Read index r*m + s as cell (r, s) of an M x m grid (M = m^2), row-major.
    The permutation rotates column s down by s, so column a holds a*(M-a)
    inversions, and columns a < b, d = b - a, hold
    M(M+1) - (M-b)(M-b+1) - d(d+1) - a(a+1) between them.  Summed over all
    columns and column pairs this is m^2 (m-1) (8m^2 - 3m + 1) / 12.
    """
    m = _cube_root(n)
    return m * m * (m - 1) * (8 * m * m - 3 * m + 1) // 12

