"""Thermal bit-string sources and the initial/terminal permutations.

Bits are 0 with probability (1+eps)/2.  Two distribution models:

* ``binomial`` -- independent identically biased bits;
* ``markov``   -- a stationary two-state chain whose +/-1 spin encoding has
  Pearson autocorrelation rho**d at lag d, with rho = (1/10)**(1/ell), so
  the correlation at the declared distance ell equals the threshold 1/10.
  Realized as copy-with-probability-rho / refresh: each refresh starts a
  run that repeats its fresh value, filled 64 cells per uint64 word.

All randomness is owned by the caller through explicit seeds; samplers are
pure functions of (model, n, seed).  One draw loop serves both ways of
taking a binomial sample: ``sample`` returns it whole, and
``sample_pieces`` hands it over piece by piece from the same PCG64 stream,
one 64-bit word per bit, so a consumer that reads each piece at once (the
direct pipeline's first pairing round) never holds the n bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "BiasModel",
    "sample",
    "sample_pieces",
    "stride_shuffle_perm",
    "stride_spread",
    "stride_inversions",
    "uniform_random_perm",
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


# doubles drawn per step of ``_pieces``: a 128 KiB buffer that stays in cache
_CHUNK = 1 << 14


def _pieces(rng, n, p, size):
    """``(rng.random(n) < p)`` as uint8, yielded in consecutive pieces of
    ``size`` flags (the last may be short), each a view of one buffer that
    the next piece overwrites.  Every piece is drawn ``_CHUNK`` doubles at a
    time.

    PCG64 spends one 64-bit word per double however the draw is split, so
    the flags and the generator state afterwards match the one-shot draw,
    without its n-element float array.
    """
    piece = np.empty(min(n, size), dtype=np.uint8)
    flags = piece.view(bool)
    buf = np.empty(min(n, size, _CHUNK))
    for lo in range(0, n, size):
        m = min(size, n - lo)
        for start in range(0, m, _CHUNK):
            chunk = buf[: m - start]
            rng.random(out=chunk)
            np.less(chunk, p, out=flags[start : start + len(chunk)])
        yield piece[:m]


def _below(rng, n, p):
    """``(rng.random(n) < p)`` as uint8: the draw of ``_pieces`` in one piece."""
    return next(_pieces(rng, n, p, n))


def sample(model, n, seed):
    """Draw n bits; deterministic for fixed (model, n, seed).  A binomial
    sample can also be drawn piece by piece (``sample_pieces``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if model.kind == "binomial":
        return _below(rng, n, model.p_one)
    # markov: X_t copies X_{t-1} with prob rho, else refreshes from the
    # stationary marginal; draw order is the copy coins first, then values.
    # Each refresh starts a run that repeats its fresh value (``_fill_runs``).
    copy = _below(rng, n, model.rho)
    fresh = _below(rng, n, model.p_one)
    copy[0] = 0
    return _fill_runs(copy, fresh)


def _words(flags):
    """0/1 uint8 flags packed little-endian, 64 to a uint64 word, zero-padded."""
    packed = np.packbits(flags.view(bool), bitorder="little")
    words = np.zeros(-(-len(packed) // 8), "<u8")
    words.view(np.uint8)[: len(packed)] = packed
    return words


def _fill_runs(copy, fresh):
    """out[t] = fresh[t] where copy[t] is 0 (a start), else out[t - 1];
    copy[0] must be 0.  Computed 64 cells per uint64 word (``_fill_words``),
    so the cost grows with n but not with the number of runs.  The word
    temporaries are gone before the n-byte output is made, so the peak is
    about an eighth of a byte per cell above the inputs and the output.
    """
    x = _fill_words(_words(copy), _words(fresh))
    return np.unpackbits(x.astype("<u8", copy=False).view(np.uint8), count=len(copy), bitorder="little")


def _fill_words(u, fresh):
    """``_fill_runs`` on packed words: u the copy words, ``fresh`` the
    fresh words (overwritten).

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


def sample_pieces(model, n, seed, size):
    """The bits of ``sample(model, n, seed)`` in consecutive pieces of
    ``size`` bits (the last may be short), drawn one piece at a time so the
    n bits never exist at once; each piece is a view of one buffer that the
    next draw overwrites.  Binomial sources only: a markov sample draws all
    of its copy coins before any value."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if size < 1:
        raise ValueError("piece size must be >= 1")
    if model.kind != "binomial":
        raise ValueError(f"only a binomial sample is drawn in pieces, not {model.kind!r}")
    return _pieces(np.random.default_rng(seed), n, model.p_one, size)


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


def uniform_random_perm(n, seed):
    """Uniform permutation of 0..n-1 (Fisher-Yates), deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.random.default_rng(seed).permutation(n)
