"""Thermal bit-string sources and the initial/terminal permutations.

Bits are 0 with probability (1+eps)/2.  Two distribution models:

* ``binomial`` -- independent identically biased bits;
* ``markov``   -- a stationary two-state chain whose +/-1 spin encoding has
  Pearson autocorrelation rho**d at lag d, with rho = threshold**(1/ell), so
  the correlation at the declared distance ell equals the threshold
  (default 1/10).  Realized as copy-with-probability-rho / refresh.

All randomness is owned by the caller through explicit seeds; samplers are
pure functions of (model, n, seed).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import machine, perms

__all__ = [
    "BiasModel",
    "sample",
    "stride_shuffle_perm",
    "stride_inversions",
    "uniform_random_perm",
    "transposition_schedule",
    "apply_perm_as_transpositions",
    "write_bits_packed",
    "read_bits_packed",
    "write_bits_ascii",
    "read_bits_ascii",
]


@dataclass(frozen=True)
class BiasModel:
    """Initial thermal distribution: kind 'binomial' or 'markov'."""

    kind: str
    epsilon: float
    ell: int | None = None
    threshold: float = 0.1

    def __post_init__(self):
        if self.kind not in ("binomial", "markov"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.kind == "markov":
            if self.ell is None or self.ell < 1:
                raise ValueError("markov model needs a correlation distance ell >= 1")
            if not 0.0 < self.threshold < 1.0:
                raise ValueError("threshold must lie in (0, 1)")

    @property
    def p_one(self):
        return (1.0 - self.epsilon) / 2.0

    @property
    def rho(self):
        """Lag-1 spin autocorrelation of the markov model."""
        if self.kind != "markov":
            return 0.0
        return self.threshold ** (1.0 / self.ell)


def sample(model, n, seed):
    """Draw n bits; deterministic for fixed (model, n, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if model.kind == "binomial":
        return (rng.random(n) < model.p_one).astype(np.uint8)
    # markov: X_t copies X_{t-1} with prob rho, else refreshes from the
    # stationary marginal; draw order is refresh coins first, then values.
    rho = model.rho
    refresh = rng.random(n) >= rho
    refresh[0] = True
    fresh = (rng.random(n) < model.p_one).astype(np.uint8)
    last = np.maximum.accumulate(np.where(refresh, np.arange(n), 0))
    return fresh[last]


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


# ---------------------------------------------------------------------------
# executing a permutation on the machine with head transpositions


def _oddeven_passes(perm):
    """Yield (swap_sites, head_travel_from, head_travel_to) per odd-even pass.

    Odd-even transposition passes over the linearized ring; sites within one
    pass are disjoint so the swaps commute.  The schedule depends only on
    the permutation (known to the experimenter), never on the tape data, so
    the emitted trace is data independent.
    """
    perm = np.asarray(perm)
    if not perms.is_permutation(perm):
        raise ValueError("not a permutation")
    keys = perm.copy()
    parity = 0
    while np.any(keys[:-1] > keys[1:]):
        j = np.arange(parity, len(keys) - 1, 2)
        hot = j[keys[j] > keys[j + 1]]
        if len(hot):
            tmp = keys[hot].copy()
            keys[hot] = keys[hot + 1]
            keys[hot + 1] = tmp
            yield hot
        parity ^= 1


def transposition_schedule(perm):
    """Adjacent-transposition program realizing a destination map.

    Returns (program, cost) with cost == len(program); each executed swap
    removes exactly one adjacent inversion, so the gate count equals the
    inversion count of the permutation and the identity costs zero.  Total
    cost is O(n^2): at most n passes of at most 2n head moves each.
    """
    n = len(np.asarray(perm))
    program = []
    head = 0
    swap = machine.GATES["SWAP2"]

    def goto(j):
        nonlocal head
        dist_fwd = (j - head) % n
        dist_back = (head - j) % n
        if dist_fwd <= dist_back:
            program.extend([machine.Shift(1)] * dist_fwd)
        else:
            program.extend([machine.Shift(-1)] * dist_back)
        head = j

    for sites in _oddeven_passes(perm):
        for j in sites.tolist():
            goto(j)
            program.append(machine.Gate(swap))
    if program:
        goto(0)  # restore the head frame
    return program, len(program)


def apply_perm_as_transpositions(state, perm):
    """Execute a destination-map permutation on the tape; returns (state, cost).

    The head must start anywhere; the permutation is applied to the logical
    tape (head-relative ordering).  Cost is O(n^2) adjacent transpositions
    plus head travel.
    """
    program, cost = transposition_schedule(perm)
    machine.execute(state, program)
    return state, cost


# ---------------------------------------------------------------------------
# bit-string files


def write_bits_packed(path, bits):
    """8 bits/byte, little-endian bit order, 8-byte little-endian length header."""
    arr = np.asarray(bits, dtype=np.uint8)
    payload = np.packbits(arr, bitorder="little").tobytes()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(arr)))
        fh.write(payload)


def read_bits_packed(path):
    """Inverse of ``write_bits_packed``; a truncated file raises ValueError."""
    with open(path, "rb") as fh:
        header, payload = fh.read(8), np.frombuffer(fh.read(), dtype=np.uint8)
    if len(header) < 8:
        raise ValueError(f"{path}: header holds {len(header)} of 8 bytes, no declared bit count")
    (n,) = struct.unpack("<Q", header)
    if 8 * len(payload) < n:
        raise ValueError(f"{path}: declares {n} bits but holds only {8 * len(payload)}")
    return np.unpackbits(payload, count=n, bitorder="little")


def write_bits_ascii(path, bits, width=80):
    """0/1 character lines, wrapped at ``width`` columns; for small n."""
    s = "".join("1" if b else "0" for b in np.asarray(bits, dtype=np.uint8))
    with open(path, "w") as fh:
        for i in range(0, len(s), width):
            fh.write(s[i : i + width] + "\n")


def read_bits_ascii(path):
    with open(path) as fh:
        s = "".join(line.strip() for line in fh)
    if set(s) - {"0", "1"}:
        raise ValueError("ascii bit file may contain only 0/1 characters")
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")
