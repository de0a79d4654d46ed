"""Closed-form recurrences, bounds and constants for the cooling pipeline.

Everything here is pure arithmetic: the bias-doubling recurrence of the
pairing phase and its exact inverse, the parity-binning bounds, the mod-4
counting recurrence, entropy formulas, the bit-yield ledger, and log-log
runtime-exponent fits.  No sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "TARGET_BIAS",
    "bias_forward",
    "bias_backward",
    "forward_orbit",
    "backward_orbit",
    "phase1_overhead",
    "phase2_bounds",
    "phase2_delta_bound",
    "phase2_stationary",
    "phase3_certificate",
    "PHASE3_MIN_N",
    "Phase3Certificate",
    "binomial_class_mass",
    "binary_entropy",
    "entropy_cap",
    "YieldLedger",
    "yield_ledger",
    "runtime_exponent",
    "REGION_FLOORS",
    "LEDGER_FACTORS",
    "ledger_constant",
    "EPSILON_MIN",
]


# ---------------------------------------------------------------------------
# phase 1: pairing recurrence


def bias_forward(eps):
    """Survivor bias after one pairing round: 2*eps/(1+eps^2); fixes 0 and 1."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("bias must lie in [0, 1]")
    return 2.0 * eps / (1.0 + eps * eps)


def bias_backward(eps_next):
    """Exact inverse of ``bias_forward`` on (0, 1]: (1-sqrt(1-e^2))/e."""
    if not 0.0 < eps_next <= 1.0:
        raise ValueError("bias must lie in (0, 1]")
    return (1.0 - math.sqrt(1.0 - eps_next * eps_next)) / eps_next


# Stop tests against bias thresholds allow the threshold a small relative
# slack: the driving constants (0.856, 0.009985, ...) are printed to three
# or four significant figures, and an orbit started from such a rounded
# value lands within ~1e-4 of the exact threshold.
THRESHOLD_RTOL = 1e-4

# the pairing phase hands over to parity binning at this bias
TARGET_BIAS = 0.856


def forward_orbit(eps0, target=TARGET_BIAS):
    """Forward orbit [eps0, ...] up to and including the first value that
    reaches the target (to within the threshold slack); both lie in (0, 1],
    so it ends within 1,078 values, the count from the smallest double."""
    if not (0.0 < eps0 <= 1.0 and 0.0 < target <= 1.0):
        raise ValueError(f"eps0={eps0} and target={target} must lie in (0, 1]")
    stop = target * (1.0 - THRESHOLD_RTOL)
    orbit = [eps0]
    while orbit[-1] < stop:
        orbit.append(bias_forward(orbit[-1]))
    return orbit


def backward_orbit(target, rounds):
    """[target, g(target), ..., g^rounds(target)] for the exact inverse g."""
    orbit = [target]
    for _ in range(rounds):
        orbit.append(bias_backward(orbit[-1]))
    return orbit


def phase1_overhead(eps0, eps_target=TARGET_BIAS):
    """Product of (1 + eps_j^2) along the forward orbit below the target.

    The square of this product (times the target term for the inclusive
    reading) is the multiplicative bit-loss over the ideal factor 4^k.
    An eps0 at or past the target has an empty orbit below it, so gives 1.
    """
    return math.prod((1.0 + e * e for e in forward_orbit(eps0, eps_target)[:-1]), start=1.0)


# ---------------------------------------------------------------------------
# phase 2: parity binning bounds


def phase2_bounds(n0, b0, k):
    """High-probability bounds for one parity-binning round.

    Returns (n1_lower, b1_upper, u_expected): the pass-count floor counting
    only all-zero bins, the leaked-ones ceiling, and the expected number of
    bins holding exactly one 1.
    """
    if k < 2:
        raise ValueError("bin size must be >= 2")
    if b0 > n0 or n0 <= 0:
        raise ValueError("need 0 <= b0 <= n0")
    delta0 = b0 / n0
    n1 = (n0 / k) * (1.0 - delta0) ** k * (k - 1)
    b1 = b0 * (1.0 - (1.0 - delta0) ** (k - 1))
    u = b0 * (1.0 - delta0) ** (k - 1)
    return n1, b1, u


def phase2_delta_bound(delta0, k):
    """Conservative one-round ones-fraction bound b1_upper / n1_lower."""
    n1, b1, _ = phase2_bounds(1.0, delta0, k)
    return b1 / n1


REGION_FLOORS = {1: 0.532, 2: 0.75, 3: 0.899, 4: 0.96}


def phase2_stationary(n):
    """(stationary point n^(-1/3) of delta -> delta^2 k, cautious level n^(-0.3)).

    Parity binning stops at the stationary point.  The higher n^(-0.3) is
    the default, worst-case entry level of the mod-4 certificate.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return n ** (-1.0 / 3.0), n**-0.3


# ---------------------------------------------------------------------------
# phase 3: mod-4 counting


# the smallest population the mod-4 certificate takes
PHASE3_MIN_N = 64


def _phase3_block_size(n):
    return max(4, round(n ** (1.0 / 6.0)))


def binomial_class_mass(delta, k, residue, modulus, start=0):
    """Sum of C(k,c) delta^c (1-delta)^(k-c) over c >= start, c == residue mod modulus.

    The pmf is built iteratively (term ratio (k-c)/(c+1) * delta/(1-delta))
    so huge binomial coefficients never materialize.
    """
    if delta == 0.0:
        return 1.0 if (start == 0 and residue == 0) else 0.0
    total = 0.0
    term = (1.0 - delta) ** k
    ratio = delta / (1.0 - delta)
    for c in range(k + 1):
        if c >= start and c % modulus == residue:
            total += term
        term *= (k - c) / (c + 1) * ratio
    return total


@dataclass
class Phase3Certificate:
    """Deterministic round plan for the mod-4 phase.

    ``deltas`` is the conservative orbit [delta0, ..., final]; round i maps
    deltas[i] to deltas[i+1].  ``loss_factors`` holds the expected survivor
    ratio (k-3)/k * P(block count == 0 mod 4) per round, header bits
    included.
    """

    n: int
    k: int
    target: float
    deltas: list = field(default_factory=list)
    loss_factors: list = field(default_factory=list)

    @property
    def rounds(self):
        return len(self.deltas) - 1

    @property
    def final_delta(self):
        return self.deltas[-1]


def phase3_certificate(n, delta0=None):
    """Certify the mod-4 phase by iterating its exact conservative recurrence.

    Under the keep-iff-count==0-mod-4 semantics a 1 can only survive a block
    whose total weight is a positive multiple of 4, so the per-1 pass
    probability is the binomial tail over weights {3, 7, ...} of the other
    k-1 bits, with blocks of k = max(4, round(n^(1/6))).  Dividing by the
    all-zero-blocks survivor floor gives a conservative delta orbit;
    iteration from ``delta0`` (default the cautious level n^(-0.3)) certifies
    delta < n^(-10) within 500 rounds.

    The recurrence assumes that each round's input bits are independent,
    each a 1 with probability delta.  Parity binning's output breaks that:
    it passes whole bin payloads, so its ones come in pairs within a row,
    and a block holding two pairs passes with weight 4.  The pipeline
    therefore reads phase 2's output column by column before round 0.
    """
    if n < PHASE3_MIN_N:
        raise ValueError(f"n must be >= {PHASE3_MIN_N}")
    k = _phase3_block_size(n)
    if delta0 is None:
        delta0 = phase2_stationary(n)[1]
    target = float(n) ** -10.0
    cert = Phase3Certificate(n=n, k=k, target=target, deltas=[delta0])
    delta = delta0
    while delta >= target:
        if len(cert.deltas) > 500:
            raise ValueError("certificate failed to converge")
        pass_one = binomial_class_mass(delta, k - 1, 3, 4, start=3)
        floor = (1.0 - delta) ** k * (k - 3) / k
        loss = (k - 3) / k * binomial_class_mass(delta, k, 0, 4)
        delta = delta * pass_one * (k - 3) / k / floor if floor > 0 else 0.0
        cert.deltas.append(delta)
        cert.loss_factors.append(loss)
    return cert


# ---------------------------------------------------------------------------
# entropy optimality and the yield ledger


def binary_entropy(p):
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability out of range")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy_cap(n, eps):
    """Information-theoretic maximum of clean bits: n*(1 - H2((1+eps)/2)).

    For small eps this is n*eps^2/(2 ln 2); the frequently quoted n*eps^2
    omits the 1/(2 ln 2) constant.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("bias must lie in [0, 1]")
    return n * (1.0 - binary_entropy((1.0 + eps) / 2.0))


# loss factors: pairing low-bias region, pairing product, three parity
# regions, fourth region cumulative
LEDGER_FACTORS = (1.0017, 6.7, *(1.0 / REGION_FLOORS[r] for r in (1, 2, 3, 4)))


def ledger_constant():
    """Product of the per-phase loss factors, approximately 19.5 (<= 20)."""
    return math.prod(LEDGER_FACTORS)


# the smallest bias a run takes, rounded up from where the ledger's factor
# 19.5/eps^2 overflows a float, about 3.3e-154 (eps^2 is 0 below 1.5e-162)
EPSILON_MIN = 1e-150


@dataclass
class YieldLedger:
    """Bit-yield accounting for one pipeline run."""

    epsilon: float
    n: int
    clean_bits: int
    factors: tuple = LEDGER_FACTORS
    constant: float = 0.0
    total_factor: float = 0.0
    expected_floor: float = 0.0
    entropy_cap: float = 0.0
    c_yield: float = 0.0
    meets_floor: bool = False
    within_entropy_cap: bool = False

    def as_dict(self):
        # flat: no field holds a dataclass, so asdict's recursive copy is waste
        return {f.name: getattr(self, f.name) for f in fields(self)}


def yield_ledger(eps, n, clean_bits):
    """Assemble the loss-factor ledger and check the run against it."""
    if eps <= 0.0:
        raise ValueError("the ledger needs a positive bias")
    constant = ledger_constant()
    total = constant / (eps * eps) if eps * eps else math.inf
    if not math.isfinite(total):
        raise ValueError(f"the ledger factor {constant:.4g}/eps^2 is not finite at eps={eps}")
    cap = entropy_cap(n, eps)
    ledger = YieldLedger(
        epsilon=eps,
        n=n,
        clean_bits=int(clean_bits),
        constant=constant,
        total_factor=total,
        expected_floor=n / total,
        entropy_cap=cap,
        c_yield=1.0 / constant,
        meets_floor=clean_bits >= n / total,
        within_entropy_cap=clean_bits <= cap,
    )
    return ledger


# ---------------------------------------------------------------------------
# runtime exponents


EXPECTED_SLOPES = {"single": 2.0, "two_tape": 4.0 / 3.0, "two_tape_ca": 1.0}


def runtime_exponent(arch, sizes, step_counts):
    """Least-squares slope of log(steps) against log(n); needs >= 4 sizes."""
    if arch not in EXPECTED_SLOPES:
        raise ValueError(f"unknown architecture {arch!r}")
    sizes = np.asarray(sizes, dtype=float)
    steps = np.asarray(step_counts, dtype=float)
    if len(sizes) < 4 or len(sizes) != len(steps):
        raise ValueError("need at least 4 matching (size, steps) points")
    slope, _ = np.polyfit(np.log(sizes), np.log(steps), 1)
    return float(slope)
