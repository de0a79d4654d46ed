"""The three-phase initialization pipeline in abstract bit-vector form.

Phase 1 (pairing) doubles the bias per round: pairs with equal bits keep
their second bit, unequal pairs are discarded.  Phase 2 (parity binning)
XORs each bin into its first bit and passes the remainder of the bin only
on even parity.  Phase 3 (mod-4 counting) passes the payload of a block iff
the block's ones-count is divisible by four.  Round counts and bin sizes
are always driven by the deterministic analytic recurrences, never by
peeking at the data, so the machine realization stays oblivious; the
empirical trace is recorded for validation only.  ``make_plan`` fixes them
all in one ``Plan``.  A round runs on a flat bit array, optionally cut into
segments (the interaction blocks) that no pair, bin or block straddles.

Per-round step costs are charged from the compiled-program cost formulas
(single-tape canonical); the pipeline additionally accumulates totals for
the two-tape and two-tape-plus-cellular-automaton cost models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import analysis, compiler, perms, thermal

__all__ = [
    "CoolingError",
    "Phase1Config",
    "Phase2Schedule",
    "RoundRecord",
    "Plan",
    "make_plan",
    "choose_k",
    "phase1_round",
    "phase1_run",
    "phase2_round",
    "phase2_plan",
    "phase2_run",
    "phase3_round",
    "phase3_run",
    "block_segments",
    "block_size",
    "gather_perm",
    "pipeline",
    "PipelineResult",
]


class CoolingError(RuntimeError):
    """A phase could not proceed as planned (e.g. population exhausted)."""


@dataclass(frozen=True)
class Phase1Config:
    """Stop threshold for the pairing phase."""

    target_bias: float = 0.856

    def __post_init__(self):
        if not 0.0 < self.target_bias < 1.0:
            raise ValueError("target bias must lie in (0, 1)")


@dataclass(frozen=True)
class Phase2Schedule:
    """Bin-size schedule for parity binning.

    Regions (right-inclusive) map the ones-fraction to a bin size; below the
    last boundary the power rule k = ceil(delta^-0.4) applies (always
    >= 33 there).  Once the rule would exceed n**alpha the remaining rounds
    use the whole interaction block (size n^(1/3)); rounds stop when the
    predicted ones-fraction falls to the stationary level n^(-1/3), where
    the mod-4 phase's per-round loss floor 1 - 4 n^(-1/6) holds.  Above that
    level the rule gives k < n^0.134 + 1, so for alpha in the validated range
    the whole-block branch is never entered.
    """

    alpha: float = 0.3
    regions: tuple = ((0.0188, 0.072, 3), (0.0027, 0.0188, 7), (0.000158, 0.0027, 21))
    power_boundary: float = 0.000158
    power_exponent: float = 0.4

    def __post_init__(self):
        if not 0.2 < self.alpha <= 0.32:
            raise ValueError("alpha must lie in (0.2, 0.32]")

    @property
    def delta_max(self):
        return max(hi for _, hi, _ in self.regions)


def choose_k(delta, schedule=None):
    """Bin size for the current (predicted) ones-fraction."""
    sch = schedule or Phase2Schedule()
    if not 0.0 < delta <= sch.delta_max:
        raise ValueError(f"delta={delta} outside (0, {sch.delta_max}]")
    for lo, hi, k in sch.regions:
        if lo < delta <= hi:
            return k
    # power rule; round before ceil so exact powers don't overshoot
    return math.ceil(round(delta**-sch.power_exponent, 9))


@dataclass
class RoundRecord:
    """Per-round trace entry; ``u`` counts bins holding exactly one 1."""

    phase: int
    round: int
    n_in: int
    n_out: int
    ones_in: int
    ones_out: int
    bias_emp: float
    bias_pred: float
    steps: int
    u: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.n_out > self.n_in or self.ones_out > self.ones_in or self.steps < 0:
            raise ValueError("inconsistent round record")


def _bias(ones, n):
    return 1.0 - 2.0 * ones / n if n else 1.0


# ---------------------------------------------------------------------------
# segments: the layout every round kernel shares


def _rows(bits, size, segments, rng=None):
    """Each segment's full rows of ``size`` bits, stacked into one
    (rows, size) array, and the row count per segment (None when the input is
    one segment).  The tail beyond a segment's last full row is dropped;
    with ``rng`` each segment is shuffled first, one draw per segment in
    order, so the tail dropped is a random one."""
    n = len(bits)
    if segments is not None and int(np.sum(segments)) != n:
        raise ValueError("segment lengths must add up to the input length")
    if segments is None or len(segments) == 1:
        m = n - n % size
        if rng is not None:
            bits = bits[rng.permutation(n)[:m]]
        return bits[:m].reshape(-1, size), None
    lens = np.asarray(segments, dtype=np.int64)
    full = lens // size
    if rng is not None:
        starts = (np.cumsum(lens) - lens).tolist()
        bits = bits[np.concatenate([
            start + rng.permutation(length)[: rows * size]
            for start, length, rows in zip(starts, lens.tolist(), full.tolist())
        ])]
    elif (lens % size).any():
        cut = full * size
        runs = np.column_stack((cut, lens - cut)).ravel()
        bits = bits[np.repeat(np.tile((True, False), len(lens)), runs)]
    return bits.reshape(-1, size), full


def _steps(phase, k, lens):
    """Compiled step count summed over segments of these lengths, each
    distinct length costed once; below one full pair (k = 2), bin or block
    a segment costs nothing."""
    if len(lens) > 1:
        lens, counts = np.unique(lens, return_counts=True)
        return sum(c * _steps(phase, k, [n]) for n, c in zip(lens.tolist(), counts.tolist()))
    n = int(lens[0])
    if n < k:
        return 0
    if phase == 1:
        return compiler.phase1_cost(n)
    return (compiler.phase2_round_cost if phase == 2 else compiler.phase3_round_cost)(n, k)


def _record(phase, round_index, bits, ones_in, out, bias_pred, k, segments, u=None):
    """The round's trace entry; ``k`` is 2 for pairing, where it is not recorded."""
    n_out, ones_out = len(out), int(np.count_nonzero(out))
    return RoundRecord(
        phase=phase, round=round_index, n_in=len(bits), n_out=n_out, ones_in=ones_in,
        ones_out=ones_out, bias_emp=_bias(ones_out, n_out), bias_pred=bias_pred,
        steps=_steps(phase, k, [len(bits)] if segments is None else segments),
        u=u, k=None if phase == 1 else k,
    )


def _result(out, rec, segments, kept, per_segment, width):
    """``(out, rec)``, plus the per-segment output lengths (``width`` bits per
    kept row) when the call was given segments."""
    if segments is None:
        return out, rec
    if per_segment is None:
        return out, rec, np.array([len(out)], dtype=np.int64)
    # kept rows per segment, read off a running count at segment boundaries
    running = np.concatenate(([0], np.cumsum(kept, dtype=np.int64)))
    return out, rec, np.diff(running[np.concatenate(([0], np.cumsum(per_segment)))]) * width


# ---------------------------------------------------------------------------
# phase 1: pairing


def phase1_round(bits, bias_pred_in=None, round_index=0, segments=None):
    """One pairing round: keep the second bit of each equal pair.  Given
    ``segments``, pair within each and also return their output lengths."""
    bits = np.asarray(bits, dtype=np.uint8)
    rows, per_segment = _rows(bits, 2, segments)
    a, b = rows[:, 0], rows[:, 1]
    kept = a == b
    out = b[kept]
    ones_in = int(np.count_nonzero(bits))
    eps_in = bias_pred_in if bias_pred_in is not None else _bias(ones_in, len(bits))
    bias_pred = analysis.bias_forward(min(max(eps_in, 0.0), 1.0))
    rec = _record(1, round_index, bits, ones_in, out, bias_pred, 2, segments)
    return _result(out, rec, segments, kept, per_segment, 1)


def phase1_run(bits, config=None, eps0=None):
    """Pairing rounds until the predicted bias passes the target.

    The round count comes from the forward orbit of the declared input bias
    ``eps0`` (empirical estimate if omitted), matching the backward-orbit
    count; it never adapts to the data.  Raises ``CoolingError`` if the
    population runs out before the planned rounds finish.
    """
    cfg = config or Phase1Config()
    bits = np.asarray(bits, dtype=np.uint8)
    if eps0 is None:
        eps0 = max(_bias(int(bits.sum()), len(bits)), 1e-12)
    rounds = len(analysis.forward_orbit(eps0, cfg.target_bias)) - 1
    records = []
    eps_pred = eps0
    for r in range(rounds):
        if len(bits) < 2:
            raise CoolingError(
                f"population exhausted after {r} pairing rounds; "
                f"{rounds - r} more needed to reach bias {cfg.target_bias}"
            )
        bits, rec = phase1_round(bits, bias_pred_in=eps_pred, round_index=r)
        eps_pred = rec.bias_pred
        records.append(rec)
    return bits, records


# ---------------------------------------------------------------------------
# phase 2: parity binning


def phase2_round(bits, k, seed=None, delta_pred_in=None, round_index=0, segments=None):
    """One parity-binning round.

    With a seed the bits are shuffled into bins first (the rerandomization
    belongs to the experimenter); ``seed=None`` keeps fixed consecutive
    binning, which is what the compiled program implements.  Bin bits beyond
    the last full bin are discarded.  With ``segments`` each segment is
    shuffled and binned on its own, in order, from one generator.
    """
    if k < 2:
        raise ValueError("bin size must be >= 2")
    bits = np.asarray(bits, dtype=np.uint8)
    n_in = len(bits)
    rng = None if seed is None else np.random.default_rng(seed)
    rows, per_segment = _rows(bits, k, segments, rng)
    kept = np.bitwise_xor.reduce(rows, axis=1) == 0
    out = rows[kept][:, 1:].ravel()
    ones_in = int(np.count_nonzero(bits))
    delta_in = (
        delta_pred_in
        if delta_pred_in is not None
        else (ones_in / n_in if n_in else 0.0)
    )
    pred_out = analysis.phase2_delta_bound(min(delta_in, 0.5), k) if delta_in > 0 else 0.0
    u = int(np.count_nonzero(rows.sum(axis=1) == 1))
    rec = _record(2, round_index, bits, ones_in, out, 1.0 - 2.0 * pred_out, k, segments, u)
    return _result(out, rec, segments, kept, per_segment, k - 1)


@dataclass(frozen=True)
class PlannedRound:
    k: int
    delta_in: float
    delta_out: float


def phase2_plan(delta0, n, schedule=None):
    """Deterministic round plan: (k, predicted delta in/out) per round.

    Driven by the conservative one-round bound, starting from the declared
    input ones-fraction; halts when the prediction reaches the stationary
    level n^(-1/3) (``analysis.phase2_stationary(n)[0]``).  The plan is empty
    exactly when the input is already at or below that level.
    """
    sch = schedule or Phase2Schedule()
    if not 0.0 <= delta0 <= sch.delta_max:
        raise ValueError(f"phase 2 needs input delta <= {sch.delta_max} (bias >= 0.856)")
    halt, _ = analysis.phase2_stationary(n)
    k_cap = float(n) ** sch.alpha
    k_end = max(2, block_size(n))
    plan = []
    delta = delta0
    while delta > halt:
        if len(plan) >= 200:
            raise CoolingError("parity-bin plan failed to converge")
        k = choose_k(delta, sch)
        if k > k_cap:
            k = k_end
        delta_next = analysis.phase2_delta_bound(delta, k)
        plan.append(PlannedRound(k, delta, delta_next))
        delta = delta_next
    return plan


def phase2_run(bits, n, schedule=None, seed=0, delta0=None):
    """Run the planned parity-binning rounds with per-round reshuffles,
    from ``delta0`` or else the schedule's region maximum."""
    sch = schedule or Phase2Schedule()
    plan = phase2_plan(sch.delta_max if delta0 is None else delta0, n, sch)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(len(plan)) if plan else []
    records = []
    for i, (pr, child) in enumerate(zip(plan, children)):
        bits, rec = phase2_round(
            bits, pr.k, seed=child, delta_pred_in=pr.delta_in, round_index=i
        )
        records.append(rec)
    return bits, records


# ---------------------------------------------------------------------------
# phase 3: mod-4 counting


def phase3_round(bits, k, delta_pred_in=None, bias_pred_out=None, round_index=0,
                 segments=None):
    """One mod-4 counting round on fixed consecutive blocks of size k.

    A block passes its payload (everything beyond the first three bits) iff
    its total ones-count is divisible by 4; the three header bits are always
    consumed.  With ``segments`` no block straddles two segments.
    """
    if k < 4:
        raise ValueError("block size must be >= 4")
    bits = np.asarray(bits, dtype=np.uint8)
    n_in = len(bits)
    rows, per_segment = _rows(bits, k, segments)
    kept = (rows.sum(axis=1) % 4) == 0
    out = rows[kept][:, 3:].ravel()
    ones_in = int(np.count_nonzero(bits))
    if bias_pred_out is None:
        delta_in = (
            delta_pred_in
            if delta_pred_in is not None
            else (ones_in / n_in if n_in else 0.0)
        )
        delta_in = min(delta_in, 0.999)
        pass_one = analysis.binomial_class_mass(delta_in, k - 1, 3, 4, start=3)
        floor = (1.0 - delta_in) ** k
        bias_pred_out = 1.0 - 2.0 * (
            delta_in * pass_one * k / ((k - 3) * floor) if floor else 0.0
        )
    rec = _record(3, round_index, bits, ones_in, out, bias_pred_out, k, segments)
    return _result(out, rec, segments, kept, per_segment, k - 3)


def phase3_run(bits, n, k=None, delta0=None):
    """Run the certified number of mod-4 rounds for population budget n;
    ``delta0=None`` takes the certificate's default entry level."""
    cert = analysis.phase3_certificate(n, delta0=delta0, k=k)
    records = []
    for r in range(cert.rounds):
        bits, rec = phase3_round(
            bits,
            cert.k,
            bias_pred_out=1.0 - 2.0 * cert.deltas[r + 1],
            round_index=r,
        )
        records.append(rec)
    return bits, records


# ---------------------------------------------------------------------------
# the plan


@dataclass(frozen=True)
class Plan:
    """Every round of a pipeline run, fixed from the declared bias alone:
    the phase-1 bias ``orbit``, the parity-binning rounds ``phase2`` entered
    at ``delta2``, and the mod-4 ``certificate`` entered where they stop."""

    epsilon: float
    orbit: tuple
    delta2: float
    phase2: tuple
    certificate: analysis.Phase3Certificate


def make_plan(epsilon, n, p1config=None, schedule=None):
    """The ``Plan`` for declared bias ``epsilon`` in (0, 1] and population n."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside (0, 1]")
    cfg = p1config or Phase1Config()
    sch = schedule or Phase2Schedule()
    orbit = tuple(analysis.forward_orbit(epsilon, cfg.target_bias))
    # the orbit end sits within the threshold slack of the target; clamp the
    # declared phase-2 entry level to the schedule's region maximum
    delta2 = min((1.0 - orbit[-1]) / 2.0, sch.delta_max)
    phase2 = tuple(phase2_plan(delta2, n, sch))
    cert = analysis.phase3_certificate(n, delta0=phase2[-1].delta_out if phase2 else delta2)
    return Plan(epsilon, orbit, delta2, phase2, cert)


# ---------------------------------------------------------------------------
# blocks and gathering


def block_size(n):
    """Interaction-block size: floor(n^(1/3))."""
    return max(1, thermal._icbrt(n))


def block_segments(n):
    """Lengths of consecutive interaction blocks of size floor(n^(1/3))
    covering n bits; the final block may be short."""
    return np.diff(np.append(np.arange(0, n, block_size(n)), n))


def gather_perm(live_mask):
    """Destination map packing live cells to the prefix, order preserved."""
    live_mask = np.asarray(live_mask, dtype=bool)
    n = len(live_mask)
    dest = np.empty(n, dtype=np.int64)
    live = np.flatnonzero(live_mask)
    dead = np.flatnonzero(~live_mask)
    dest[live] = np.arange(len(live))
    dest[dead] = len(live) + np.arange(len(dead))
    return dest


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class PipelineResult:
    clean_bits: int
    bits: np.ndarray = field(repr=False)
    records: list = field(repr=False)
    ledger: analysis.YieldLedger
    steps: dict
    mode: str
    n: int
    seed: int


def _arch_init_cost(n, inv):
    """Initial-permutation steps per cost model; ``inv`` is its inversion count."""
    return {
        "single": n * n + inv,
        "two_tape": thermal._icbrt(216 * n**4),  # floor(6 n^(4/3)), 6 n m at cubes
        "two_tape_ca": n,
    }


def _arch_gather_cost(n):
    return {"single": n * n, "two_tape": 6 * n, "two_tape_ca": n}


def pipeline(model, n, seed, mode="binomial-direct", schedule=None, p1config=None,
             initial_perm=None):
    """End-to-end run: sample, (permute), cool in three phases, gather.

    ``binomial-direct`` skips the initial permutation and runs the phases on
    the whole population (valid when the source really is binomial).
    ``shuffled-blocks`` applies a spreading permutation (``stride`` by
    default, ``uniform`` on request) and confines every phase to interaction
    blocks of size n^(1/3); the flat output of the last round is the
    gathered prefix.  This is the layout the correlated-source analysis
    needs.  Either way each round is one call on the flat bits.

    Step totals are tracked for three cost models: ``single`` (one tape),
    ``two_tape`` (linear-time terminal gather, n^(4/3) initial permutation)
    and ``two_tape_ca`` (block-parallel rounds, linear permutations).
    """
    if mode not in ("binomial-direct", "shuffled-blocks"):
        raise ValueError(f"unknown mode {mode!r}")
    plan = make_plan(model.epsilon, n, p1config, schedule)
    bits = thermal.sample(model, n, seed)
    steps = {"single": 0, "two_tape": 0, "two_tape_ca": 0}

    if mode == "binomial-direct":
        lens = np.array([n], dtype=np.int64)
    else:
        which = initial_perm or "auto"
        if which == "auto":
            which = "stride" if thermal._icbrt(n) ** 3 == n else "uniform"
        if which == "stride":
            perm = thermal.stride_shuffle_perm(n)
            inv = thermal.stride_inversions(n)
        elif which == "uniform":
            perm = thermal.uniform_random_perm(n, np.random.SeedSequence((seed, 0xA11CE)))
            inv = perms.count_inversions(perm)
        else:
            raise ValueError(f"unknown initial permutation {which!r}")
        for arch, c in _arch_init_cost(n, inv).items():
            steps[arch] += c
        bits = perms.apply_to(bits, perm)
        lens = block_segments(n)

    ss2 = np.random.SeedSequence((seed, 0x5EED2))
    rngs = [np.random.default_rng(c) for c in ss2.spawn(len(plan.phase2))]
    cert = plan.certificate
    rounds = (
        [partial(phase1_round, bias_pred_in=e) for e in plan.orbit[:-1]],
        [partial(phase2_round, k=pr.k, seed=rng, delta_pred_in=pr.delta_in)
         for pr, rng in zip(plan.phase2, rngs)],
        [partial(phase3_round, k=cert.k, bias_pred_out=1.0 - 2.0 * d) for d in cert.deltas[1:]],
    )
    records = []
    for phase_rounds in rounds:
        for i, round_fn in enumerate(phase_rounds):
            largest = int(lens.max())
            bits, rec, lens = round_fn(bits, round_index=i, segments=lens)
            total = rec.steps + n
            steps["single"] += total
            steps["two_tape"] += total
            # blocks run in parallel: costs grow with length, so the largest
            # block sets the pace
            steps["two_tape_ca"] += _steps(rec.phase, rec.k or 2, [largest])
            records.append(replace(rec, steps=total))

    for arch, c in _arch_gather_cost(n).items():
        steps[arch] += c

    ledger = analysis.yield_ledger(plan.epsilon, n, len(bits))
    return PipelineResult(
        clean_bits=len(bits),
        bits=bits,
        records=records,
        ledger=ledger,
        steps=steps,
        mode=mode,
        n=n,
        seed=seed,
    )
