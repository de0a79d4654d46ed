"""The three-phase initialization pipeline in abstract bit-vector form.

Phase 1 (pairing) doubles the bias per round: pairs with equal bits keep
their second bit, unequal pairs are discarded.  Phase 2 (parity binning)
XORs each bin into its first bit and passes the remainder of the bin only
on even parity.  Phase 3 (mod-4 counting) passes the payload of a block iff
the block's ones-count is divisible by four; the pipeline first reads phase
2's output column by column, so no block sees both ones of a bin's pair.
Round counts and bin sizes are always driven by the deterministic analytic
recurrences, never by peeking at the data, so the machine realization stays
oblivious; the empirical trace is recorded for validation only.
``make_plan`` fixes them all in one ``Plan``, and with them each round's
predicted output bias, which the round kernels record as given (NaN when
called without a plan).  A round runs on a flat bit array, optionally cut
into segments (the interaction blocks) that no pair, bin or block straddles.

Per-round step costs are charged from the compiled-program cost formulas
(single-tape canonical); the pipeline additionally accumulates totals for
the two-tape and two-tape-plus-cellular-automaton cost models.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from . import analysis, compiler, perms, thermal

__all__ = [
    "CoolingError",
    "Phase1Config",
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
    "pipeline",
    "PipelineResult",
]


class CoolingError(RuntimeError):
    """A phase could not proceed as planned (e.g. population exhausted)."""


@dataclass(frozen=True)
class Phase1Config:
    """Stop threshold for the pairing phase."""

    target_bias: float = analysis.TARGET_BIAS

    def __post_init__(self):
        if not 0.0 < self.target_bias < 1.0:
            raise ValueError("target bias must lie in (0, 1)")


# Parity-binning regions (right-inclusive): ones-fraction range -> bin size.
# Below the last one the power rule k = ceil(delta^-0.4) applies (always
# >= 33 there).
PHASE2_REGIONS = ((0.0188, 0.072, 3), (0.0027, 0.0188, 7), (0.000158, 0.0027, 21))
PHASE2_DELTA_MAX = max(hi for _, hi, _ in PHASE2_REGIONS)
_POWER_EXPONENT = 0.4


def choose_k(delta):
    """Bin size for the current (predicted) ones-fraction."""
    if not 0.0 < delta <= PHASE2_DELTA_MAX:
        raise ValueError(f"delta={delta} outside (0, {PHASE2_DELTA_MAX}]")
    for lo, hi, k in PHASE2_REGIONS:
        if lo < delta <= hi:
            return k
    # power rule; round before ceil so exact powers don't overshoot
    return math.ceil(round(delta**-_POWER_EXPONENT, 9))


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
        bits = bits.compress(np.repeat(np.tile((True, False), len(lens)), runs))
    return bits.reshape(-1, size), full


@lru_cache(maxsize=1024)
def _cost(phase, k, n):
    """Compiled step count of one round on one segment of n bits; below one
    full pair (k = 2), bin or block a segment costs nothing."""
    if n < k:
        return 0
    if phase == 1:
        return compiler.phase1_cost(n)
    return (compiler.phase2_round_cost if phase == 2 else compiler.phase3_round_cost)(n, k)


def _steps(phase, k, lens):
    """Compiled step count summed over segments of these lengths, each
    distinct length costed once."""
    if len(lens) > 1:
        lens, counts = np.unique(lens, return_counts=True)
        return sum(c * _cost(phase, k, n) for n, c in zip(lens.tolist(), counts.tolist()))
    return _cost(phase, k, int(lens[0]))


def _record(phase, round_index, bits, out, bias_pred, k, segments, u=None):
    """The round's trace entry; ``bits`` is the input, or its bit and ones
    counts when it was streamed, and ``k`` is 2 for pairing, where it is not
    recorded."""
    n_in, ones_in = bits if isinstance(bits, tuple) else (len(bits), int(np.count_nonzero(bits)))
    n_out = len(out)
    ones_out = int(np.count_nonzero(out))
    steps = _cost(phase, k, n_in) if segments is None else _steps(phase, k, segments)
    return RoundRecord(
        phase, round_index, n_in, n_out, ones_in, ones_out,
        _bias(ones_out, n_out), bias_pred, steps, u, None if phase == 1 else k,
    )


# typed scalars for the kernels' comparisons: a Python int operand costs a
# conversion on every call, most of a microsecond per small round.  Row sums
# of uint8 bits are uint64.
_W1, _W255 = np.uint16(1), np.uint16(255)
_S0, _S1, _S3 = np.uint64(0), np.uint64(1), np.uint64(3)

# rows decided and selected per slice: a flag, or an index, over every row
# of a 10**7-bit round would take more memory than the round's output
_SLICE = 1 << 16


def _take(buf, rows, kept):
    """Append the rows that the mask ``kept`` passes to the bytearray ``buf``."""
    buf += rows.compress(kept, axis=0).data


def _taken(buf, row_shape=()):
    """The uint8 rows of shape ``row_shape`` appended to ``buf``."""
    return np.frombuffer(buf, dtype=np.uint8).reshape(-1, *row_shape)


def _select(rows, keep, data, whole):
    """The rows that ``keep`` passes, decided and taken ``_SLICE`` rows at a
    time: ``keep(data[lo:hi])`` is the keep mask of rows lo:hi.  Returns them
    and, when ``whole``, every row's mask (else None).  Each slice's rows are
    appended to one growing buffer, so the selection is never held twice,
    as parts and as their join."""
    n = len(rows)
    if n <= _SLICE:
        kept = keep(data)
        return rows.compress(kept, axis=0), kept if whole else None
    flags = np.empty(n, dtype=bool) if whole else None
    buf = bytearray()
    for lo in range(0, n, _SLICE):
        kept = keep(data[lo : lo + _SLICE])
        if whole:
            flags[lo : lo + _SLICE] = kept
        _take(buf, rows[lo : lo + _SLICE], kept)
    return _taken(buf, rows.shape[1:]), flags


def _result(out, rec, segments, kept, per_segment, width):
    """``(out, rec)``, plus the per-segment output lengths (``width`` bits per
    kept row) when the call was given segments."""
    if segments is None:
        return out, rec
    if per_segment is None:
        return out, rec, np.array([len(out)], dtype=np.int64)
    # kept rows per segment, summed from each segment's first row; reduceat
    # would read one element for a segment without rows, so those stay 0
    has = per_segment > 0
    kept_rows = np.zeros(len(per_segment), dtype=np.int64)
    first = (np.cumsum(per_segment) - per_segment)[has]
    kept_rows[has] = np.add.reduceat(kept.view(np.uint8), first, dtype=np.int64)
    return out, rec, kept_rows * width


# ---------------------------------------------------------------------------
# phase 1: pairing


def _pairs(rows):
    """Each two-bit row's second bit, and the row read as one uint16 word."""
    rows = np.ascontiguousarray(rows)
    return rows[:, 1], rows.view(np.uint16).ravel()


def _equal(words):
    """Which pair words are equal pairs: exactly 0x0000 and 0x0101, the two
    words still above 0x00FF once 1 is subtracted (0 wraps to 0xFFFF)."""
    return words - _W1 > _W255


def phase1_round(bits, bias_pred=math.nan, round_index=0, segments=None):
    """One pairing round: keep the second bit of each equal pair.  Given
    ``segments``, pair within each and also return their output lengths.
    ``bias_pred`` is the planned output bias, recorded as given.

    ``bits`` may also be an iterator of bit arrays, every one of even length
    but the last (``thermal.sample_pieces``).  Each is paired as soon as it
    arrives and only its kept bits are stored, so the whole input never
    exists; such an input counts as one segment.
    """
    if not isinstance(bits, Iterator):
        bits = np.asarray(bits, dtype=np.uint8)
        rows, per_segment = _rows(bits, 2, segments)
        second, words = _pairs(rows)
        out, kept = _select(second, _equal, words, per_segment is not None)
        rec = _record(1, round_index, bits, out, bias_pred, 2, segments)
        return _result(out, rec, segments, kept, per_segment, 1)
    buf, n_in, ones_in = bytearray(), 0, 0
    for piece in bits:
        if n_in % 2:
            raise ValueError("only the last piece of a streamed input may have odd length")
        piece = np.asarray(piece, dtype=np.uint8)
        n_in += len(piece)
        ones_in += int(np.count_nonzero(piece))
        second, words = _pairs(piece[: len(piece) // 2 * 2].reshape(-1, 2))
        _take(buf, second, _equal(words))
    if segments is not None and np.asarray(segments).tolist() != [n_in]:
        raise ValueError("a streamed input is one segment of all its bits")
    out = _taken(buf)
    rec = _record(1, round_index, (n_in, ones_in), out, bias_pred, 2, segments)
    return _result(out, rec, segments, None, None, 1)


def phase1_run(bits, config=None, *, eps0):
    """Pairing rounds until the predicted bias passes the target.

    The round count comes from the forward orbit of the declared input bias
    ``eps0``, matching the backward-orbit count; it never adapts to the
    data.  Raises ``CoolingError`` if the population runs out before the
    planned rounds finish.
    """
    cfg = config or Phase1Config()
    bits = np.asarray(bits, dtype=np.uint8)
    orbit = analysis.forward_orbit(eps0, cfg.target_bias)
    records = []
    for r, eps_pred in enumerate(orbit[1:]):
        if len(bits) < 2:
            raise CoolingError(
                f"population exhausted after {r} pairing rounds; "
                f"{len(orbit) - 1 - r} more needed to reach bias {cfg.target_bias}"
            )
        bits, rec = phase1_round(bits, bias_pred=eps_pred, round_index=r)
        records.append(rec)
    return bits, records


# ---------------------------------------------------------------------------
# phase 2: parity binning


def phase2_round(bits, k, seed=None, bias_pred=math.nan, round_index=0, segments=None):
    """One parity-binning round.

    With a seed the bits are shuffled into bins first (the rerandomization
    belongs to the experimenter); ``seed=None`` keeps fixed consecutive
    binning, which is what the compiled program implements.  Bin bits beyond
    the last full bin are discarded.  With ``segments`` each segment is
    shuffled and binned on its own, in order, from one generator.
    ``bias_pred`` is the planned output bias, recorded as given.
    """
    if k < 2:
        raise ValueError("bin size must be >= 2")
    bits = np.asarray(bits, dtype=np.uint8)
    rng = None if seed is None else np.random.default_rng(seed)
    rows, per_segment = _rows(bits, k, segments, rng)
    s = rows.sum(axis=1)
    out, kept = _select(rows[:, 1:], lambda v: (v & _S1) == _S0, s, per_segment is not None)
    out = out.ravel()
    u = int(np.count_nonzero(s == _S1))
    rec = _record(2, round_index, bits, out, bias_pred, k, segments, u)
    return _result(out, rec, segments, kept, per_segment, k - 1)


@dataclass(frozen=True)
class PlannedRound:
    k: int
    delta_in: float
    delta_out: float


def phase2_plan(delta0, n):
    """Deterministic round plan: (k, predicted delta in/out) per round.

    Driven by the conservative one-round bound, starting from the declared
    input ones-fraction; halts when the prediction reaches the stationary
    level n^(-1/3) (``analysis.phase2_stationary(n)[0]``), where the mod-4
    phase's per-round loss floor 1 - 4 n^(-1/6) holds.  The plan is empty
    exactly when the input is already at or below that level.  Rounds grow
    like log log n: for n up to 10^300 no plan has more than 8.

    Bin sizes follow ``choose_k`` with no cap.  A round runs only while n >
    delta^-3, so a region's k (3, 7, 21) stays below its hi^-0.6 < n^0.2, and
    the power rule's k < n^(2/15) + 1 < n^0.2: no bin is wider than n^0.2.
    """
    if not 0.0 <= delta0 <= PHASE2_DELTA_MAX:
        raise ValueError(
            f"phase 2 needs input delta <= {PHASE2_DELTA_MAX} (bias >= {analysis.TARGET_BIAS})"
        )
    halt, _ = analysis.phase2_stationary(n)
    plan = []
    delta = delta0
    while delta > halt:
        k = choose_k(delta)
        delta_next = analysis.phase2_delta_bound(delta, k)
        plan.append(PlannedRound(k, delta, delta_next))
        delta = delta_next
    return plan


def phase2_run(bits, n, seed=0, *, delta0):
    """Run the planned parity-binning rounds with per-round reshuffles,
    entered at the declared ones-fraction ``delta0``."""
    plan = phase2_plan(delta0, n)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(len(plan)) if plan else []
    records = []
    for i, (pr, child) in enumerate(zip(plan, children)):
        bits, rec = phase2_round(
            bits, pr.k, seed=child, bias_pred=1.0 - 2.0 * pr.delta_out, round_index=i
        )
        records.append(rec)
    return bits, records


# ---------------------------------------------------------------------------
# phase 3: mod-4 counting


def phase3_round(bits, k, bias_pred=math.nan, round_index=0, segments=None):
    """One mod-4 counting round on fixed consecutive blocks of size k.

    A block passes its payload (everything beyond the first three bits) iff
    its total ones-count is divisible by 4; the three header bits are always
    consumed.  With ``segments`` no block straddles two segments.
    ``bias_pred`` is the planned output bias, recorded as given.
    """
    if k < 4:
        raise ValueError("block size must be >= 4")
    bits = np.asarray(bits, dtype=np.uint8)
    rows, per_segment = _rows(bits, k, segments)
    out, kept = _select(
        rows[:, 3:], lambda r: (r.sum(axis=1) & _S3) == _S0, rows, per_segment is not None
    )
    out = out.ravel()
    rec = _record(3, round_index, bits, out, bias_pred, k, segments)
    return _result(out, rec, segments, kept, per_segment, k - 3)


def phase3_run(bits, n, *, delta0):
    """Run the certified number of mod-4 rounds for population budget n,
    entered at the declared ones-fraction ``delta0``."""
    cert = analysis.phase3_certificate(n, delta0=delta0)
    records = []
    for r, delta in enumerate(cert.deltas[1:]):
        bits, rec = phase3_round(bits, cert.k, bias_pred=1.0 - 2.0 * delta, round_index=r)
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


def make_plan(epsilon, n, p1config=None):
    """The ``Plan`` for declared bias ``epsilon`` in (0, 1] and population n."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside (0, 1]")
    cfg = p1config or Phase1Config()
    orbit = tuple(analysis.forward_orbit(epsilon, cfg.target_bias))
    # the orbit end sits within the threshold slack of the target; clamp the
    # declared phase-2 entry level to the region maximum
    delta2 = min((1.0 - orbit[-1]) / 2.0, PHASE2_DELTA_MAX)
    phase2 = tuple(phase2_plan(delta2, n))
    cert = analysis.phase3_certificate(n, delta0=phase2[-1].delta_out if phase2 else delta2)
    return Plan(epsilon, orbit, delta2, phase2, cert)


# ---------------------------------------------------------------------------
# blocks


def block_size(n):
    """Interaction-block size: floor(n^(1/3))."""
    return max(1, thermal._icbrt(n))


def block_segments(n):
    """Lengths of consecutive interaction blocks of size floor(n^(1/3))
    covering n bits; the final block may be short."""
    return np.diff(np.append(np.arange(0, n, block_size(n)), n))


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


def _transpose(bits, lens, w):
    """Each segment, a whole number of ``w``-bit rows, read column by column;
    and the inversion count of that permutation, C(R,2)·C(w,2) summed over
    segments of R rows."""
    rows = np.asarray(lens, dtype=np.int64) // w
    inv = int(np.sum(rows * (rows - 1) // 2)) * math.comb(w, 2)
    grid = bits.reshape(-1, w)
    if len(rows) == 1:
        return grid.T.ravel(), inv
    # bit c of global row g, the (g - a)th of the R rows of a segment that
    # starts at row a, moves from g w + c to a w + c R + (g - a)
    first = np.repeat(np.cumsum(rows) - rows, rows)
    dest = np.arange(w)[:, None] * np.repeat(rows, rows) + first * (w - 1) + np.arange(len(first))
    out = np.empty_like(bits)
    out[dest.ravel()] = grid.T.ravel()
    return out, inv


def _arch_gather_cost(n):
    return {"single": n * n, "two_tape": 6 * n, "two_tape_ca": n}


def pipeline(model, n, seed, mode="binomial-direct", p1config=None):
    """End-to-end run: sample, (permute), cool in three phases, gather; a
    direct run pairs its sample as it is drawn.

    ``binomial-direct`` skips the initial permutation and runs the phases on
    the whole population; it takes a binomial source only, since a
    correlated one leaves ones in the clean prefix.  When the plan has a
    pairing round, the sample is drawn one slice of pairs at a time
    (``thermal.sample_pieces``) and the first round pairs each piece as it
    is drawn, so the n sampled bits are never held at once; the bits,
    records and steps are those of pairing the whole sample.
    ``shuffled-blocks`` applies a spreading permutation and confines every
    phase to interaction blocks of size n^(1/3); the flat output of the last
    round is the gathered prefix.  When n is a perfect cube the spread is
    the stride permutation, taken as one strided read
    (``thermal.stride_spread``); otherwise it is a seeded uniform
    permutation, applied through its destination map.  This is the layout
    the correlated-source analysis needs, but at desk scales the blocks'
    populations fall below the bin sizes and the yield can be 0, which
    ``spinref pipeline`` reports with exit code 2.  Either way each round
    is one call on the flat bits.
    When the plan has a parity-binning round, phase 3 first reads each
    segment's phase-2 output column by column, as rows of the last bin's
    payload width, so the bits it cuts into blocks are not the pairs of one
    bin; this fixed transpose of the phase-2 output is charged like an
    initial permutation of that many bits.

    Step totals are tracked for three cost models: ``single`` (one tape),
    ``two_tape`` (linear-time terminal gather, n^(4/3) initial permutation)
    and ``two_tape_ca`` (block-parallel rounds, linear permutations).
    """
    if mode not in ("binomial-direct", "shuffled-blocks"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "binomial-direct" and model.kind != "binomial":
        raise ValueError(f"binomial-direct needs a binomial source, not {model.kind!r}")
    plan = make_plan(model.epsilon, n, p1config)
    steps = {"single": 0, "two_tape": 0, "two_tape_ca": 0}

    if mode == "binomial-direct":
        lens = np.array([n], dtype=np.int64)
        if len(plan.orbit) > 1:
            bits = thermal.sample_pieces(model, n, seed, 2 * _SLICE)
        else:
            bits = thermal.sample(model, n, seed)
    else:
        bits = thermal.sample(model, n, seed)
        if thermal._icbrt(n) ** 3 == n:
            bits = thermal.stride_spread(bits)
            inv = thermal.stride_inversions(n)
        else:
            perm = thermal.uniform_random_perm(n, np.random.SeedSequence((seed, 0xA11CE)))
            bits = perms.apply_to(bits, perm)
            inv = perms.count_inversions(perm)
        for arch, c in _arch_init_cost(n, inv).items():
            steps[arch] += c
        lens = block_segments(n)

    ss2 = np.random.SeedSequence((seed, 0x5EED2))
    rngs = [np.random.default_rng(c) for c in ss2.spawn(len(plan.phase2))]
    cert = plan.certificate
    rounds = (
        [partial(phase1_round, bias_pred=e) for e in plan.orbit[1:]],
        [partial(phase2_round, k=pr.k, seed=rng, bias_pred=1.0 - 2.0 * pr.delta_out)
         for pr, rng in zip(plan.phase2, rngs)],
        [partial(phase3_round, k=cert.k, bias_pred=1.0 - 2.0 * d) for d in cert.deltas[1:]],
    )
    records = []
    for phase, phase_rounds in enumerate(rounds, 1):
        if phase == 3 and plan.phase2:
            bits, inv = _transpose(bits, lens, plan.phase2[-1].k - 1)
            for arch, c in _arch_init_cost(len(bits), inv).items():
                steps[arch] += c
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
