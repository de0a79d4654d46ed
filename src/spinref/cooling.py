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
called without a plan).  ``plan_rounds`` binds a plan's rounds, or one
phase's part of them, into one list of kernel calls, and ``run_rounds``
runs such a list: ``pipeline`` and ``spinref phase`` run no other round
loop.  A round runs on a flat bit array, optionally cut into consecutive
windows of one width, the last one possibly short, that no
pair, bin or block straddles; the pipeline cuts the survivors into windows
afresh before every round.  One kernel, ``_round``, runs every round of
the three phases, on an array or on a stream of pieces; a piece of at most
``_FEW`` rows, such as each case of an equivalence check, is decided row
by row on Python lists, where numpy's fixed cost per call would dominate.

Per-round step costs are charged from the compiled-program cost formulas
(single-tape canonical); the pipeline additionally accumulates totals for
the two-tape and two-tape-plus-cellular-automaton cost models.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import analysis, compiler, perms, thermal

__all__ = [
    "RoundRecord",
    "Plan",
    "make_plan",
    "plan_rounds",
    "run_rounds",
    "choose_k",
    "phase1_round",
    "phase2_round",
    "phase2_plan",
    "phase3_round",
    "block_size",
    "pipeline",
    "PipelineResult",
]


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
# windows: the layout every round kernel shares


def _split(length, window):
    """(q, tail): ``length`` bits cut into q full windows of ``window`` bits
    and a short last window of ``tail`` bits; (0, length) when they fit one
    window, which they always do when ``window`` is None."""
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window is None or length <= window:
        return 0, length
    return divmod(length, window)


def _rows(bits, size, window, rng=None):
    """Each window's full rows of ``size`` bits, stacked into one (rows,
    size) array.  The tail beyond a window's last full row is dropped; with
    ``rng`` each window is shuffled first, one ``permutation`` draw per
    window in order, so the tail dropped is a random one."""
    n = len(bits)
    q, tail = _split(n, window)
    body, last = n - tail, tail - tail % size
    if not q:
        if rng is not None:
            bits = bits[rng.permutation(n)[:last]]
        return bits[:last].reshape(-1, size)
    full = window - window % size
    if rng is None:
        rows, rest = bits[:body].reshape(q, window)[:, :full], bits[body : body + last]
    else:
        # the same draws as q calls of rng.permutation(window)
        order = rng.permuted(np.tile(np.arange(window), (q, 1)), axis=1)[:, :full]
        rows = bits[order + np.arange(0, body, window)[:, None]]
        rest = bits[body + rng.permutation(tail)[:last]]
    return np.concatenate((rows.reshape(-1, size), rest.reshape(-1, size)))


@lru_cache(maxsize=1024)
def _cost(phase, k, n):
    """Compiled step count of one round on one window of n bits; below one
    full pair (k = 2), bin or block a window costs nothing."""
    if n < k:
        return 0
    if phase == 1:
        return compiler.phase1_cost(n)
    return (compiler.phase2_round_cost if phase == 2 else compiler.phase3_round_cost)(n, k)


@lru_cache(maxsize=1024)
def _steps(phase, k, length, window):
    """Compiled step count of one round on ``length`` bits cut into windows."""
    q, tail = _split(length, window)
    return (q * _cost(phase, k, window) if q else 0) + _cost(phase, k, tail)


# typed scalars for the pair-word test: a Python int operand costs a
# conversion on every call, most of a microsecond per small round
_W1, _W255 = np.uint16(1), np.uint16(255)

# rows decided and selected per slice: a flag, or an index, over every row
# of a 10**7-bit round would take more memory than the round's output
_SLICE = 1 << 16

# pieces of at most this many rows are decided row by row on Python lists:
# at that size numpy's fixed cost per call is most of a round's time, and
# from 24 rows on (measured) the numpy slices are faster
_FEW = 16


def _pairs(rows):
    """Each two-bit row's second bit, and the row read as one uint16 word."""
    rows = np.ascontiguousarray(rows)
    return rows[:, 1], rows.view(np.uint16).ravel()


def _equal(words):
    """Which pair words are equal pairs: exactly 0x0000 and 0x0101, the two
    words still above 0x00FF once 1 is subtracted (0 wraps to 0xFFFF)."""
    return words - _W1 > _W255


def _round(phase, pieces, k, window, rng, bias_pred, round_index):
    """One round of ``phase`` on the bits of ``pieces``, an iterable of bit
    arrays, and its record.

    Every phase is one rule: cut each piece into rows of k bits (``_rows``)
    and keep a row's payload, all but its h header bits, iff the row's
    ones-count is a multiple of 2 (pairing, k = 2, and parity binning: h =
    1) or of 4 (mod-4 counting: h = 3).  A piece of at most ``_FEW`` rows is
    decided on Python lists; a longer one ``_SLICE`` rows at a time, pairs
    read as uint16 words and other rows by their sums, taken with
    ``np.einsum`` in the smallest unsigned type that holds k, so a sum is
    exact at any k.  Every kept payload is appended to one buffer as it is
    decided, so a streamed input is never held whole, and only the last
    piece may end in a part row.  ``u``,
    the count of rows holding exactly one 1, is recorded in phase 2 only.
    """
    h, mask = (3, 3) if phase == 3 else (1, 1)
    buf = bytearray()
    n_in = ones_in = ones_out = u = 0
    for piece in pieces:
        if n_in % k:
            raise ValueError("only the last piece of a streamed input may have odd length")
        piece = np.asarray(piece, np.uint8)
        n_in += len(piece)
        ones_in += int(np.count_nonzero(piece))
        rows = _rows(piece, k, window, rng)
        if len(rows) <= _FEW:
            for r in rows.tolist():
                s = sum(r)
                if phase == 2 and s == 1:
                    u += 1
                if not s & mask:
                    payload = r[h:]
                    buf.extend(payload)
                    ones_out += sum(payload)
            continue
        if phase == 1:
            second, words = _pairs(rows)
        else:
            acc = np.min_scalar_type(k)
        for lo in range(0, len(rows), _SLICE):
            if phase == 1:
                kept = second[lo : lo + _SLICE].compress(_equal(words[lo : lo + _SLICE]))
            else:
                part = rows[lo : lo + _SLICE]
                s = np.einsum("ij->i", part, dtype=acc)
                kept = part[:, h:].compress((s & mask) == 0, axis=0)
                if phase == 2:
                    u += int(np.count_nonzero(s == 1))
            buf += kept.data
            ones_out += int(np.count_nonzero(kept))
            del kept  # held into the next slice, it would raise a direct run's peak
    n_out = len(buf)
    return np.frombuffer(buf, np.uint8), RoundRecord(
        phase, round_index, n_in, n_out, ones_in, ones_out, _bias(ones_out, n_out), bias_pred,
        _steps(phase, k, n_in, window), u if phase == 2 else None, None if phase == 1 else k,
    )


# ---------------------------------------------------------------------------
# phase 1: pairing


def phase1_round(bits, bias_pred=math.nan, round_index=0, window=None):
    """One pairing round: keep the second bit of each equal pair.  Given a
    ``window`` width, pair within each window of that many bits.
    ``bias_pred`` is the planned output bias, recorded as given.

    ``bits`` may also be an iterator of bit arrays of any lengths, every one
    even but the last, such as the draw blocks of ``thermal.sample_pieces``.
    Each is paired as soon as it arrives, ``_SLICE`` pairs at a time when it
    is long, and only its kept bits are stored, so the whole input never
    exists; such an input must fit one window.
    """
    stream = isinstance(bits, Iterator)
    out, rec = _round(1, bits if stream else (bits,), 2, window, None, bias_pred, round_index)
    if stream and _split(rec.n_in, window)[0]:
        raise ValueError(f"a streamed input must fit one window: {rec.n_in} bits, window {window}")
    return out, rec


# ---------------------------------------------------------------------------
# phase 2: parity binning


def phase2_round(bits, k, seed=None, bias_pred=math.nan, round_index=0, window=None):
    """One parity-binning round.

    With a seed the bits are shuffled into bins first (the rerandomization
    belongs to the experimenter); ``seed=None`` keeps fixed consecutive
    binning, which is what the compiled program implements.  Bin bits beyond
    the last full bin are discarded.  With a ``window`` width each window of
    that many bits is shuffled and binned on its own, in order, from one
    generator.  ``bias_pred`` is the planned output bias, recorded as given.
    """
    if k < 2:
        raise ValueError("bin size must be >= 2")
    rng = None if seed is None else np.random.default_rng(seed)
    return _round(2, (bits,), k, window, rng, bias_pred, round_index)


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


# ---------------------------------------------------------------------------
# phase 3: mod-4 counting


def phase3_round(bits, k, bias_pred=math.nan, round_index=0, window=None):
    """One mod-4 counting round on fixed consecutive blocks of size k.

    A block passes its payload (everything beyond the first three bits) iff
    its total ones-count is divisible by 4; the three header bits are always
    consumed.  With a ``window`` width no block straddles two windows of
    that many bits.  ``bias_pred`` is the planned output bias, recorded as
    given.
    """
    if k < 4:
        raise ValueError("block size must be >= 4")
    return _round(3, (bits,), k, window, None, bias_pred, round_index)


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


def make_plan(epsilon, n):
    """The ``Plan`` for declared bias ``epsilon`` in (0, 1] and population n,
    pairing until the predicted bias reaches phase 2's entry bias
    ``analysis.TARGET_BIAS``, where parity binning takes over."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside (0, 1]")
    orbit = tuple(analysis.forward_orbit(epsilon))
    # the orbit end may sit within the threshold slack below the entry
    # bias; clamp the declared phase-2 entry level to the region maximum
    delta2 = min((1.0 - orbit[-1]) / 2.0, PHASE2_DELTA_MAX)
    phase2 = tuple(phase2_plan(delta2, n))
    cert = analysis.phase3_certificate(n, delta0=phase2[-1].delta_out if phase2 else delta2)
    return Plan(epsilon, orbit, delta2, phase2, cert)


def plan_rounds(orbit=(), phase2=(), certificate=None, seed=None):
    """The planned rounds in order, each its kernel with the plan's bin or
    block size, prediction and round index bound, taking the bits and a
    ``window``: a pairing round per step of the bias ``orbit``, a
    parity-binning round per ``PlannedRound`` of ``phase2``, each shuffling
    from its own child of the root ``SeedSequence`` ``seed``, and the mod-4
    rounds of the ``certificate``."""
    children = seed.spawn(len(phase2)) if phase2 else ()
    rounds = [partial(phase1_round, bias_pred=e, round_index=r) for r, e in enumerate(orbit[1:])]
    rounds += [
        partial(phase2_round, k=pr.k, seed=c, bias_pred=1.0 - 2.0 * pr.delta_out, round_index=r)
        for r, (pr, c) in enumerate(zip(phase2, children))
    ]
    if certificate is not None:
        rounds += [partial(phase3_round, k=certificate.k, bias_pred=1.0 - 2.0 * d, round_index=r)
                   for r, d in enumerate(certificate.deltas[1:])]
    return rounds


def run_rounds(bits, rounds, window=None):
    """Run ``rounds`` (``plan_rounds``) in order, each on the survivors of
    the one before, cut afresh into windows of ``window`` bits; the last
    survivors and the records."""
    records = []
    for round_fn in rounds:
        bits, rec = round_fn(bits, window=window)
        records.append(rec)
    return bits, records


# ---------------------------------------------------------------------------
# blocks


def block_size(n):
    """Interaction-block size: floor(n^(1/3))."""
    return max(1, thermal._icbrt(n))


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


def _transpose(bits, w, window):
    """The bits, a whole number of ``w``-bit rows, cut into windows of
    ``window`` bits, a multiple of w, each window's rows read column by
    column; and the inversion count of that permutation, C(R,2)·C(w,2)
    summed over windows of R rows."""
    q, tail = _split(len(bits), window)
    body = len(bits) - tail
    inv = (q * math.comb(window // w, 2) + math.comb(tail // w, 2)) * math.comb(w, 2)
    out = bits[body:].reshape(-1, w).T.ravel()
    if q:
        out = np.concatenate((bits[:body].reshape(q, -1, w).transpose(0, 2, 1).ravel(), out))
    return out, inv


def _arch_gather_cost(n):
    return {"single": n * n, "two_tape": 6 * n, "two_tape_ca": n}


def pipeline(model, n, seed, mode="binomial-direct"):
    """End-to-end run: sample, (permute), cool in three phases, gather; a
    direct run pairs its sample as it is drawn.  Pairing hands over to
    parity binning at the fixed bias ``analysis.TARGET_BIAS`` (``make_plan``).

    Both modes run the plan's rounds (``plan_rounds``) through
    ``run_rounds``: every round is one call on the flat bits with window
    width m, so no pair, bin or block straddles two
    consecutive windows of m bits, the last one possibly short.
    ``binomial-direct`` takes m = n, so one window, and skips the initial
    permutation; it takes a binomial source only, since a correlated one
    leaves ones in the clean prefix.  When the plan has a pairing round,
    the sample is handed over one draw block of 2^20 cells at a time
    (``thermal.sample_pieces``) and the first round pairs each block as it
    arrives, so the n sampled bits are never held at once; the bits,
    records and steps are those of pairing the whole sample.
    ``shuffled-blocks`` applies a spreading permutation and takes m =
    floor(n^(1/3)), the interaction-block size; the flat output of the last
    round is the gathered prefix.  When n is a perfect cube the spread is
    the stride permutation, taken as one strided read
    (``thermal.stride_spread``); otherwise it is a seeded uniform
    permutation, applied through its destination map.  Every round after
    the first regroups the survivors into fresh windows and is charged a
    gather of its input; the round records do not include that charge.
    When the plan has a parity-binning round, phase 3 first cuts the
    phase-2 output into windows of w·max(1, m // w) bits, w the last bin's
    payload width, and reads each window column by column as rows of w
    bits, so the bits it cuts into blocks are not the pairs of one bin;
    this fixed transpose is charged like an initial permutation of that
    many bits.

    Step totals are tracked for three cost models: ``single`` (one tape),
    ``two_tape`` (linear-time terminal gather, n^(4/3) initial permutation)
    and ``two_tape_ca`` (block-parallel rounds, linear permutations).
    """
    if mode not in ("binomial-direct", "shuffled-blocks"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "binomial-direct" and model.kind != "binomial":
        raise ValueError(f"binomial-direct needs a binomial source, not {model.kind!r}")
    plan = make_plan(model.epsilon, n)
    steps = {"single": 0, "two_tape": 0, "two_tape_ca": 0}

    if mode == "binomial-direct":
        m = n
        if len(plan.orbit) > 1:
            bits = thermal.sample_pieces(model, n, seed)
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
        m = block_size(n)

    head = plan_rounds(plan.orbit, plan.phase2, seed=np.random.SeedSequence((seed, 0x5EED2)))
    bits, records = run_rounds(bits, head, m)
    if plan.phase2:
        w = plan.phase2[-1].k - 1
        bits, inv = _transpose(bits, w, w * max(1, m // w))
        for arch, c in _arch_init_cost(len(bits), inv).items():
            steps[arch] += c
    bits, mod4 = run_rounds(bits, plan_rounds(certificate=plan.certificate), m)
    records += mod4
    for i, rec in enumerate(records):
        if i and mode == "shuffled-blocks":
            # regroup the survivors into fresh windows
            for arch, c in _arch_gather_cost(rec.n_in).items():
                steps[arch] += c
        rec.steps += n
        steps["single"] += rec.steps
        steps["two_tape"] += rec.steps
        # windows run in parallel: costs grow with length, so the widest
        # window sets the pace
        steps["two_tape_ca"] += _cost(rec.phase, rec.k or 2, min(m, rec.n_in))

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
