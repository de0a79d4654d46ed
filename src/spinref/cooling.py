"""The three-phase initialization pipeline in abstract bit-vector form.

Phase 1 (pairing) doubles the bias per round: pairs with equal bits keep
their second bit, unequal pairs are discarded.  Phase 2 (parity binning)
XORs each bin into its first bit and passes the remainder of the bin only
on even parity.  Phase 3 (mod-4 counting) passes the payload of a block iff
the block's ones-count is divisible by four.  The direct pipeline bins
consecutive bits, as the compiled round does; shuffled-blocks mode and
``spinref phase 2`` shuffle into bins.  A kept bin's ones come in pairs,
so a round that follows a parity round and bins or blocks consecutive bits
first reads its input column by column, as rows of one payload each.
Round counts and bin sizes are always driven by the deterministic analytic
recurrences, never by peeking at the data, so the machine realization stays
oblivious; the empirical trace is recorded for validation only.
``make_plan`` fixes them all in one ``Plan``, and with them each round's
predicted output bias, which the round kernels record as given (NaN when
called without a plan).  ``plan_rounds`` binds a plan's rounds, or one
phase's part of them, into one list of kernel calls, each column read
bound in as a step of the round it precedes, and ``run_rounds`` runs such
a list: ``spinref phase`` and the pipeline run no other round loop.
A round runs on a flat bit array, optionally cut into consecutive windows
of one width, the last one possibly short, that no pair, bin or block
straddles; the pipeline cuts the survivors into windows afresh before every
round.  One kernel, ``_round``, runs every round of the three phases on a
bit array; at most ``_FEW`` rows that are unshuffled and fit one window,
such as each case of an equivalence check, are decided row by row in one
loop over tuples cut from the bits' one list, where numpy's fixed cost per
call would dominate.  Every pairing round of more pairs runs packed
instead (``_pair_packed``), on ``PackedBits``, 16 bits to a uint16 chunk,
each chunk decided by one lookup in a 65,536-entry table.  The direct
pipeline's sample arrives packed, as the sampler draws it, and a
shuffled-blocks run packs its spread sample once; either stays packed
through the pairing rounds, and the next round unpacks it.

Per-round step costs are charged from the compiled-program cost formulas
(single-tape canonical); the pipeline additionally accumulates totals for
the two-tape and two-tape-plus-cellular-automaton cost models.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import analysis, compiler, perms, thermal

__all__ = [
    "RoundRecord",
    "PackedBits",
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
    """Per-round trace entry; ``u`` counts bins holding exactly one 1, and
    ``read_inv`` is the inversions of the column read before the round."""

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
    read_inv: int | None = None

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
    window in order, so the tail dropped is a random one.  The shuffles
    permute int32 indices while n fits them: the generator draws the same
    permutation for either index type, and int32 takes half the memory."""
    n = len(bits)
    q, tail = _split(n, window)
    body, last = n - tail, tail - tail % size
    index = np.int32 if n < 2**31 else np.int64
    if not q:
        if rng is not None:
            bits = bits[rng.permutation(np.arange(n, dtype=index))[:last]]
        return bits[:last].reshape(-1, size)
    full = window - window % size
    if rng is None:
        rows, rest = bits[:body].reshape(q, window)[:, :full], bits[body : body + last]
    else:
        # the same draws as q calls of rng.permutation(window)
        order = rng.permuted(np.tile(np.arange(window, dtype=index), (q, 1)), axis=1)[:, :full]
        rows = bits[order + np.arange(0, body, window, dtype=index)[:, None]]
        rest = bits[body + rng.permutation(np.arange(tail, dtype=index))[:last]]
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


# rows decided and selected per slice: a flag, or an index, over every row
# of a 10**7-bit round would take more memory than the round's output
_SLICE = 1 << 16

# unshuffled rounds of at most this many rows in one window are decided row
# by row on Python lists: at that size numpy's fixed cost per call is most
# of a round's time.  Measured on the list loop, numpy costs the same at 22
# blocks of 8 and 24 bins of 3 (16.1 and 18.4 us).  The packed pairing
# kernel, about 33 us from 17 to 1,000 pairs, costs the same near 110
# pairs, so 17 pairs take 33 us against 6.6 on lists: the price of one
# pairing kernel for every larger round
_FEW = 16


@lru_cache(maxsize=None)
def _sums(k, mask):
    """The smallest unsigned type that holds a sum of k bits, and the row
    ``mask``, 0 and 1 as scalars of that type: a Python int operand costs a
    conversion on every call, most of a microsecond per small round."""
    acc = np.min_scalar_type(k)
    return acc, acc.type(mask), acc.type(0), acc.type(1)


def _round(phase, bits, k, window, rng, bias_pred, round_index):
    """One round of ``phase`` on the bit array ``bits``, and its record.

    Every phase is one rule: cut the bits into rows of k bits (``_rows``)
    and keep a row's payload, all but its h header bits, iff the row's
    ones-count is a multiple of 2 (pairing, k = 2, and parity binning: h =
    1) or of 4 (mod-4 counting: h = 3).  At most ``_FEW`` rows, unshuffled
    in one window, are decided in one loop over tuples cut from the bits'
    one list, from which the input's ones are summed too.  Any other round
    is decided ``_SLICE`` rows at a time by the rows' sums, taken with
    ``np.einsum`` in the smallest unsigned type that holds k, so a sum is
    exact at any k.  Every kept payload is appended to one buffer as it is
    decided.  ``u``, the count of rows holding exactly one 1, is recorded
    in phase 2 only, and k in phases 2 and 3.  ``PackedBits``, as pairing
    leaves a run's sample, are unpacked.
    """
    h, mask = (3, 3) if phase == 3 else (1, 1)
    bits = bits.unpack() if isinstance(bits, PackedBits) else np.asarray(bits, np.uint8)
    n_in = len(bits)
    buf = bytearray()
    ones_out = u = 0
    if rng is None and n_in // k <= _FEW and (window is None or n_in <= window):
        cells = bits.tolist()
        ones_in = sum(cells)
        for r in zip(*[iter(cells)] * k):  # the full rows, as tuples
            s = sum(r)
            if phase == 2 and s == 1:
                u += 1
            if not s & mask:
                payload = r[h:]
                buf.extend(payload)
                ones_out += sum(payload)
    else:
        rows, ones_in = _rows(bits, k, window, rng), int(np.count_nonzero(bits))
        acc, mask, zero, one = _sums(k, mask)
        for lo in range(0, len(rows), _SLICE):
            part = rows[lo : lo + _SLICE]
            s = np.einsum("ij->i", part, dtype=acc)
            kept = part[:, h:].compress((s & mask) == zero, axis=0)
            if phase == 2:
                u += int(np.count_nonzero(s == one))
            buf += kept.data
            ones_out += int(np.count_nonzero(kept))
            del kept  # held into the next slice, it would raise the round's peak
    n_out = len(buf)
    return np.frombuffer(buf, np.uint8), RoundRecord(
        phase, round_index, n_in, n_out, ones_in, ones_out,
        _bias(ones_out, n_out), bias_pred, _steps(phase, k, n_in, window),
        u if phase == 2 else None, k if phase > 1 else None,
    )


# ---------------------------------------------------------------------------
# packed pairing


@dataclass(frozen=True)
class PackedBits:
    """n bits, 16 to a little-endian uint16 chunk, bit i of chunk j holding
    bit 16j + i.  ``blocks`` gives ``(words, m)`` pairs: an array of
    unsigned words of 16 bits or more, read as chunks in that order, and
    the count of its cells that are bits, even in every block but the
    last, so that no pair straddles two blocks.  The blocks may be made
    only when they are asked for, as the direct pipeline's sample is drawn
    (``thermal._blocks``); they are read once.  Reading them
    raises ``ValueError`` when they hold other than n cells or a block
    before the last holds an odd count."""

    blocks: Iterable
    n: int

    def _checked_blocks(self):
        """``blocks``, their cells counted as they are read."""
        seen = 0
        for words, m in self.blocks:
            if seen % 2 or seen + m > self.n:
                raise ValueError(f"PackedBits of n = {self.n}: a block of {m} cells follows "
                                 f"{seen}, an odd count or one that leaves no room for it")
            seen += m
            yield words, m
        if seen != self.n:
            raise ValueError(f"PackedBits of n = {self.n}: the blocks hold {seen} cells")

    def unpack(self):
        """The bits, one uint8 per bit."""
        return np.concatenate([thermal._cells(words, m) for words, m in self._checked_blocks()])


@lru_cache(maxsize=1)
def _tables():
    """The pairing table, built on first use, so a process that never pairs
    packed bits never holds it.

    Per 16-cell chunk it gives a little-endian uint16: the second bits of
    the chunk's equal pairs, packed from bit 0 up in pair order, in the low
    byte, and their count in the high byte.  It is built from the same
    table over bytes, the low byte's pairs first.
    """
    byte = np.arange(256, dtype=np.uint16)
    kept, count = np.zeros(256, np.uint16), np.zeros(256, np.uint16)
    for j in range(0, 8, 2):
        second = byte >> (j + 1) & 1
        equal = (byte >> j & 1) == second
        kept |= (second & equal) << count
        count += equal
    # chunk hi * 256 + lo sits at row hi, column lo
    pair = kept | kept[:, None] << count | (count + count[:, None]) << 8
    return pair.ravel().astype("<u2", copy=False)


# cells paired per call of ``_pair_chunks``: its largest temporary, the
# intp copy of the chunks that ``np.take`` indexes with, then takes 256 KiB;
# 2^20 cells per call measured faster still, but took a direct run's
# tracemalloc peak at 2^22 from 0.220 to 0.308 bytes per input bit
_PACKED_SLICE = 1 << 19


def _pair_chunks(chunks, m, out, o, pair):
    """Pair the first m cells of ``chunks``, write the kept bits into the
    uint32 words ``out`` from bit o on, where they are 0, and return the
    bit after them.

    Each chunk's kept bits and their count are the low and high byte of
    its entry in the table ``pair`` (``_tables``); the unused lanes of a
    last part chunk are read as unequal pairs 0b10, which keep nothing.
    The four chunks of each 64 cells join pairwise, then the two pairs,
    into one fragment of at most 32 bits.  The fragments' exclusive
    cumsum, plus o, is each one's bit offset: its low part lands in the
    word of that offset and its high part in the next.  The fragments'
    bits never overlap, so the sums that ``np.bincount`` takes in float64
    are their ORs, exact below 2^32.
    """
    c = -(-m // 16)
    t = np.zeros(-(-c // 4) * 4, "<u2")  # 0 = pair[0xAAAA]: no pair equal
    np.take(pair, chunks[:c], out=t[:c], mode="clip")
    if m % 16:
        full = (1 << (m & 14)) - 1  # the lanes of the last chunk's whole pairs
        t[c - 1] = pair[int(chunks[c - 1]) & full | 0xAAAA & ~full]
    t = t.view(np.uint8).reshape(-1, 2, 2, 2)  # fragment, half, chunk, byte
    kept, count = t[..., 0], t[..., 1]
    half = kept[..., 1].astype(np.uint16) << count[..., 0]
    half |= kept[..., 0]
    width = count[..., 0] + count[..., 1]
    frag = half[:, 1].astype("<u8")
    frag <<= width[:, 0]
    frag |= half[:, 0]
    start = np.empty(len(frag) + 1, np.intp)
    start[0] = o & 31
    np.add(width[:, 0], width[:, 1], out=start[1:])
    np.cumsum(start, out=start)
    frag <<= (start[:-1] & 31).view(np.uintp)
    word = start[:-1] >> 5
    size = int(word[-1]) + 2
    low, high = frag.view("<u4").reshape(-1, 2).T
    acc = np.bincount(word, weights=low, minlength=size)
    acc[1:] += np.bincount(word, weights=high, minlength=size - 1)
    out[o >> 5 : (o >> 5) + size] |= acc.astype(np.uint32)
    return o - (o & 31) + int(start[-1])


def _pack(cells):
    """The bit array ``cells`` as ``PackedBits``: one block of uint16 chunks."""
    words = np.packbits(cells, bitorder="little")
    words = np.append(words, np.uint8(0)) if len(words) % 2 else words
    return PackedBits(((words.view("<u2"), len(cells)),), len(cells))


def _pair_packed(bits, bias_pred, round_index, window):
    """``phase1_round`` on ``PackedBits`` or a bit array; the kept bits,
    one uint32 array, return in the input's form.  The cells are paired
    ``_PACKED_SLICE`` at a time (``_pair_chunks``) as one window, which
    pairs them as even windows do.  A bit array, or packed bits in odd
    windows once unpacked, is first cut into its windows' full pairs
    (``_rows``) and packed (``_pack``), and its ones counted.  Otherwise
    only the kept bits' ones are counted, with ``np.bitwise_count``: an
    unequal pair holds one 1 and an equal pair twice its kept bit, so the
    input's ones follow, with the last cell of an odd input; no lane past
    the n bits is counted.
    """
    packed = isinstance(bits, PackedBits)
    n_in = bits.n if packed else len(bits)
    ones_in = None
    if not packed or _split(n_in, window)[0] and window % 2:
        cells = bits.unpack() if packed else np.asarray(bits)
        ones_in = int(np.count_nonzero(cells))
        bits = _pack(_rows(cells, 2, window).ravel())
    pair = _tables()
    out = np.zeros(bits.n // 64 + 2, np.uint32)
    n_out = odd = 0
    for words, m in bits._checked_blocks():
        chunks = words.astype(words.dtype.newbyteorder("<"), copy=False).view("<u2")
        for lo in range(0, m, _PACKED_SLICE):
            n_out = _pair_chunks(chunks[lo // 16 :], min(_PACKED_SLICE, m - lo), out, n_out, pair)
        odd = int(chunks[(m - 1) // 16]) >> (m - 1) % 16 & 1 if m % 2 else 0
    out = out[: -(-n_out // 32)]
    ones_out = int(np.bitwise_count(out).sum())
    if ones_in is None:
        ones_in = 2 * ones_out + bits.n // 2 - n_out + odd
    out = PackedBits(((out, n_out),), n_out) if packed else thermal._cells(out, n_out)
    return out, RoundRecord(
        1, round_index, n_in, n_out, ones_in, ones_out, _bias(ones_out, n_out), bias_pred,
        _steps(1, 2, n_in, window),
    )


# ---------------------------------------------------------------------------
# phase 1: pairing


def phase1_round(bits, bias_pred=math.nan, round_index=0, window=None):
    """One pairing round: keep the second bit of each equal pair.  Given a
    ``window`` width, pair within each window of that many bits.
    ``bias_pred`` is the planned output bias, recorded as given.

    ``bits`` may be a bit array or ``PackedBits``, such as the direct
    pipeline's sample, and the kept bits come back in the same form.  More
    than ``_FEW`` pairs, or packed bits, are paired 16 at a time by table
    lookup, 2^19 cells per step, so the whole input is never held unless
    it was given whole (``_pair_packed``); fewer, row by row (``_round``).
    """
    if isinstance(bits, PackedBits) or len(bits) // 2 > _FEW:
        return _pair_packed(bits, bias_pred, round_index, window)
    return _round(1, bits, 2, window, None, bias_pred, round_index)


# ---------------------------------------------------------------------------
# phase 2: parity binning


def phase2_round(bits, k, seed=None, bias_pred=math.nan, round_index=0, window=None):
    """One parity-binning round.

    ``seed=None`` bins consecutive bits, which is what the compiled program
    does and what the direct pipeline runs.  With a seed the bits are
    shuffled into bins first, as shuffled-blocks mode and ``spinref phase
    2`` do; no compiled program performs that shuffle and no ledger line
    pays for it.  Bin bits beyond the last full bin are discarded.  With a
    ``window`` width each window of that many bits is binned on its own, in
    order, shuffled from one generator when seeded.  ``bias_pred`` is the
    planned output bias, recorded as given.
    """
    if k < 2:
        raise ValueError("bin size must be >= 2")
    rng = None if seed is None else np.random.default_rng(seed)
    return _round(2, bits, k, window, rng, bias_pred, round_index)


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
    return _round(3, bits, k, window, None, bias_pred, round_index)


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
    """The ``Plan`` for declared bias ``epsilon`` and population n, pairing
    until the predicted bias reaches phase 2's entry bias
    ``analysis.TARGET_BIAS``, where parity binning takes over.  ``epsilon``
    must lie in [``analysis.EPSILON_MIN``, 1]: below that floor the run's
    ledger cannot be formed, so no run is planned."""
    if not analysis.EPSILON_MIN <= epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside [{analysis.EPSILON_MIN:g}, 1]")
    orbit = tuple(analysis.forward_orbit(epsilon))
    # the orbit end may sit within the threshold slack below the entry
    # bias; clamp the declared phase-2 entry level to the region maximum
    delta2 = min((1.0 - orbit[-1]) / 2.0, PHASE2_DELTA_MAX)
    phase2 = tuple(phase2_plan(delta2, n))
    cert = analysis.phase3_certificate(n, delta0=phase2[-1].delta_out if phase2 else delta2)
    return Plan(epsilon, orbit, delta2, phase2, cert)


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


def _by_columns(w, round_fn, bits, window=None):
    """``round_fn`` on the bits, rows of ``w`` bits, read column by column
    in windows of w·max(1, window // w) bits (``_transpose``); the read's
    inversion count goes on the round's record as ``read_inv``."""
    bits, inv = _transpose(bits, w, None if window is None else w * max(1, window // w))
    bits, rec = round_fn(bits, window=window)
    rec.read_inv = inv
    return bits, rec


def plan_rounds(orbit=(), phase2=(), certificate=None, seed=None):
    """The planned rounds in order, each its kernel with the plan's bin or
    block size, prediction and round index bound, taking the bits and a
    ``window``: a pairing round per step of the bias ``orbit``, a
    parity-binning round per ``PlannedRound`` of ``phase2``, each shuffling
    from its own child of the root ``SeedSequence`` ``seed``, or binning
    consecutive bits when ``seed`` is None, and the mod-4 rounds of the
    ``certificate``.

    A kept bin's payload has its header bit's parity, so its ones come in
    pairs.  A round that follows a parity round and does not shuffle, each
    parity round after the first when ``seed`` is None and the first mod-4
    round, therefore first reads its input column by column as rows of that
    parity round's payload width (``_by_columns``).
    """
    children = [None] * len(phase2) if seed is None else seed.spawn(len(phase2))
    rounds = [partial(phase1_round, bias_pred=e, round_index=r) for r, e in enumerate(orbit[1:])]
    first = len(rounds)
    rounds += [
        partial(phase2_round, k=pr.k, seed=c, bias_pred=1.0 - 2.0 * pr.delta_out, round_index=r)
        for r, (pr, c) in enumerate(zip(phase2, children))
    ]
    if certificate is not None:
        rounds += [partial(phase3_round, k=certificate.k, bias_pred=1.0 - 2.0 * d, round_index=r)
                   for r, d in enumerate(certificate.deltas[1:])]
    for i, pr in enumerate(phase2, first + 1):
        if i < len(rounds) and (seed is None or i == first + len(phase2)):
            rounds[i] = partial(_by_columns, pr.k - 1, rounds[i])
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


def _arch_gather_cost(n):
    return {"single": n * n, "two_tape": 6 * n, "two_tape_ca": n}


def pipeline(model, n, seed, mode="binomial-direct"):
    """End-to-end run: sample, (permute), cool in three phases, gather; a
    direct run pairs its sample as it is drawn.  Pairing hands over to
    parity binning at the fixed bias ``analysis.TARGET_BIAS`` (``make_plan``).

    Both modes run the plan's whole round list (``plan_rounds``), column
    reads included, through one ``run_rounds`` call: every round is one
    call on the flat bits with window width m, so no pair, bin or block
    straddles two consecutive windows of m bits, the last one possibly
    short.  Each column read is charged like an initial permutation of the
    bits it moves, from the inversion count on its round's record.
    ``binomial-direct`` takes m = n, so one window, and skips the initial
    permutation; it takes a binomial source only, since a correlated one
    leaves ones in the clean prefix.  Its sample stays packed, as the
    sampler draws it 64 cells to a word, through the pairing rounds
    (``PackedBits``), and the first round after them unpacks it to one
    byte per bit.  The first round pairs each 2^20-cell draw block as it is
    drawn, so the n sampled bits are never held at once; the bits, records
    and steps are those of pairing the whole sample unpacked.  Its parity
    rounds bin consecutive bits, as the compiled round does, with no
    shuffle: a binomial sample is independent cell by cell, and so are the
    bits that pairing keeps, so consecutive bins have the law of shuffled
    ones; the payloads a parity round keeps are not, so the next parity
    round reads them by columns.
    ``shuffled-blocks`` applies a spreading permutation and takes m =
    floor(n^(1/3)), the interaction-block size; the flat output of the last
    round is the gathered prefix.  When n is a perfect cube the spread is
    the stride permutation, taken as one strided read
    (``thermal.stride_spread``); otherwise it is a seeded uniform
    permutation, applied through its destination map; the spread sample is
    then packed, as a direct run's is drawn.  Every round after the first
    regroups the survivors into fresh windows and is charged a gather of
    its input; the round records do not include that charge.
    Its parity rounds shuffle each window from their own child of the
    root ``SeedSequence((seed, 0x5EED2))`` (``phase2_round``): the shuffle
    hides a markov source's correlation (ROADMAP item 11), and no step
    count includes it.

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

    direct = mode == "binomial-direct"
    if direct:
        m = n
        bits = PackedBits(thermal._blocks(np.random.default_rng(seed), n, model.p_one), n)
    else:
        bits = thermal.sample(model, n, seed)
        if thermal._icbrt(n) ** 3 == n:
            bits = thermal.stride_spread(bits)
            inv = thermal.stride_inversions(n)
        else:
            perm = np.random.default_rng((seed, 0xA11CE)).permutation(n)
            bits = perms.apply_to(bits, perm)
            inv = perms.count_inversions(perm)
        for arch, c in _arch_init_cost(n, inv).items():
            steps[arch] += c
        m = block_size(n)
        bits = _pack(bits)

    root = None if direct else np.random.SeedSequence((seed, 0x5EED2))
    bits, records = run_rounds(bits, plan_rounds(plan.orbit, plan.phase2, plan.certificate, root), m)
    if isinstance(bits, PackedBits):  # no round after pairing: epsilon = 1
        bits = bits.unpack()
    for i, rec in enumerate(records):
        if i and not direct:
            # regroup the survivors into fresh windows
            for arch, c in _arch_gather_cost(rec.n_in).items():
                steps[arch] += c
        if rec.read_inv is not None:
            for arch, c in _arch_init_cost(rec.n_in, rec.read_inv).items():
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
