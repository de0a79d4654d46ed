"""Lower the abstract phase rounds to oblivious machine-primitive programs.

Each compiled round has two parts:

1. a reversible primitive sequence that computes the round's decision flags
   in place (pair-equality marks, bin parity into the first bin bit, mod-4
   block count deposited into the third block bit) and then runs a *fixed*
   adjacent-swap deinterleave that packs all pass-candidate payload cells
   into a contiguous prefix, decision flags into a trailing section; and
2. a live map -- program metadata that says which prefix chunks are live
   given the flag cells.  Reading the flags is an oblivious measurement
   (rotate the ring past the measurement site); no primitive ever branches
   on data, so the trace is byte-identical across inputs.

The live map is what makes the output exact: a closed reversible tape
cannot erase the pair pattern, so an in-place "move survivors to a computed
boundary" map is not a bijection (two different inputs would need the same
full final state).  Discarded payload stays on the tape as addressable
garbage past the live chunks; only the live map says which chunks count.

Step counts are exact closed forms, checked against generated programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import machine
from .machine import CA, GATES, Gate, Measure, Shift, SwapReg

__all__ = [
    "MachineProgram",
    "compile_phase1",
    "compile_phase2_round",
    "compile_phase3_round",
    "phase1_cost",
    "phase2_round_cost",
    "phase3_round_cost",
    "equivalence_check",
    "EquivReport",
]


# ---------------------------------------------------------------------------
# live maps


@dataclass(frozen=True)
class PairLiveMap:
    """Pair layout after deinterleave: values [0,P), flags [P,2P); keep on 0."""

    pairs: int

    def extract(self, cells):
        p = self.pairs
        values = cells[:p]
        flags = cells[p : 2 * p]
        return values[flags == 0]


@dataclass(frozen=True)
class BinLiveMap:
    """Parity bins: payload chunks of k-1, flags after; bin passes on flag 0."""

    bins: int
    k: int

    def extract(self, cells):
        b, k = self.bins, self.k
        payload = cells[: b * (k - 1)].reshape(b, k - 1)
        flags = cells[b * (k - 1) : b * k]
        return payload[flags == 0].ravel()


@dataclass(frozen=True)
class BlockLiveMap:
    """Mod-4 blocks: payload chunks of k-3, residue triples after; the third
    residue bit is the pass flag with polarity 1 = pass."""

    blocks: int
    k: int

    def extract(self, cells):
        b, k = self.blocks, self.k
        payload = cells[: b * (k - 3)].reshape(b, k - 3)
        residue = cells[b * (k - 3) : b * k].reshape(b, 3)
        return payload[residue[:, 2] == 1].ravel()


@dataclass
class MachineProgram:
    """Oblivious primitive list plus the live map that reads its output."""

    name: str
    n_cells: int
    instructions: list
    live_map: object
    cost_class: str = "O(N^2)"

    @property
    def steps(self):
        return len(self.instructions)

    @cached_property
    def lowered(self):
        """The instructions lowered once for ``n_cells`` and shared by every
        run; ``instructions`` must not change after the first run."""
        return machine.lower(self.instructions, self.n_cells)

    def run(self, bits, return_state=False):
        """Execute on a fresh tape and extract the live output bits."""
        bits = np.asarray(bits, dtype=np.uint8)
        if len(bits) != self.n_cells:
            raise ValueError(f"program expects {self.n_cells} cells, got {len(bits)}")
        state = machine.new_tape(bits)
        machine.execute(state, self.lowered)
        out = self.live_map.extract(state.logical())
        if return_state:
            return out, state
        return out

    def to_text(self):
        return machine.program_to_text(self.instructions)


# ---------------------------------------------------------------------------
# fixed deinterleave schedules


def _bubble_passes_needed(dest):
    """Exact bubble-pass count: 1 + max over cells of larger-keys-before."""
    dest = np.asarray(dest)
    worst = 0
    for i in range(len(dest)):
        worst = max(worst, int(np.count_nonzero(dest[:i] > dest[i])))
    return worst + 1


def _emit_deinterleave(dest, passes):
    """Fixed bubble schedule: ``passes`` full walks, swaps where scheduled.

    Each pass costs exactly n shifts (walk the ring once) plus one SWAP2
    gate per executed swap; total gates equal the inversion count of
    ``dest``.  The pass count and swap sites depend only on ``dest``.
    Instructions are frozen, so one instance of each is shared.
    """
    dest = np.asarray(dest).tolist()
    n = len(dest)
    swap, step = Gate(GATES["SWAP2"]), Shift(1)
    program = []
    emit = program.append
    for _ in range(passes):
        for j in range(n - 1):
            if dest[j] > dest[j + 1]:
                emit(swap)
                dest[j], dest[j + 1] = dest[j + 1], dest[j]
            emit(step)
        emit(step)
    if any(a > b for a, b in zip(dest, dest[1:])):
        raise AssertionError("deinterleave pass budget too small")
    return program


# ---------------------------------------------------------------------------
# phase 1: pair marking + compaction


def compile_phase1(N):
    """Pairing round on N cells: mark equal pairs, deinterleave, live map.

    The marking gate sends (x1, x2) to (x1 xor x2, x2); a 0 in the first
    slot marks an equal pair whose second bit survives.  The deinterleave
    packs every second slot into the prefix and every mark into the
    trailing section, so the live prefix is the survivor sequence in order.
    """
    if N < 2:
        raise ValueError("need at least one pair")
    P = N // 2
    eq = GATES["EQMARK"]
    program = []
    for _ in range(P):
        program.append(Gate(eq))
        program.extend([Shift(1), Shift(1)])
    if N % 2:
        program.append(Shift(1))

    dest = np.empty(N, dtype=np.int64)
    for m in range(P):
        dest[2 * m] = P + m  # flag
        dest[2 * m + 1] = m  # value
    if N % 2:
        dest[N - 1] = N - 1
    program.extend(_emit_deinterleave(dest, P + 1))
    return MachineProgram("phase1", N, program, PairLiveMap(P))


def phase1_cost(N):
    """Exact step count of ``compile_phase1(N)``."""
    P = N // 2
    marking = P + 2 * P + (N % 2)
    deint = (P + 1) * N + P * (P + 1) // 2
    return marking + deint


# ---------------------------------------------------------------------------
# phase 2: parity binning


def compile_phase2_round(N, k):
    """Parity-binning round with fixed consecutive bins of size k.

    Per bin: accumulate the payload parity into y1 walking right, deposit it
    into the first bin bit walking back, uncompute y1 walking right again.
    The decision bit lives in the tape (first bin cell, 0 = pass); y1
    returns to 0 so the head register is clean for the next bin.
    """
    if k < 2:
        raise ValueError("bin size must be >= 2")
    if k > N:
        raise ValueError("bin size exceeds the tape")
    B = N // k
    par, dep = GATES["PAR3"], GATES["XDEP3"]
    program = []
    for _ in range(B):
        program.append(Shift(1))
        for j in range(k - 1):
            program.append(Gate(par))
            if j < k - 2:
                program.append(Shift(1))
        program.extend([Shift(-1)] * (k - 1))
        program.append(Gate(dep))
        program.append(Shift(1))
        for j in range(k - 1):
            program.append(Gate(par))
            if j < k - 2:
                program.append(Shift(1))
        program.append(Shift(1))
    program.extend([Shift(1)] * (N - B * k))

    dest = np.empty(N, dtype=np.int64)
    for b in range(B):
        dest[b * k] = B * (k - 1) + b  # parity flag
        for j in range(1, k):
            dest[b * k + j] = b * (k - 1) + (j - 1)  # payload
    for r in range(B * k, N):
        dest[r] = r
    program.extend(_emit_deinterleave(dest, B + 1))
    return MachineProgram("phase2", N, program, BinLiveMap(B, k))


def phase2_round_cost(N, k):
    """Exact step count of ``compile_phase2_round(N, k)``."""
    B = N // k
    bins = B * (2 * k - 1) + B * (3 * k - 2) + (N - B * k)
    deint = (B + 1) * N + (k - 1) * B * (B + 1) // 2
    return bins + deint


# ---------------------------------------------------------------------------
# phase 3: mod-4 counting


def compile_phase3_round(N, k):
    """Mod-4 counting round with fixed consecutive blocks of size k.

    The payload count (bits 4..k of the block) accumulates mod 4 in the
    register pair, the pass flag (1 = count divisible by 4) is deposited
    into the third block bit, and the counter is uncomputed.  This agrees
    with the abstract keep-iff-count==0-mod-4 rule whenever the first three
    block bits are 0; dirty headers perturb both routes the same way the
    round's error recurrence already charges for.
    """
    if k < 4:
        raise ValueError("block size must be >= 4")
    if k > N:
        raise ValueError("block size exceeds the tape")
    B = N // k
    inc, dec, dep = GATES["INC4"], GATES["DEC4"], GATES["DEP34"]
    program = []
    for _ in range(B):
        program.extend([Shift(1)] * 3)
        for j in range(k - 3):
            program.append(Gate(inc))
            if j < k - 4:
                program.append(Shift(1))
        program.extend([Shift(-1)] * (k - 3))
        program.append(Gate(dep))
        program.append(Shift(1))
        for j in range(k - 3):
            program.append(Gate(dec))
            if j < k - 4:
                program.append(Shift(1))
        program.append(Shift(1))
    program.extend([Shift(1)] * (N - B * k))

    dest = np.empty(N, dtype=np.int64)
    for b in range(B):
        for j in range(3):
            dest[b * k + j] = B * (k - 3) + 3 * b + j  # residue incl. flag
        for j in range(3, k):
            dest[b * k + j] = b * (k - 3) + (j - 3)  # payload
    for r in range(B * k, N):
        dest[r] = r
    program.extend(_emit_deinterleave(dest, 3 * B + 1))
    return MachineProgram("phase3", N, program, BlockLiveMap(B, k))


def phase3_round_cost(N, k):
    """Exact step count of ``compile_phase3_round(N, k)``."""
    B = N // k
    blocks = B * (2 * k - 5) + B * (3 * k - 6) + (N - B * k)
    deint = (3 * B + 1) * N + 3 * (k - 3) * B * (B + 1) // 2
    return blocks + deint


# ---------------------------------------------------------------------------
# equivalence checking


@dataclass
class EquivReport:
    mode: str
    cases: int
    mismatches: int
    witness: list | None = None

    @property
    def ok(self):
        return self.mismatches == 0

    def as_dict(self):
        return {
            "mode": self.mode,
            "cases": self.cases,
            "mismatches": self.mismatches,
            "witness": self.witness,
        }


def equivalence_check(program, abstract_fn, width, samples=None, seed=0):
    """Compare a compiled program against its abstract function.

    Exhaustive over all 2^width inputs for width <= 16 unless ``samples``
    forces sampling; exhaustive inputs come in ascending order, read
    most-significant bit first.  A mismatch is a result, not an error; the
    first witness input is reported.
    """
    if width != program.n_cells:
        raise ValueError("width disagrees with the program")
    exhaustive = samples is None and width <= 16
    if exhaustive:
        words = np.arange(1 << width, dtype=">u2").view(np.uint8).reshape(-1, 2)
        inputs = np.unpackbits(words, axis=1)[:, 16 - width :]
        cases = 1 << width
        mode = "exhaustive"
    else:
        if samples is None:
            raise ValueError("width > 16 needs an explicit sample count")
        rng = np.random.default_rng(seed)
        inputs = (rng.integers(0, 2, size=width, dtype=np.uint8) for _ in range(samples))
        cases = samples
        mode = "sampled"
    mismatches = 0
    witness = None
    for bits in inputs:
        got = np.asarray(program.run(bits), dtype=np.uint8)
        want = np.asarray(abstract_fn(bits), dtype=np.uint8)
        if len(got) != len(want) or got.tobytes() != want.tobytes():
            mismatches += 1
            if witness is None:
                witness = [int(b) for b in bits]
    return EquivReport(mode, cases, mismatches, witness)
