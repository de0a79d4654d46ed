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
# live map


@dataclass(frozen=True)
class LiveMap:
    """Every round cuts the tape into B = N // k blocks of k cells, the first
    ``header`` of them holding the pass flag in their last cell.  After the
    deinterleave the payload chunks of k - header cells fill the prefix in
    block order and the headers follow; a block is live when its flag
    equals ``keep``."""

    blocks: int
    k: int
    header: int
    keep: int

    def extract(self, cells):
        b, k, h = self.blocks, self.k, self.header
        payload = cells[: b * (k - h)].reshape(b, k - h)
        flags = cells[b * (k - h) + h - 1 : b * k : h]
        return payload.compress(flags == self.keep, axis=0).ravel()


@dataclass
class MachineProgram:
    """Oblivious primitive list plus the live map that reads its output."""

    name: str
    n_cells: int
    instructions: list
    live_map: object

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
# one block round


def _round(name, N, k, header, body, keep):
    """``body`` on every block, then the deinterleave into the block layout.

    ``body`` walks one block from its first cell to the next block's first
    cell; one shift per leftover cell brings the head back to cell 0.  All
    h*B header cells precede the last block's payload and sort after it, so
    the bubble deinterleave needs h*B + 1 passes.
    """
    B, h = N // k, header
    program = body * B + [Shift(1)] * (N - B * k)
    b, j = np.arange(B)[:, None], np.arange(k)
    dest = np.where(j >= h, b * (k - h) + j - h, B * (k - h) + h * b + j)
    dest = np.concatenate([dest.ravel(), np.arange(B * k, N)])
    program.extend(_emit_deinterleave(dest, h * B + 1))
    return MachineProgram(name, N, program, LiveMap(B, k, h, keep))


def _round_cost(N, k, header, body_len):
    """Exact step count of ``_round``: bodies, leftover shifts, h*B + 1
    deinterleave walks of N shifts, and one swap per inversion."""
    B, h = N // k, header
    return B * body_len + (N - B * k) + (h * B + 1) * N + h * (k - h) * B * (B + 1) // 2


def _count_walk(k, header, count, deposit, uncount):
    """Block body of 5k - 4h + 1 steps: ``count`` over the payload into the
    register walking right, ``deposit`` the flag into the last header cell
    walking back, ``uncount`` walking right again so the register is clean
    for the next block."""
    step = Shift(1)

    def sweep(gate):
        return [gate, step] * (k - header - 1) + [gate]

    walk = [step] * header + sweep(Gate(count)) + [Shift(-1)] * (k - header)
    return walk + [Gate(deposit), step] + sweep(Gate(uncount)) + [step]


def compile_phase1(N):
    """Pairing round on N cells: mark equal pairs, deinterleave, live map.

    The marking gate sends (x1, x2) to (x1 xor x2, x2); a 0 in the first
    slot marks an equal pair whose second bit survives.  The deinterleave
    packs every second slot into the prefix and every mark into the
    trailing section, so the live prefix is the survivor sequence in order.
    """
    if N < 2:
        raise ValueError("need at least one pair")
    step = Shift(1)
    return _round("phase1", N, 2, 1, [Gate(GATES["EQMARK"]), step, step], keep=0)


def phase1_cost(N):
    """Exact step count of ``compile_phase1(N)``."""
    return _round_cost(N, 2, 1, 3)


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
    par = GATES["PAR3"]
    return _round("phase2", N, k, 1, _count_walk(k, 1, par, GATES["XDEP3"], par), keep=0)


def phase2_round_cost(N, k):
    """Exact step count of ``compile_phase2_round(N, k)``."""
    return _round_cost(N, k, 1, 5 * k - 3)


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
    body = _count_walk(k, 3, GATES["INC4"], GATES["DEP34"], GATES["DEC4"])
    return _round("phase3", N, k, 3, body, keep=1)


def phase3_round_cost(N, k):
    """Exact step count of ``compile_phase3_round(N, k)``."""
    return _round_cost(N, k, 3, 5 * k - 11)


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
