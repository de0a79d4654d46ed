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

import operator
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import machine
from .machine import GATES, Gate, Shift

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
        """The live payload of ``cells``, the final tape as a list in
        logical order, as a uint8 array.  The flags and chunks are read off
        the list: on the few blocks of an equivalence case, numpy calls
        would cost more than the reads."""
        b, w, h, keep = self.blocks, self.k - self.header, self.header, self.keep
        flags = cells[b * w + h - 1 : b * self.k : h]
        out = []
        for start, flag in zip(range(0, b * w, w), flags):
            if flag == keep:
                out += cells[start : start + w]
        return np.array(out, dtype=np.uint8)


@dataclass
class MachineProgram:
    """Oblivious primitive program plus the live map that reads its output.

    ``encoded`` may be given as a list of instructions; it is kept in
    ``machine.encode``'s form, from which the step count is taken.  A
    compiled round fills ``lowered`` and ``text`` from its parts when it is
    built; any other program derives them from ``encoded``."""

    name: str
    n_cells: int
    encoded: machine.Encoded
    live_map: object

    def __post_init__(self):
        self.encoded = machine.encode(self.encoded)

    @property
    def instructions(self):
        """The program as a list of instructions, one per step."""
        return list(self.encoded)

    @property
    def steps(self):
        return len(self.encoded)

    @cached_property
    def lowered(self):
        """The program lowered once for ``n_cells`` and shared by every run.

        A compiled round sets it when it is built, from the round's parts;
        any other program is lowered by ``machine.lower`` on first use."""
        return machine.lower(self.encoded, self.n_cells)

    def run(self, bits, return_state=False):
        """Execute on a fresh tape and extract the live output bits.  The
        live map reads the executor's final list, turned to start at the
        final head, so the cells are read out of numpy once."""
        state = machine.new_tape(bits)
        n, lowered = self.n_cells, self.lowered
        if state.n != n:
            raise ValueError(f"program expects {n} cells, got {state.n}")
        t, _ = machine._execute(state, lowered)
        head = lowered.head
        out = self.live_map.extract(t[head:n] + t[:head] if head else t[:n])
        if return_state:
            return out, state
        return out

    @cached_property
    def text(self):
        """The program's text, one line per step, as
        ``machine.program_to_text`` prints it.

        A compiled round sets it when it is built, from the round's parts;
        any other program is printed by ``machine.program_to_text`` on first
        use."""
        return machine.program_to_text(self.encoded)

    def to_text(self):
        return self.text


# ---------------------------------------------------------------------------
# fixed deinterleave schedules

# the deinterleave's table: code 0 walks the head one cell, code 1 swaps
_STEP, _SWAP = 0, 1
_DEINTERLEAVE = (Shift(1), Gate(GATES["SWAP2"]))
# its pieces as (text, code bytes): a walk, and a swap with the walk after it
_WALK = (machine.program_to_text(_DEINTERLEAVE[:1]), bytes([_STEP]))
_SWAP_WALK = (machine.program_to_text(_DEINTERLEAVE[::-1]), bytes([_SWAP, _STEP]))


def _larger_before(dest):
    """For each cell, how many keys before it are larger."""
    dest = np.asarray(dest)
    i = np.arange(len(dest))
    return np.count_nonzero((dest > dest[:, None]) & (i < i[:, None]), axis=1)


def _bubble_passes_needed(dest):
    """Exact bubble-pass count: 1 + max over cells of larger-keys-before."""
    return int(_larger_before(dest).max(initial=0)) + 1


def _emit_deinterleave(dest, passes):
    """Fixed bubble schedule that sorts ``dest``: ``passes`` full walks,
    swaps where scheduled.  It is the reference for any permutation; a
    compiled round builds the same steps for its block layout from runs.

    Each pass costs exactly n shifts (walk the ring once) plus one SWAP2
    gate before the shift at each cell j where the pass swaps; total gates
    equal the inversion count of ``dest``.  A pass carries the running
    maximum rightwards, swapping at j exactly when the largest key in
    cells 0..j is larger than the key at j + 1.  So a key with larger keys
    before it moves one cell left in each pass, and never right, until the
    last of them has passed it.  The key at cell i, with ``left[i]`` larger
    keys before it, is the swap at cell i - p of pass p = 1..left[i]; those
    are all the swaps, so pass p swaps at i - p for the cells i, in order,
    with left[i] >= p.
    """
    left = _larger_before(dest)
    n, top = len(left), int(left.max(initial=0))
    if top > passes:
        raise AssertionError("deinterleave pass budget too small")
    # row p holds pass p + 1's cells i, so their flat indices p*n + i come
    # in program order; that swap, at cell i - p - 1, follows p*n + i - p - 1
    # shifts and the swaps before it
    at = np.flatnonzero(left > np.arange(top)[:, None])
    codes = np.full(passes * n + at.size, _STEP, dtype=np.uint8)
    codes[at - at // n - 1 + np.arange(at.size)] = _SWAP
    return machine.Encoded(_DEINTERLEAVE, codes)


# ---------------------------------------------------------------------------
# one block round


def _block_dest(N, k, header):
    """Destination of each cell in the block layout: B = N // k blocks'
    payload chunks first, in block order, then their headers, then the
    leftover cells in place."""
    B, h = N // k, header
    b, j = np.arange(B)[:, None], np.arange(k)
    dest = np.where(j >= h, b * (k - h) + j - h, B * (k - h) + h * b + j)
    return np.concatenate([dest.ravel(), np.arange(B * k, N)])


def _runs(*runs):
    """The (text, code bytes) piece of ``runs``, (piece, count) pairs in
    program order."""
    return "".join(t * c for (t, _), c in runs), b"".join(s * c for (_, s), c in runs)


def _round_steps(N, k, header, body):
    """The text and the uint8 step codes of the round ``_round`` builds
    from ``body``, an ``Encoded``, as one list of runs of pieces.

    After the B bodies come the leftover shifts and h*B + 1 deinterleave
    passes.  Each payload cell of block b has h*(b + 1) larger keys before
    it and every other cell none, since the headers of blocks 0..b precede
    block b's payload and sort after it.  So pass p swaps at cell i - p
    for each payload cell i of blocks b..B-1, b = ceil(p/h) - 1: the blocks
    whose larger keys are not all past yet.  Its swaps read ``block * (B -
    b - 1) + payload`` below, from cell b*k + h - p to cell B*k - 1 - p.
    The head walks N - B*k + b*k + h - 1 cells to them, from the last body
    or the previous pass's last swap.  After pass h*B's last swap it walks
    the rest of that pass and all of the last, which only walks.
    """
    B, h = N // k, header
    payload = _runs((_SWAP_WALK, k - h))
    block = _runs((payload, 1), (_WALK, h))
    # the body's codes index the table after the deinterleave's entries
    codes = (body.codes + len(_DEINTERLEAVE)).astype(np.uint8).tobytes()
    runs = [((machine.program_to_text(body), codes), B)]
    for b in range(B):
        runs += [(_WALK, N - B * k + b * k + h - 1), (block, B - b - 1), (payload, 1)] * h
    runs.append((_WALK, 2 * N - B * k + h * B))
    text, codes = _runs(*runs)
    return text, np.frombuffer(codes, np.uint8)


def _round(name, N, k, header, body, keep):
    """``body`` on every block, then the deinterleave into the block layout.

    ``body`` walks one block from its first cell to the next block's first
    cell; one shift per leftover cell brings the head back to cell 0.  All
    h*B header cells precede the last block's payload and sort after it, so
    the bubble deinterleave needs h*B + 1 passes.

    The program's codes, text and lowering are built here from these
    parts.  One run list, ``_round_steps``, gives the codes and the text;
    they equal ``_emit_deinterleave``'s schedule after the bodies and
    leftover shifts, and ``machine.program_to_text``'s text of the steps.
    The lowering equals ``machine.lower``'s.  The body only looks up
    tables, so block b's ops are the body's ops on N cells with every cell
    slot moved b*k cells on, mod N, and the register slots N and N + 1
    kept.  The deinterleave only renames slots, so it leaves no op, and it
    ends with the head at 0 and each cell's bit at the cell
    ``_block_dest`` names: the gather is that map's inverse.  It is never
    the identity, since every header cell precedes a payload cell it sorts
    after.
    """
    B, h = N // k, header
    body = machine.encode(body)
    text, codes = _round_steps(N, k, h, body)
    program = MachineProgram(
        name, N, machine.Encoded(_DEINTERLEAVE + body.table, codes), LiveMap(B, k, h, keep)
    )
    ops = machine.lower(body, N).ops
    cells = np.array([op[1:3] for op in ops], dtype=np.intp).reshape(-1, 2)
    cells = (cells + k * np.arange(B)[:, None, None]) % N
    heads = zip([op[0] for op in ops] * B, *cells.reshape(-1, 2).T.tolist())
    ops = list(map(tuple.__add__, heads, [op[3:] for op in ops] * B))
    gather = tuple(np.argsort(_block_dest(N, k, h)).tolist()) + (N, N + 1)
    # the cached_properties' slots: runs and to_text take these, not
    # machine.lower's and machine.program_to_text's
    vars(program)["lowered"] = machine.Lowered(N, ops, gather, 0, len(codes))
    vars(program)["text"] = text
    return program


def _round_cost(N, k, header, body_len):
    """Exact step count of ``_round``: bodies, leftover shifts, h*B + 1
    deinterleave walks of N shifts, and one swap per inversion."""
    B, h = N // k, header
    return B * body_len + (N - B * k) + (h * B + 1) * N + h * (k - h) * B * (B + 1) // 2


def _integer(name, value):
    """``value`` through ``operator.index``, so numpy integers pass; a bool
    or a non-integer raises a TypeError that names ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _round_size(N, k, least, unit):
    """(N, k) as ints, checked for a round of ``unit``s of k >= ``least``
    cells with at least one whole unit on the tape: the rounds the
    compilers build and the cost closed forms count."""
    N, k = _integer("N", N), _integer("k", k)
    if k < least:
        raise ValueError(f"{unit} size must be >= {least}, got {k}")
    if k > N:
        raise ValueError(f"{unit} of {k} cells exceeds the {N}-cell tape")
    return N, k


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
    N, _ = _round_size(N, 2, 2, "pair")
    step = Shift(1)
    return _round("phase1", N, 2, 1, [Gate(GATES["EQMARK"]), step, step], keep=0)


def phase1_cost(N):
    """Exact step count of ``compile_phase1(N)``."""
    N, _ = _round_size(N, 2, 2, "pair")
    return _round_cost(N, 2, 1, 3)


def compile_phase2_round(N, k):
    """Parity-binning round with fixed consecutive bins of size k.

    Per bin: accumulate the payload parity into y1 walking right, deposit it
    into the first bin bit walking back, uncompute y1 walking right again.
    The decision bit lives in the tape (first bin cell, 0 = pass); y1
    returns to 0 so the head register is clean for the next bin.
    """
    N, k = _round_size(N, k, 2, "bin")
    par = GATES["PAR3"]
    return _round("phase2", N, k, 1, _count_walk(k, 1, par, GATES["XDEP3"], par), keep=0)


def phase2_round_cost(N, k):
    """Exact step count of ``compile_phase2_round(N, k)``."""
    N, k = _round_size(N, k, 2, "bin")
    return _round_cost(N, k, 1, 5 * k - 3)


def compile_phase3_round(N, k):
    """Mod-4 counting round with fixed consecutive blocks of size k.

    The payload count (bits 4..k of the block) accumulates mod 4 in the
    register pair, the pass flag (1 = count divisible by 4) is XORed into
    the third block bit, and the counter is uncomputed.  So the machine
    keeps a block iff its third header bit XOR [payload count = 0 mod 4]
    is 1.  That equals the abstract keep-iff-count = 0 mod 4 rule of
    ``cooling.phase3_round`` only on clean headers (first three bits 0).
    On a dirty header the two differ: here ``[0,0,1,0,0,0,0,1]`` at
    N = k = 8 passes its payload ``[0,0,0,0,1]``, which the abstract round
    drops (ROADMAP item 2).
    """
    N, k = _round_size(N, k, 4, "block")
    body = _count_walk(k, 3, GATES["INC4"], GATES["DEP34"], GATES["DEC4"])
    return _round("phase3", N, k, 3, body, keep=1)


def phase3_round_cost(N, k):
    """Exact step count of ``compile_phase3_round(N, k)``."""
    N, k = _round_size(N, k, 4, "block")
    return _round_cost(N, k, 3, 5 * k - 11)


# ---------------------------------------------------------------------------
# equivalence checking


@dataclass
class EquivReport:
    mode: str
    cases: int
    mismatches: int
    witness: list | None = None

    def as_dict(self):
        return asdict(self)


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
        samples = _integer("samples", samples)
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
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
