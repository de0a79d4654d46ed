"""Abstract cyclic-tape machine with a head-carried two-bit register.

The machine state is a ring of n classical bits plus a two-bit register
(y1, y2) that logically travels with the head.  Five primitive families are
supported, each costing exactly one step:

* ``shift``            -- move the head one cell around the ring (O(1) offset,
                          the data never moves),
* ``apply_head_gate``  -- a reversible gate of width 2..4 acting on
                          (cell[head], cell[head+1], y1, y2),
* ``measure_first``    -- read the bit currently under the head,
* ``ca_parallel_gate`` -- one synchronous pulse applying a width-2 gate to
                          every cell pair (l*k, l*k+1) in head-relative
                          coordinates,
* ``swap_register``    -- exchange y1 or y2 with the cell under the head.

All primitives are bijections on the global state, so any program built from
them is reversible.  Head-relative ("logical") index i refers to physical
cell (head + i) mod n; the bit "under the head" is logical index 0.

The step cost of a parallel pulse is charged as 1, the same as a single head
gate; nothing in the model pins this choice down, so it is a convention of
this simulator.

Programs are oblivious: where each primitive acts never depends on the
data.  ``lower`` uses that to resolve the head statically, once per program
and tape size, and ``execute``, ``trace`` and compiled programs all run the
lowered form through one executor loop; every wire rearrangement
(``SWAP2`` and other renaming gates, ``SWAPREG``) lowers to one action, a
renaming of list slots.  The primitives above are the reference semantics
it is tested against; they, ``encode`` and ``text_to_program`` refuse a
bad instruction through one statement of the rules, ``_check``.  The
compiler builds each round's ``Lowered`` from the round's parts, and its
codes and text from one run list, without a walk over its steps;
``lower``, ``program_to_text`` and ``compiler._emit_deinterleave`` are
the references they are tested against.

A program is an iterable of instructions or ``encode``'s form of one: a
table of its distinct instructions and one integer code per step (uint8
in a compiled round).
``lower``, ``trace`` and ``program_to_text`` work on that form, so each
distinct instruction is checked and printed once, however often it runs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ReversibleGate",
    "TapeState",
    "new_tape",
    "shift",
    "apply_head_gate",
    "measure_first",
    "ca_parallel_gate",
    "swap_register",
    "Shift",
    "Gate",
    "SwapReg",
    "Measure",
    "CA",
    "Encoded",
    "encode",
    "Lowered",
    "lower",
    "execute",
    "trace",
    "invert_program",
    "program_to_text",
    "text_to_program",
    "GATES",
]


# ---------------------------------------------------------------------------
# gates


def _bits(index, width):
    """The ``width`` bits of table index ``index``, most significant first."""
    return tuple((index >> (width - 1 - j)) & 1 for j in range(width))


def _index(bits):
    """The table index of a bit tuple, the inverse of ``_bits``."""
    i = 0
    for b in bits:
        i = 2 * i + int(b)
    return i


@dataclass(frozen=True, slots=True)
class ReversibleGate:
    """A bijection on bit tuples of width 2, 3 or 4, a frozen value equal
    (and hashed) by width and table; the name only labels it.

    ``table[i]`` is the output index for input index ``i``, a bit tuple's
    index as ``_index`` reads it and ``_bits`` writes it: most significant
    first, so for width 2 the tuple (c1, c2) has index 2*c1 + c2, width 3
    appends y1, width 4 appends y1 then y2.  ``gate(c1, c2, ...)`` returns
    the output bits.
    """

    name: str = field(compare=False)
    width: int
    table: tuple = field(repr=False)

    def __post_init__(self):
        w, table = self.width, tuple(self.table)
        # int() would truncate 3.9 and parse "3", so only integers pass
        if any(isinstance(x, bool) or not hasattr(x, "__index__") for x in (w, *table)):
            raise ValueError(f"gate {self.name!r} needs an integer width and table entries")
        if w not in (2, 3, 4):
            raise ValueError(f"gate width must be 2, 3 or 4, got {w}")
        table = tuple(map(operator.index, table))
        if sorted(table) != list(range(1 << w)):
            raise ValueError(f"gate table for {self.name!r} is not a permutation")
        object.__setattr__(self, "width", operator.index(w))
        object.__setattr__(self, "table", table)

    def __call__(self, *bits):
        if len(bits) != self.width:
            raise ValueError(f"gate {self.name!r} takes {self.width} bits, got {len(bits)}")
        return _bits(self.table[_index(bits)], self.width)

    @classmethod
    def from_function(cls, name, width, fn):
        """Build a gate from ``fn`` mapping bit tuples to bit tuples."""
        table = []
        for i in range(1 << width):
            out = fn(*_bits(i, width))
            if len(out) != width:
                raise ValueError("gate function changed tuple width")
            table.append(_index(out))
        return cls(name, width, table)

    def inverse(self, name=None):
        inv = [0] * len(self.table)
        for i, o in enumerate(self.table):
            inv[o] = i
        return ReversibleGate(name or f"{self.name}^-1", self.width, inv)


def _mk(name, width, fn):
    return ReversibleGate.from_function(name, width, fn)


# Standard gate zoo.  c1, c2 are the cells under and after the head.
GATES = {}
for _g in [
    _mk("ID2", 2, lambda c1, c2: (c1, c2)),
    _mk("SWAP2", 2, lambda c1, c2: (c2, c1)),
    # "are they equal?" marker: c1 <- c1 xor c2 (0 marks an equal pair)
    _mk("EQMARK", 2, lambda c1, c2: (c1 ^ c2, c2)),
    # CNOT with the first cell as control
    _mk("CNOT12", 2, lambda c1, c2: (c1, c2 ^ c1)),
    # parity accumulate: y1 ^= cell under head
    _mk("PAR3", 3, lambda c1, c2, y1: (c1, c2, y1 ^ c1)),
    # deposit: cell under head ^= y1
    _mk("XDEP3", 3, lambda c1, c2, y1: (c1 ^ y1, c2, y1)),
    # mod-4 counter (y1 high, y2 low) += cell under head
    _mk("INC4", 4, lambda c1, c2, y1, y2: (c1, c2, y1 ^ (c1 & y2), y2 ^ c1)),
    _mk("DEC4", 4, lambda c1, c2, y1, y2: (c1, c2, y1 ^ (c1 & (1 - y2)), y2 ^ c1)),
    # pass-flag deposit: cell under head ^= [counter == 0]
    _mk("DEP34", 4, lambda c1, c2, y1, y2: (c1 ^ (1 - (y1 | y2)), c2, y1, y2)),
]:
    GATES[_g.name] = _g


# ---------------------------------------------------------------------------
# state


@dataclass
class TapeState:
    """Ring of n bits, head offset, register (y1, y2) and a step counter."""

    cells: np.ndarray
    head: int = 0
    register: list = field(default_factory=lambda: [0, 0])
    steps: int = 0

    @property
    def n(self):
        return len(self.cells)

    def bit(self, i):
        """Bit at logical (head-relative) index i."""
        return int(self.cells[(self.head + i) % self.n])

    def logical(self):
        """The tape contents as seen from the head."""
        if self.head % self.n == 0:
            return self.cells.copy()
        return np.roll(self.cells, -self.head)

    def snapshot(self):
        return (self.cells.tobytes(), self.head, tuple(self.register))


def new_tape(bits):
    """Fresh state: head at 0, register (0, 0), zero steps."""
    arr = np.array(bits)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("tape needs a non-empty 1-d bit sequence")
    if arr.dtype != np.uint8:
        # checked before the cast, which would turn 256 and 0.7 into 0
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("tape cells must be bits")
        arr = arr.astype(np.uint8)
    # deleting every 0 and 1 byte leaves nothing exactly when all cells are
    # bits; on a short tape this is several times cheaper than a reduction
    elif arr.tobytes().translate(None, b"\x00\x01"):
        raise ValueError("tape cells must be bits")
    return TapeState(arr, 0, [0, 0], 0)


# ---------------------------------------------------------------------------
# primitives


def shift(state, direction):
    """Move the head one cell; direction is +1 or -1."""
    _check(Shift(direction))
    state.head = (state.head + direction) % state.n
    state.steps += 1
    return state


def apply_head_gate(state, gate):
    """Apply ``gate`` to (cell[head], cell[head+1], y1, y2)[:width]."""
    n, r = state.n, gate.width - 2
    i0, i1 = state.head % n, (state.head + 1) % n
    out = gate(state.cells[i0], state.cells[i1], *state.register[:r])
    state.cells[i0], state.cells[i1] = out[:2]
    state.register[:r] = out[2:]
    state.steps += 1
    return state


def measure_first(state):
    """Read the bit under the head.  Costs one step; the state is unchanged."""
    state.steps += 1
    return int(state.cells[state.head % state.n])


def ca_parallel_gate(state, k, gate):
    """One pulse: apply a width-2 gate to every logical pair (l*k, l*k+1)."""
    _check(CA(k, gate))
    n = state.n
    if n % k:
        raise ValueError(f"spacing k={k} must divide n={n}")
    for first in range(state.head, state.head + n, k):
        a, b = first % n, (first + 1) % n
        state.cells[a], state.cells[b] = gate(state.cells[a], state.cells[b])
    state.steps += 1
    return state


def swap_register(state, which):
    """Exchange y_which (1 or 2) with the cell under the head."""
    _check(SwapReg(which))
    i = state.head % state.n
    state.register[which - 1], state.cells[i] = (
        int(state.cells[i]),
        state.register[which - 1],
    )
    state.steps += 1
    return state


# ---------------------------------------------------------------------------
# programs: instructions, and a program's encoded form


@dataclass(frozen=True)
class Shift:
    direction: int


@dataclass(frozen=True)
class Gate:
    gate: ReversibleGate


@dataclass(frozen=True)
class SwapReg:
    which: int


@dataclass(frozen=True)
class Measure:
    pass


@dataclass(frozen=True)
class CA:
    k: int
    gate: ReversibleGate


def _check(ins):
    """Raise if ``ins`` is not a valid instruction on any tape.  ``lower``
    and ``ca_parallel_gate`` add the one check that needs the tape size: a
    pulse's spacing must divide n."""
    kind = type(ins)
    if kind is Shift:
        if ins.direction not in (1, -1):
            raise ValueError("shift direction must be +1 or -1")
    elif kind is SwapReg:
        if ins.which not in (1, 2):
            raise ValueError("register index must be 1 or 2")
    elif kind is Gate or kind is CA:
        if not isinstance(ins.gate, ReversibleGate):
            raise TypeError(f"{ins!r} does not hold a ReversibleGate")
        if kind is CA:
            if ins.gate.width != 2:
                raise ValueError("parallel pulses take a width-2 gate")
            if ins.k == 1:
                raise ValueError("spacing k=1 would address overlapping pairs")
            if ins.k <= 0:
                raise ValueError(f"spacing k={ins.k} must be positive")
    elif kind is not Measure:
        raise TypeError(f"unknown instruction {ins!r}")


@dataclass(frozen=True, eq=False)
class Encoded:
    """A program as ``table``, a tuple of its distinct instruction
    instances, and ``codes``, one index into ``table`` per step.  Each
    table entry is checked once, here.  Integer codes keep their dtype
    (compiled rounds hold uint8), empty ones become intp, and any other
    dtype raises.  Iterating yields the steps' instructions; ``len()`` is
    the step count, and two programs are equal when their steps are."""

    table: tuple
    codes: np.ndarray

    def __post_init__(self):
        table = tuple(self.table)
        codes = np.asarray(self.codes)
        codes = codes if codes.size else codes.astype(np.intp)
        bad = codes.dtype.kind not in "iu" or codes.ndim != 1
        if bad or (codes.size and not 0 <= codes.min() <= codes.max() < len(table)):
            raise ValueError("codes must be a 1-d array of integer table indices")
        for ins in table:
            _check(ins)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "codes", codes)

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return map(self.table.__getitem__, self.codes.tolist())

    def __eq__(self, other):
        return isinstance(other, Encoded) and list(self) == list(other)

    __hash__ = None


def encode(program):
    """``program`` as an ``Encoded``, made in one pass over an iterable of
    instructions; an ``Encoded`` is returned as it is.  Entries are
    distinct instances, so equal instructions that print differently (two
    gates with one table and two names) keep their own lines."""
    if isinstance(program, Encoded):
        return program
    # the table holds each instance, so an id stays unique while it is in use
    index, table, codes = {}, [], []
    for ins in program:
        c = index.get(id(ins))
        if c is None:
            c = index[id(ins)] = len(table)
            table.append(ins)
        codes.append(c)
    return Encoded(table, codes)


@lru_cache(maxsize=64)
def _gate_meta(gate):
    """(wires, rows) of a gate.  ``rows`` is the table nested one input bit
    per level: ``rows[b0][b1]...`` is the output bit tuple for input bits
    b0, b1, ..., so the executor indexes it with the bits as they are and
    packs no index.  ``np.asarray(rows).reshape(-1, width)`` is the flat
    table, row i for packed input i.  ``wires[j]`` is the input wire that
    output wire j copies, or ``wires`` is None if the gate does more than
    rearrange.  Both depend only on the width and table, the gate's hash
    and equality, so equal gates share one cache entry."""
    w = gate.width
    flat = [_bits(o, w) for o in gate.table]
    rows = flat
    while len(rows) > 1:
        rows = list(zip(rows[::2], rows[1::2]))
    inputs = list(zip(*(_bits(i, w) for i in range(1 << w))))
    outputs = list(zip(*flat))
    if all(out in inputs for out in outputs):
        return tuple(inputs.index(out) for out in outputs), rows[0]
    return None, rows[0]


@dataclass(frozen=True)
class Lowered:
    """A program lowered for an n-cell tape, every position fixed in advance.

    The executor runs it on a list of n + 2 ints: the n cells as seen from
    the start head, then y1 and y2 as cells n and n + 1.  Shifts are gone.
    Wire rearrangements (renaming gates and pulses, SWAPREG) move no data:
    they are folded into a renaming of list slots, undone at the end by
    reading the slots in the order of ``gather``, a tuple, or None when no
    slot moved.  What is left in ``ops`` are table lookups on at most 4
    fixed slots, ``(width, slot..., rows)``, ``rows`` nested one input bit
    per level as ``_gate_meta`` gives it, and measurements, ``(0, slot)``.
    ``head`` is the final head offset; ``len()`` is the step count.  Two
    lowerings are equal when all of these are.
    """

    n: int
    ops: list
    gather: tuple | None
    head: int
    steps: int
    # ``gather`` as one C-level read, built once: a run on a short tape pays
    # about a third of a microsecond to build it
    _getter: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        getter = None if self.gather is None else operator.itemgetter(*self.gather)
        object.__setattr__(self, "_getter", getter)

    def __len__(self):
        return self.steps


# what lowering does with a step that is not a shift
_RENAME, _LOOKUP, _MEASURE, _PULSE = range(4)


def _action(ins, n):
    """(head move, action) of one table entry on an n-cell tape.  The action
    is a tuple led by one of the tags above, or None when the step leaves
    nothing to lower (a shift, or a gate that keeps every wire).  Wires
    are numbered as a width-4 gate's: the cells under and after the head,
    then y1 and y2.  Every head step that only rearranges wires (a
    ``SWAPREG``, ``SWAP2`` or any other renaming gate) is one rename,
    ``(_RENAME, written, read)``: wire ``written[j]`` takes what wire
    ``read[j]`` held."""
    kind = type(ins)
    if kind is Shift:
        return ins.direction, None
    if kind is SwapReg:
        r = ins.which + 1
        return 0, (_RENAME, (0, r), (r, 0))
    if kind is Measure:
        return 0, (_MEASURE,)
    g = ins.gate
    wires, rows = _gate_meta(g)
    if kind is CA and n % ins.k:
        raise ValueError(f"spacing k={ins.k} must divide n={n}")
    if wires == tuple(range(g.width)):
        return 0, None
    if kind is CA:
        return 0, (_PULSE, ins.k, wires, rows)
    if wires is None or (n == 1 and wires[0] > 1):
        # on a one-cell ring both head wires are that cell; if the first
        # output wire takes a register bit, the cell's bit lands in two
        # places, which no renaming holds
        return 0, (_LOOKUP, g.width, rows)
    return 0, (_RENAME, range(g.width), wires)


def lower(instructions, n, heads=None):
    """Lower a program (instructions, or ``encode``'s form) for an n-cell
    tape.  The head offset before each step is a cumulative sum of the
    shifts; one walk over the other steps builds the ops.  Bad
    instructions raise here, before any tape changes.  If ``heads`` is a
    list, the head offset before each step is appended to it."""
    program = encode(instructions)
    moves, actions = [], []
    for ins in program.table:
        m, act = _action(ins, n)
        moves.append(m)
        actions.append(act)
    codes = program.codes
    move = np.array(moves, dtype=np.intp)[codes]
    at = np.cumsum(move) - move
    if heads is not None:
        heads.extend((at % n).tolist())
    busy = np.flatnonzero(np.array([a is not None for a in actions], dtype=bool)[codes])
    y = (n, n + 1)
    slot = list(range(n + 2))  # list slot holding each logical position's bit
    ops = []
    for c, h in zip(codes[busy].tolist(), (at[busy] % n).tolist()):
        act = actions[c]
        tag = act[0]
        h1 = h + 1 if h + 1 < n else 0
        if tag == _RENAME:
            pos = (h, h1) + y
            src = [slot[pos[i]] for i in act[2]]
            for i, s in zip(act[1], src):
                slot[pos[i]] = s
        elif tag == _LOOKUP:
            w = act[1]
            ops.append((w, slot[h], slot[h1]) + tuple(slot[n : n + w - 2]) + (act[2],))
        elif tag == _MEASURE:
            ops.append((0, slot[h]))
        else:
            _, k, wires, rows = act
            for first in range(h, h + n, k):
                a, b = first % n, (first + 1) % n
                if wires is None:
                    ops.append((2, slot[a], slot[b], rows))
                else:
                    slot[a], slot[b] = slot[b], slot[a]
    gather = None if slot == list(range(n + 2)) else tuple(slot)
    return Lowered(n, ops, gather, int(move.sum()) % n, len(codes))


def _run(lowered, t):
    """The executor: run ``lowered`` on the list ``t`` of n + 2 bits; returns
    the final list, in logical order, and the measurements."""
    measured = []
    for op in lowered.ops:
        w = op[0]
        if w == 2:
            _, a, b, rows = op
            t[a], t[b] = rows[t[a]][t[b]]
        elif w == 3:
            _, a, b, c, rows = op
            t[a], t[b], t[c] = rows[t[a]][t[b]][t[c]]
        elif w == 4:
            _, a, b, c, d, rows = op
            t[a], t[b], t[c], t[d] = rows[t[a]][t[b]][t[c]][t[d]]
        else:
            measured.append(t[op[1]])
    if lowered._getter is not None:
        t = list(lowered._getter(t))
    return t, measured


def _execute(state, lowered):
    """Run ``lowered``, lowered for this tape's size, on ``state`` in place.
    Returns the final list of ``_run`` (the cells in logical order from the
    start head, then y1 and y2) and the measurements, so a caller that reads
    the output reads it from the list the run already holds."""
    n = state.n
    head = state.head % n
    t = state.cells.tolist()
    if head:
        t = t[head:] + t[:head]
    t, measured = _run(lowered, t + state.register)
    state.register[:] = t[n:]
    state.cells[:] = t[n - head : n] + t[: n - head] if head else t[:n]
    state.head = (head + lowered.head) % n
    state.steps += lowered.steps
    return t, measured


def execute(state, program):
    """Run a program (instructions, ``encode``'s form, or ``lower``'s result
    for this tape size) in place; returns the list of measurement results."""
    n = state.n
    if not isinstance(program, Lowered):
        program = lower(program, n)
    elif program.n != n:
        raise ValueError(f"program lowered for {program.n} cells, tape has {n}")
    return _execute(state, program)[1]


def trace(state, program):
    """Execute and record the (mnemonic, head) pair before each primitive."""
    program = encode(program)
    heads = []
    lowered = lower(program, state.n, heads)
    names = [_mnemonic(ins) for ins in program.table]
    start, n = state.head, state.n
    out = [(names[c], (start + h) % n) for c, h in zip(program.codes.tolist(), heads)]
    execute(state, lowered)
    return out


def invert_program(program):
    """The inverse primitive sequence; programs with measurements are refused."""
    inv = []
    for ins in reversed(program):
        if isinstance(ins, Shift):
            inv.append(Shift(-ins.direction))
        elif isinstance(ins, Gate):
            inv.append(Gate(ins.gate.inverse(_inverse_name(ins.gate.name))))
        elif isinstance(ins, SwapReg):
            inv.append(ins)
        elif isinstance(ins, CA):
            inv.append(CA(ins.k, ins.gate.inverse(_inverse_name(ins.gate.name))))
        else:
            raise ValueError("cannot invert a program containing measurements")
    return inv


_INVERSE_NAMES = {"INC4": "DEC4", "DEC4": "INC4"}


def _inverse_name(name):
    if name in _INVERSE_NAMES:
        return _INVERSE_NAMES[name]
    g = GATES.get(name)
    if g is not None and g.inverse() == g:
        return name
    return f"{name}^-1"


def _mnemonic(ins):
    """The line of a checked instruction."""
    kind = type(ins)
    if kind is Shift:
        return f"SHIFT {'+1' if ins.direction > 0 else '-1'}"
    if kind is Gate:
        return f"GATE {ins.gate.name}"
    if kind is SwapReg:
        return f"SWAPREG {ins.which}"
    if kind is Measure:
        return "MEASURE"
    return f"CA {ins.k} {ins.gate.name}"


def program_to_text(program):
    """One primitive per line: SHIFT +1 | GATE <id> | SWAPREG 1|2 | MEASURE | CA <k> <id>.

    ``program`` is instructions or ``encode``'s form; each distinct
    instruction is checked and printed once."""
    program = encode(program)
    lines = np.array([_mnemonic(ins) + "\n" for ins in program.table], dtype=object)
    return "".join(lines[program.codes].tolist())


def _parse(parts):
    op = parts[0]
    if op == "SHIFT":
        return Shift({"+1": 1, "-1": -1}[parts[1]])
    if op == "GATE":
        return Gate(GATES[parts[1]])
    if op == "SWAPREG":
        return SwapReg(int(parts[1]))
    if op == "MEASURE":
        return Measure()
    if op == "CA":
        return CA(int(parts[1]), GATES[parts[2]])
    raise KeyError(op)


def text_to_program(text):
    """Parse the line format back; gate ids name entries of ``GATES``.  A
    line must be exactly the text ``program_to_text`` prints for a valid
    instruction, apart from spacing.  Equal lines share one instruction
    instance, so the program encodes to one table entry per distinct line."""
    program, seen = [], {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = tuple(raw.split())
        if not parts:
            continue
        ins = seen.get(parts)
        if ins is None:
            try:
                ins = _parse(parts)
                _check(ins)
                if tuple(_mnemonic(ins).split()) != parts:
                    raise ValueError("not the line this instruction prints")
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise ValueError(f"bad trace line {lineno}: {raw!r}") from exc
            seen[parts] = ins
        program.append(ins)
    return program
