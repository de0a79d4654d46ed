"""Abstract cyclic-tape machine with a head-carried two-bit register.

The machine state is a ring of n classical bits plus a two-bit register
(y1, y2) that logically travels with the head.  Four primitive families are
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
lowered form through one executor loop.  The primitives above are the
reference semantics it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

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


class ReversibleGate:
    """A bijection on bit tuples of width 2, 3 or 4.

    ``table[i]`` is the output index for input index ``i``.  Bit tuples are
    packed most-significant-first: for width 2 the tuple (c1, c2) has index
    2*c1 + c2, width 3 appends y1, width 4 appends y1 then y2.
    """

    __slots__ = ("name", "width", "table")

    def __init__(self, name, width, table):
        if width not in (2, 3, 4):
            raise ValueError(f"gate width must be 2, 3 or 4, got {width}")
        table = tuple(int(t) for t in table)
        if sorted(table) != list(range(1 << width)):
            raise ValueError(f"gate table for {name!r} is not a permutation")
        self.name = name
        self.width = width
        self.table = table

    @classmethod
    def from_function(cls, name, width, fn):
        """Build a gate from ``fn`` mapping bit tuples to bit tuples."""
        table = []
        for i in range(1 << width):
            bits = tuple((i >> (width - 1 - j)) & 1 for j in range(width))
            out = fn(*bits)
            if len(out) != width:
                raise ValueError("gate function changed tuple width")
            table.append(sum(b << (width - 1 - j) for j, b in enumerate(out)))
        return cls(name, width, table)

    def inverse(self, name=None):
        inv = [0] * len(self.table)
        for i, o in enumerate(self.table):
            inv[o] = i
        return ReversibleGate(name or f"{self.name}^-1", self.width, inv)

    def __eq__(self, other):
        return (
            isinstance(other, ReversibleGate)
            and self.width == other.width
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.width, self.table))

    def __repr__(self):
        return f"ReversibleGate({self.name!r}, width={self.width})"


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

    def copy(self):
        return TapeState(self.cells.copy(), self.head, list(self.register), self.steps)

    def snapshot(self):
        return (self.cells.tobytes(), self.head, tuple(self.register))


def new_tape(bits):
    """Fresh state: head at 0, register (0, 0), zero steps."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("tape needs a non-empty 1-d bit sequence")
    if arr.max(initial=0) > 1:
        raise ValueError("tape cells must be bits")
    return TapeState(arr.copy())


# ---------------------------------------------------------------------------
# primitives


def shift(state, direction):
    """Move the head one cell; direction is +1 or -1."""
    if direction not in (1, -1):
        raise ValueError("shift direction must be +1 or -1")
    state.head = (state.head + direction) % state.n
    state.steps += 1
    return state


def apply_head_gate(state, gate):
    """Apply ``gate`` to (cell[head], cell[head+1], y1, y2)[:width]."""
    w = gate.width
    n = state.n
    i0 = state.head % n
    i1 = (state.head + 1) % n
    bits = [int(state.cells[i0]), int(state.cells[i1])]
    if w >= 3:
        bits.append(state.register[0])
    if w == 4:
        bits.append(state.register[1])
    packed = 0
    for b in bits:
        packed = (packed << 1) | b
    out = gate.table[packed]
    outbits = [(out >> (w - 1 - j)) & 1 for j in range(w)]
    state.cells[i0] = outbits[0]
    state.cells[i1] = outbits[1]
    if w >= 3:
        state.register[0] = outbits[2]
    if w == 4:
        state.register[1] = outbits[3]
    state.steps += 1
    return state


def measure_first(state):
    """Read the bit under the head.  Costs one step; the state is unchanged."""
    state.steps += 1
    return int(state.cells[state.head % state.n])


def ca_parallel_gate(state, k, gate):
    """One pulse: apply a width-2 gate to every logical pair (l*k, l*k+1)."""
    if gate.width != 2:
        raise ValueError("parallel pulses take a width-2 gate")
    n = state.n
    if k <= 0 or n % k != 0:
        raise ValueError(f"spacing k={k} must divide n={n}")
    if k == 1:
        raise ValueError("spacing k=1 would address overlapping pairs")
    first = (state.head + np.arange(0, n, k)) % n
    second = (first + 1) % n
    a = state.cells[first].astype(np.int64)
    b = state.cells[second].astype(np.int64)
    table = np.asarray(gate.table)
    out = table[2 * a + b]
    state.cells[first] = (out >> 1) & 1
    state.cells[second] = out & 1
    state.steps += 1
    return state


def swap_register(state, which):
    """Exchange y_which (1 or 2) with the cell under the head."""
    if which not in (1, 2):
        raise ValueError("register index must be 1 or 2")
    i = state.head % state.n
    state.register[which - 1], state.cells[i] = (
        int(state.cells[i]),
        state.register[which - 1],
    )
    state.steps += 1
    return state


# ---------------------------------------------------------------------------
# programs: a program is a list of instruction tuples


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


def _gate_meta(gate):
    """(wires, rows) of a gate.  ``rows[i]`` is the output bit tuple for
    packed input i.  ``wires[j]`` is the input wire that output wire j
    copies, or ``wires`` is None if the gate does more than rearrange."""
    w = gate.width
    rows = tuple(tuple((o >> (w - 1 - j)) & 1 for j in range(w)) for o in gate.table)
    inputs = [tuple((i >> (w - 1 - j)) & 1 for i in range(1 << w)) for j in range(w)]
    outputs = list(zip(*rows))
    if all(out in inputs for out in outputs):
        return tuple(inputs.index(out) for out in outputs), rows
    return None, rows


@dataclass(frozen=True)
class Lowered:
    """A program lowered for an n-cell tape, every position fixed in advance.

    The executor runs it on a list of n + 2 ints: the n cells as seen from
    the start head, then y1 and y2 as cells n and n + 1.  Shifts are gone.
    Wire rearrangements (SWAP2 gates and pulses, SWAPREG) move no data:
    they are folded into a renaming of list slots, undone by one ``gather``
    at the end.  What is left in ``ops`` are table lookups on at most 4
    fixed slots, ``(width, slot..., rows)``, and measurements, ``(0, slot)``.
    ``head`` is the final head offset; ``len()`` is the step count.
    """

    n: int
    ops: list
    gather: object
    head: int
    steps: int

    def __len__(self):
        return self.steps


def lower(instructions, n, heads=None):
    """Lower a program for an n-cell tape in one walk, the head offset
    tracked statically.  Bad instructions raise here, before any tape
    changes.  If ``heads`` is a list, the head offset before each
    instruction is appended to it."""
    y = (n, n + 1)
    slot = list(range(n + 2))  # list slot holding each logical position's bit
    ops = []
    meta = {}  # id(gate) -> (wires, rows, gate); holding the gate keeps its id unique
    h = steps = 0
    for ins in instructions:
        if heads is not None:
            heads.append(h)
        steps += 1
        kind = type(ins)
        if kind is Shift:
            d = ins.direction
            if d == 1:
                h = h + 1 if h + 1 < n else 0
            elif d == -1:
                h = h - 1 if h else n - 1
            else:
                raise ValueError("shift direction must be +1 or -1")
        elif kind is Gate:
            g = ins.gate
            wires, rows, _ = meta.get(id(g)) or meta.setdefault(id(g), (*_gate_meta(g), g))
            h1 = h + 1 if h + 1 < n else 0
            if wires == (1, 0):
                slot[h], slot[h1] = slot[h1], slot[h]
            elif wires is None or (n == 1 and wires[0] > 1):
                # on a one-cell ring both head wires are that cell; if the
                # first output wire takes a register bit, the cell's bit
                # lands in two places, which no renaming holds
                ops.append((g.width, slot[h], slot[h1]) + tuple(slot[n : n + g.width - 2])
                           + (rows,))
            elif wires != (0, 1):
                pos = (h, h1) + y
                src = [slot[pos[i]] for i in wires]
                for p, s in zip(pos, src):
                    slot[p] = s
        elif kind is SwapReg:
            if ins.which not in (1, 2):
                raise ValueError("register index must be 1 or 2")
            r = y[ins.which - 1]
            slot[h], slot[r] = slot[r], slot[h]
        elif kind is Measure:
            ops.append((0, slot[h]))
        elif kind is CA:
            g, k = ins.gate, ins.k
            if g.width != 2:
                raise ValueError("parallel pulses take a width-2 gate")
            if k <= 0 or n % k != 0:
                raise ValueError(f"spacing k={k} must divide n={n}")
            if k == 1:
                raise ValueError("spacing k=1 would address overlapping pairs")
            wires, rows, _ = meta.get(id(g)) or meta.setdefault(id(g), (*_gate_meta(g), g))
            for first in range(h, h + n, k):
                a, b = first % n, (first + 1) % n
                if wires == (1, 0):
                    slot[a], slot[b] = slot[b], slot[a]
                elif wires is None:
                    ops.append((2, slot[a], slot[b], rows))
        else:
            raise TypeError(f"unknown instruction {ins!r}")
    gather = None if slot == list(range(n + 2)) else itemgetter(*slot)
    return Lowered(n, ops, gather, h, steps)


def _run(lowered, t):
    """The executor: run ``lowered`` on the list ``t`` of n + 2 bits; returns
    the final list, in logical order, and the measurements."""
    measured = []
    for op in lowered.ops:
        w = op[0]
        if w == 2:
            _, a, b, rows = op
            t[a], t[b] = rows[t[a] << 1 | t[b]]
        elif w == 3:
            _, a, b, c, rows = op
            t[a], t[b], t[c] = rows[t[a] << 2 | t[b] << 1 | t[c]]
        elif w == 4:
            _, a, b, c, d, rows = op
            t[a], t[b], t[c], t[d] = rows[t[a] << 3 | t[b] << 2 | t[c] << 1 | t[d]]
        else:
            measured.append(t[op[1]])
    if lowered.gather is not None:
        t = list(lowered.gather(t))
    return t, measured


def execute(state, program):
    """Run a program (instructions, or ``lower``'s result for this tape
    size) in place; returns the list of measurement results."""
    n = state.n
    if not isinstance(program, Lowered):
        program = lower(program, n)
    elif program.n != n:
        raise ValueError(f"program lowered for {program.n} cells, tape has {n}")
    head = state.head % n
    cells = state.cells.tolist()
    t, measured = _run(program, cells[head:] + cells[:head] + list(state.register))
    state.cells[:] = t[n - head : n] + t[: n - head]
    state.register[:] = t[n:]
    state.head = (head + program.head) % n
    state.steps += program.steps
    return measured


def trace(state, program):
    """Execute and record the (mnemonic, head) pair before each primitive."""
    program = list(program)
    heads = []
    lowered = lower(program, state.n, heads)
    start = state.head
    out = [(_mnemonic(ins), (start + h) % state.n) for ins, h in zip(program, heads)]
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
    if g is not None and g.inverse("x").table == g.table:
        return name
    return f"{name}^-1"


def _mnemonic(ins):
    if isinstance(ins, Shift):
        return f"SHIFT {'+1' if ins.direction > 0 else '-1'}"
    if isinstance(ins, Gate):
        return f"GATE {ins.gate.name}"
    if isinstance(ins, SwapReg):
        return f"SWAPREG {ins.which}"
    if isinstance(ins, Measure):
        return "MEASURE"
    if isinstance(ins, CA):
        return f"CA {ins.k} {ins.gate.name}"
    raise TypeError(f"unknown instruction {ins!r}")


def program_to_text(program):
    """One primitive per line: SHIFT +1 | GATE <id> | SWAPREG 1|2 | MEASURE | CA <k> <id>."""
    # programs repeat a few instruction instances many times; each entry
    # holds its instruction, so an id stays unique while the cache lives
    cache = {}
    lines = []
    for ins in program:
        hit = cache.get(id(ins))
        if hit is None:
            hit = cache[id(ins)] = (ins, _mnemonic(ins))
        lines.append(hit[1])
    return "\n".join(lines) + ("\n" if lines else "")


def text_to_program(text):
    """Parse the line format back; gate ids name entries of ``GATES``."""
    program = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0]
        try:
            if op == "SHIFT":
                program.append(Shift(1 if parts[1] == "+1" else -1))
            elif op == "GATE":
                program.append(Gate(GATES[parts[1]]))
            elif op == "SWAPREG":
                program.append(SwapReg(int(parts[1])))
            elif op == "MEASURE":
                program.append(Measure())
            elif op == "CA":
                program.append(CA(int(parts[1]), GATES[parts[2]]))
            else:
                raise KeyError(op)
        except (KeyError, IndexError) as exc:
            raise ValueError(f"bad trace line {lineno}: {raw!r}") from exc
    return program
