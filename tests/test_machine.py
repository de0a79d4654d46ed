import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinref import compiler, machine
from spinref.machine import (
    CA,
    GATES,
    Gate,
    Measure,
    ReversibleGate,
    Shift,
    SwapReg,
    apply_head_gate,
    ca_parallel_gate,
    execute,
    invert_program,
    measure_first,
    new_tape,
    program_to_text,
    shift,
    swap_register,
    text_to_program,
    trace,
)


def test_new_tape_echo():
    st_ = new_tape([1, 0, 1])
    assert list(st_.cells) == [1, 0, 1]
    assert st_.head == 0 and st_.register == [0, 0] and st_.steps == 0


def test_new_tape_rejects_empty_and_nonbits():
    with pytest.raises(ValueError):
        new_tape([])
    with pytest.raises(ValueError):
        new_tape([0, 2])


@pytest.mark.parametrize("bits", [np.array([256, 1, 0, 1]), [0.7, 1, 0, 1], [1, 0, -1],
                                  np.array([0, 1, 257], np.uint16), [0.0, 1.0, float("nan")]])
def test_new_tape_refuses_cells_that_are_bits_only_once_cast(bits):
    # a uint8 cast wraps 256 and 257 to 0 and 1, and truncates 0.7 to 0
    with pytest.raises(ValueError, match="tape cells must be bits"):
        new_tape(bits)


def test_compiled_run_refuses_a_cell_that_wraps_to_a_bit():
    with pytest.raises(ValueError, match="tape cells must be bits"):
        compiler.compile_phase1(4).run(np.array([256, 0, 1, 1]))


def test_new_tape_takes_bits_of_any_dtype():
    for bits in ([1, 0, 1], [True, False, True], np.array([1, 0, 1], np.int64),
                 np.array([1.0, 0.0, 1.0]), np.array([1, 0, 1], np.uint8)):
        st_ = new_tape(bits)
        assert st_.cells.dtype == np.uint8 and st_.cells.tolist() == [1, 0, 1]


def test_new_tape_steps_zero_after_construction():
    assert new_tape([0] * 8).steps == 0


def test_full_cycle_identity():
    st_ = new_tape([1, 0, 1, 1, 0])
    before = st_.logical().copy()
    for _ in range(5):
        shift(st_, 1)
    assert np.array_equal(st_.logical(), before)
    assert st_.steps == 5


def test_shift_inverse_pair():
    st_ = new_tape([1, 0, 1])
    snap = st_.snapshot()
    shift(st_, 1)
    shift(st_, -1)
    assert st_.snapshot() == snap
    assert st_.steps == 2


def test_shift_moves_head_logically():
    st_ = new_tape([0, 1, 0])  # a, b, c
    shift(st_, 1)
    assert st_.bit(0) == 1  # bit under head is b


def test_eqmark_gate_examples():
    st_ = new_tape([0, 1])
    apply_head_gate(st_, GATES["EQMARK"])
    assert list(st_.cells) == [1, 1]
    st_ = new_tape([1, 1])
    apply_head_gate(st_, GATES["EQMARK"])
    assert list(st_.cells) == [0, 1]


def test_identity_gate_counts_step():
    st_ = new_tape([1, 0])
    snap = st_.cells.copy()
    apply_head_gate(st_, GATES["ID2"])
    assert np.array_equal(st_.cells, snap)
    assert st_.steps == 1


def test_gate_table_must_be_permutation():
    with pytest.raises(ValueError):
        ReversibleGate("bad", 2, (0, 0, 1, 2))
    with pytest.raises(ValueError):
        ReversibleGate("bad", 5, tuple(range(32)))


@pytest.mark.parametrize("table", [
    [0, 1, 2, 3.9], [0.5, 1, 2, 3], [False, True, 2, 3], ["0", "1", "2", "3"],
])
def test_gate_table_entries_must_be_integers(table):
    # int() would make each of these the identity table
    with pytest.raises(ValueError, match="'g'"):
        ReversibleGate("g", 2, table)


def test_gate_width_must_be_an_integer():
    for width in (2.0, True, "2"):
        with pytest.raises(ValueError):
            ReversibleGate("g", width, [0, 1, 2, 3])
    gate = ReversibleGate("g", np.int64(2), np.arange(4))
    assert gate == GATES["ID2"] and type(gate.width) is int


def test_gate_is_a_value_of_its_width_and_table():
    a, b = ReversibleGate("a", 2, (0, 1, 3, 2)), ReversibleGate("b", 2, [0, 1, 3, 2])
    assert a == b and hash(a) == hash(b) and a != GATES["ID2"]
    assert {a: "found"}[b] == "found" and b in {a}
    assert ReversibleGate("c", 3, range(8)) != ReversibleGate("c", 2, range(4))
    with pytest.raises(AttributeError):
        a.table = GATES["ID2"].table
    with pytest.raises(AttributeError):
        a.name = "c"


def _check_call_reads_table_msb_first(gate):
    w = gate.width
    for i in range(1 << w):
        bits = tuple((i >> (w - 1 - j)) & 1 for j in range(w))
        out = gate.table[i]
        assert gate(*bits) == tuple((out >> (w - 1 - j)) & 1 for j in range(w))
    assert ReversibleGate.from_function("f", w, gate) == gate
    with pytest.raises(ValueError):
        gate(*bits, 0)


@pytest.mark.parametrize("name", sorted(GATES))
def test_gate_call_reads_its_table_most_significant_first(name):
    _check_call_reads_table_msb_first(GATES[name])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(lambda w: st.permutations(range(1 << w))))
def test_table_gate_call_reads_its_table_most_significant_first(table):
    _check_call_reads_table_msb_first(ReversibleGate("t", len(table).bit_length() - 1, table))


def test_measure_first_reads_under_head():
    st_ = new_tape([1, 0, 0])
    assert measure_first(st_) == 1
    st_ = new_tape([0, 1, 1])
    assert measure_first(st_) == 0


def test_measure_repeatable_and_counts_steps():
    st_ = new_tape([1, 0])
    a, b = measure_first(st_), measure_first(st_)
    assert a == b == 1
    assert st_.steps == 2


def test_ca_swap_spacing_two():
    st_ = new_tape([1, 0, 1, 1])  # a b c d with a=1 b=0 c=1 d=1
    ca_parallel_gate(st_, 2, GATES["SWAP2"])
    assert list(st_.cells) == [0, 1, 1, 1]


def test_ca_identity():
    st_ = new_tape([1, 0, 1, 1, 0, 0])
    snap = st_.cells.copy()
    ca_parallel_gate(st_, 2, GATES["ID2"])
    assert np.array_equal(st_.cells, snap)


def test_ca_cnot_k3_all_ones():
    # x2 ^= x1 at sites (0,1), (3,4), (6,7): ones at 1, 4, 7 flip to 0
    st_ = new_tape([1] * 9)
    ca_parallel_gate(st_, 3, GATES["CNOT12"])
    assert list(st_.cells) == [1, 0, 1, 1, 0, 1, 1, 0, 1]


def test_ca_rejects_bad_spacing():
    st_ = new_tape([0] * 9)
    with pytest.raises(ValueError):
        ca_parallel_gate(st_, 2, GATES["SWAP2"])


def test_swap_register_semantics():
    st_ = new_tape([1, 0])
    swap_register(st_, 1)
    assert st_.register[0] == 1 and st_.cells[0] == 0
    swap_register(st_, 1)
    assert st_.register[0] == 0 and st_.cells[0] == 1
    assert st_.steps == 2


def test_swap_register_equal_values_noop_but_counts():
    st_ = new_tape([1, 1])
    st_.register[1] = 1
    swap_register(st_, 2)
    assert st_.register[1] == 1 and st_.cells[0] == 1
    assert st_.steps == 1


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(8))), st.integers(0, 255))
def test_random_width3_gate_roundtrip(table, packed):
    gate = ReversibleGate("g", 3, table)
    bits = [(packed >> j) & 1 for j in range(5)]
    st_ = new_tape(bits)
    st_.register[0] = (packed >> 5) & 1
    snap = st_.snapshot()
    apply_head_gate(st_, gate)
    apply_head_gate(st_, gate.inverse())
    assert st_.snapshot() == snap


def test_primitive_inverses_restore_state():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 16, dtype=np.uint8)
    st_ = new_tape(bits)
    st_.register = [1, 0]
    snap = st_.snapshot()
    program = [
        Shift(1),
        Gate(GATES["EQMARK"]),
        SwapReg(1),
        Shift(-1),
        Gate(GATES["INC4"]),
        CA(4, GATES["SWAP2"]),
    ]
    execute(st_, program)
    execute(st_, invert_program(program))
    assert st_.snapshot() == snap


def test_ones_count_conservation():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 12, dtype=np.uint8)
    st_ = new_tape(bits)
    st_.register = [1, 1]
    total = int(bits.sum()) + 2
    for ins in [Shift(1), SwapReg(1), Shift(-1), SwapReg(2), Gate(GATES["SWAP2"])]:
        execute(st_, [ins])
        assert int(st_.cells.sum()) + sum(st_.register) == total


def test_step_accounting_equals_program_length():
    rng = np.random.default_rng(2)
    program = []
    for _ in range(200):
        program.append(
            [Shift(1), Shift(-1), Gate(GATES["SWAP2"]), SwapReg(1), Measure()][
                rng.integers(5)
            ]
        )
    st_ = new_tape(rng.integers(0, 2, 9, dtype=np.uint8))
    execute(st_, program)
    assert st_.steps == len(program)


def test_oblivious_trace_across_inputs():
    program = [Shift(1), Gate(GATES["EQMARK"]), SwapReg(2), Shift(-1), Measure()]
    traces = []
    for x in range(16):
        bits = [(x >> j) & 1 for j in range(4)]
        traces.append(trace(new_tape(bits), program))
    assert all(t == traces[0] for t in traces)


def test_trace_text_roundtrip():
    program = [
        Shift(1),
        Shift(-1),
        Gate(GATES["EQMARK"]),
        SwapReg(1),
        SwapReg(2),
        Measure(),
        CA(3, GATES["CNOT12"]),
    ]
    text = program_to_text(program)
    lines = text.splitlines()
    assert lines[0] == "SHIFT +1" and lines[1] == "SHIFT -1"
    assert lines[2] == "GATE EQMARK" and lines[5] == "MEASURE"
    assert lines[6] == "CA 3 CNOT12"
    back = text_to_program(text)
    assert back == program


def test_trace_text_rejects_garbage():
    with pytest.raises(ValueError):
        text_to_program("FROB 1\n")


@pytest.mark.parametrize(
    "line",
    ["SHIFT 1", "SHIFT +2", "SHIFT", "MEASURE 7", "GATE SWAP2 junk", "SWAPREG 3",
     "SWAPREG +1", "CA 1 SWAP2", "CA 2 PAR3", "CA 2"],
)
def test_trace_text_rejects_lines_no_instruction_prints(line):
    with pytest.raises(ValueError, match="bad trace line 2"):
        text_to_program(f"MEASURE\n{line}\nSHIFT -1\n")


# ---------------------------------------------------------------------------
# the lowered executor against the primitives, one step at a time


def _reference(state, program):
    """Measurements and (mnemonic, head) pairs of a step-by-step run."""
    measured, pairs, lines = [], [], {}
    for ins in program:
        # the line of each instance, printed once; the list keeps every
        # instance alive, so an id names one instance throughout
        line = lines.get(id(ins))
        if line is None:
            line = lines[id(ins)] = program_to_text([ins]).strip()
        pairs.append((line, state.head))
        if isinstance(ins, Shift):
            shift(state, ins.direction)
        elif isinstance(ins, Gate):
            apply_head_gate(state, ins.gate)
        elif isinstance(ins, SwapReg):
            swap_register(state, ins.which)
        elif isinstance(ins, Measure):
            measured.append(measure_first(state))
        else:
            ca_parallel_gate(state, ins.k, ins.gate)
    return measured, pairs


def _table_gate(width):
    return st.permutations(range(1 << width)).map(lambda t: ReversibleGate("t", width, t))


def _wire_gate(width):
    def build(order):
        return ReversibleGate.from_function("w", width, lambda *b: tuple(b[i] for i in order))

    return st.permutations(range(width)).map(build)


@st.composite
def _runs(draw):
    n = draw(st.integers(1, 12))
    widths = st.sampled_from([2, 3, 4])
    gates = st.one_of(
        st.sampled_from(sorted(GATES.values(), key=lambda g: g.name)),
        widths.flatmap(_table_gate),
        widths.flatmap(_wire_gate),
    )
    kinds = [
        st.sampled_from([1, -1]).map(Shift),
        gates.map(Gate),
        st.sampled_from([1, 2]).map(SwapReg),
        st.just(Measure()),
    ]
    spacings = [k for k in range(2, n + 1) if n % k == 0]
    if spacings:
        pulse_gates = st.one_of(st.just(GATES["SWAP2"]), _table_gate(2))
        kinds.append(st.builds(CA, st.sampled_from(spacings), pulse_gates))
    program = draw(st.lists(st.one_of(kinds), max_size=40))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    head = draw(st.integers(0, n - 1))
    register = draw(st.lists(st.integers(0, 1), min_size=2, max_size=2))
    steps = draw(st.integers(0, 50))
    return program, bits, head, register, steps


def _state(bits, head, register, steps):
    return machine.TapeState(np.array(bits, dtype=np.uint8), head, list(register), steps)


@settings(max_examples=300, deadline=None)
@given(_runs())
def test_execute_and_trace_match_the_primitives(run):
    program, *start = run
    want = _state(*start)
    want_measured, want_pairs = _reference(want, program)
    for runner in (execute, trace):
        got = _state(*start)
        cells, register = got.cells, got.register
        result = runner(got, program)
        if runner is execute:
            assert result == want_measured
        else:
            assert result == want_pairs
        assert got.cells is cells and got.register is register
        assert list(got.cells) == list(want.cells)
        assert (got.head, got.register, got.steps) == (want.head, want.register, want.steps)


@st.composite
def _live_runs(draw):
    """A program of ``_runs`` on a fresh tape of its bits, and a live map
    of whole blocks that fits the tape."""
    program, bits, *_ = draw(_runs())
    n = len(bits)
    k = draw(st.integers(2, max(2, n)))
    live = compiler.LiveMap(
        draw(st.integers(0, n // k)), k, draw(st.integers(1, k - 1)), draw(st.integers(0, 1))
    )
    return program, bits, live


@settings(max_examples=300, deadline=None)
@given(_live_runs())
# the final head is 2, so the live map reads the cells turned by two
@example(([Shift(1), Gate(GATES["EQMARK"]), Shift(1), SwapReg(1), Measure()],
          [1, 1, 0, 1, 0, 0], compiler.LiveMap(2, 3, 1, 0)))
def test_machine_program_run_matches_the_primitives(run):
    program, bits, live = run
    want = new_tape(bits)
    _reference(want, program)
    got_out, got = compiler.MachineProgram("hand", len(bits), program, live).run(
        np.array(bits, np.uint8), return_state=True
    )
    assert got.snapshot() == want.snapshot() and got.steps == want.steps == len(program)
    want_out = live.extract(want.logical().tolist())
    assert got_out.dtype == np.uint8 and got_out.tolist() == want_out.tolist()


@pytest.mark.parametrize(
    "bad, error",
    [
        (object(), TypeError),
        (Shift(2), ValueError),
        (SwapReg(3), ValueError),
        (CA(3, GATES["SWAP2"]), ValueError),
        (CA(2, GATES["PAR3"]), ValueError),
    ],
)
def test_bad_instruction_rejected_before_the_tape_changes(bad, error):
    st_ = new_tape([1, 0, 1, 1, 0, 0, 1, 0])
    st_.register = [1, 0]
    snap = st_.snapshot()
    program = [Shift(1), Gate(GATES["EQMARK"]), SwapReg(1), Measure(), bad]
    for runner in (execute, trace, lambda s, p: machine.lower(p, s.n)):
        with pytest.raises(error):
            runner(st_, program)
        assert st_.snapshot() == snap and st_.steps == 0


@pytest.mark.parametrize(
    "bad, error",
    [
        (object(), TypeError),
        (Gate("SWAP2"), TypeError),
        (Shift(2), ValueError),
        (Shift(0), ValueError),
        (SwapReg(3), ValueError),
        (CA(1, GATES["SWAP2"]), ValueError),
        (CA(0, GATES["SWAP2"]), ValueError),
        (CA(2, GATES["PAR3"]), ValueError),
    ],
)
def test_bad_instruction_has_no_text(bad, error):
    # what ``lower`` rejects on every tape size has no line either, so no
    # text reads back as a different, valid program
    program = [Shift(1), Gate(GATES["EQMARK"]), bad, Measure()]
    for runner in (program_to_text, lambda p: machine.lower(p, 8), machine.encode):
        with pytest.raises(error):
            runner(program)


@pytest.mark.parametrize(
    "bad",
    [
        Shift(2),
        Shift(0),
        SwapReg(3),
        SwapReg(0),
        CA(1, GATES["SWAP2"]),
        CA(0, GATES["SWAP2"]),
        CA(-2, GATES["SWAP2"]),
        CA(3, GATES["SWAP2"]),
        CA(2, GATES["PAR3"]),
    ],
)
def test_primitives_refuse_what_lower_refuses_with_its_message(bad):
    st_ = new_tape([1, 0, 1, 1, 0, 0, 1, 0])
    snap = st_.snapshot()
    with pytest.raises(ValueError) as lowered:
        machine.lower([bad], st_.n)
    with pytest.raises(ValueError) as primitive:
        if isinstance(bad, Shift):
            shift(st_, bad.direction)
        elif isinstance(bad, SwapReg):
            swap_register(st_, bad.which)
        else:
            ca_parallel_gate(st_, bad.k, bad.gate)
    assert str(primitive.value) == str(lowered.value)
    assert st_.snapshot() == snap and st_.steps == 0


def test_encoded_form_is_the_listed_program():
    # entries are instances: the shared step is one entry, equal ones are not
    step = Shift(1)
    program = [step, Gate(GATES["EQMARK"]), step, SwapReg(2), Shift(-1), Measure(), Shift(-1)]
    encoded = machine.encode(program)
    assert len(encoded.table) == 6 and encoded.codes.tolist() == [0, 1, 0, 2, 3, 4, 5]
    assert list(encoded) == program and len(encoded) == 7
    assert machine.encode(encoded) is encoded
    assert machine.Encoded(encoded.table[::-1], 5 - encoded.codes) == encoded
    assert machine.encode(program[:-1]) != encoded
    assert program_to_text(encoded) == program_to_text(program)
    # integer codes keep their dtype and empty ones are intp; others raise
    small = machine.Encoded(encoded.table, encoded.codes.astype(np.uint8))
    assert small == encoded and small.codes.dtype == np.uint8
    assert machine.Encoded(encoded.table, []).codes.dtype == np.intp
    for codes in ([0, 6], [-1], [[0]], [0.7], np.array([True])):
        with pytest.raises(ValueError):
            machine.Encoded(encoded.table, codes)


def test_lowered_program_runs_on_its_tape_size_only():
    program = [Shift(1), Gate(GATES["EQMARK"]), Measure()]
    lowered = machine.lower(program, 4)
    assert len(lowered) == 3
    st_ = new_tape([1, 1, 0, 1])
    assert execute(st_, lowered) == [1]
    assert st_.head == 1 and st_.steps == 3
    with pytest.raises(ValueError):
        execute(new_tape([0] * 5), lowered)


def test_program_to_text_takes_a_stream_of_fresh_instructions():
    # instructions made and dropped while the program streams in may reuse
    # an address; each must still print its own line
    table = list(range(4))

    def stream():
        for i in range(100):
            yield Gate(ReversibleGate(f"g{i}", 2, table))
            yield CA(2, ReversibleGate(f"c{i}", 2, table))

    text = program_to_text(stream())
    assert text == program_to_text(list(stream()))
    assert text.splitlines()[::2] == [f"GATE g{i}" for i in range(100)]
    assert program_to_text(iter([])) == program_to_text([]) == ""


def test_execute_takes_a_stream_of_fresh_gates():
    # gates made and dropped while the program streams in may reuse an
    # address; each must still run its own table
    rng = np.random.default_rng(3)
    tables = [rng.permutation(16) for _ in range(100)]

    def stream():
        for table in tables:
            yield Gate(ReversibleGate("g", 4, table))

    want = new_tape([1, 0, 1, 1, 0])
    for ins in stream():
        apply_head_gate(want, ins.gate)
    got = new_tape([1, 0, 1, 1, 0])
    execute(got, stream())
    assert got.snapshot() == want.snapshot()
