import numpy as np
import pytest

from spinref import compiler, cooling, machine, thermal
from spinref.compiler import (
    compile_phase1,
    compile_phase2_round,
    compile_phase3_round,
    equivalence_check,
    phase1_cost,
    phase2_round_cost,
    phase3_round_cost,
)
from spinref.machine import GATES, Gate


def all_inputs(width):
    xs = np.arange(2**width, dtype=np.int64)
    return ((xs[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# phase 1


def test_phase1_single_equal_pair():
    prog = compile_phase1(2)
    assert list(prog.run(np.array([0, 0], dtype=np.uint8))) == [0]
    assert list(prog.run(np.array([1, 0], dtype=np.uint8))) == []


def test_phase1_matches_abstract_exhaustive_w8():
    prog = compile_phase1(8)
    report = equivalence_check(prog, lambda b: cooling.phase1_round(b)[0], 8)
    assert report.mode == "exhaustive" and report.cases == 256
    assert report.mismatches == 0


def test_phase1_matches_abstract_odd_width():
    prog = compile_phase1(7)
    report = equivalence_check(prog, lambda b: cooling.phase1_round(b)[0], 7)
    assert report.mismatches == 0


def test_phase1_random_w64():
    prog = compile_phase1(64)
    report = equivalence_check(
        prog, lambda b: cooling.phase1_round(b)[0], 64, samples=300, seed=1
    )
    assert report.mode == "sampled" and report.mismatches == 0


def test_phase1_cost_formula_and_envelope():
    for N in (2, 3, 8, 17, 64, 129, 512):
        assert compile_phase1(N).steps == phase1_cost(N)
    ratios = [phase1_cost(N) / N**2 for N in (8, 32, 128, 512)]
    assert max(ratios) < 1.0  # quadratic envelope


# ---------------------------------------------------------------------------
# phase 2


def test_phase2_bin_passthrough():
    prog = compile_phase2_round(3, 3)
    assert list(prog.run(np.array([0, 0, 0], dtype=np.uint8))) == [0, 0]
    assert list(prog.run(np.array([0, 1, 0], dtype=np.uint8))) == []


def test_phase2_matches_abstract_exhaustive_n12_k3():
    prog = compile_phase2_round(12, 3)
    report = equivalence_check(
        prog, lambda b: cooling.phase2_round(b, 3, seed=None)[0], 12
    )
    assert report.cases == 4096 and report.mismatches == 0


def test_phase2_matches_abstract_k5_with_remainder():
    prog = compile_phase2_round(13, 5)
    report = equivalence_check(
        prog, lambda b: cooling.phase2_round(b, 5, seed=None)[0], 13
    )
    assert report.mismatches == 0


def test_phase2_cost_formula():
    for N, k in ((3, 3), (12, 3), (13, 5), (64, 7), (100, 21)):
        assert compile_phase2_round(N, k).steps == phase2_round_cost(N, k)


def test_phase2_trace_data_independent():
    prog = compile_phase2_round(12, 3)
    rng = np.random.default_rng(0)
    base = None
    for _ in range(50):
        bits = rng.integers(0, 2, 12, dtype=np.uint8)
        st = machine.new_tape(bits)
        t = machine.trace(st, prog.instructions)
        if base is None:
            base = t
        assert t == base
        assert st.steps == prog.steps


# ---------------------------------------------------------------------------
# phase 3


def test_phase3_all_zero_block():
    prog = compile_phase3_round(10, 10)
    assert list(prog.run(np.zeros(10, dtype=np.uint8))) == [0] * 7


def test_phase3_matches_abstract_clean_headers():
    # exhaustive over the 2^5 payload suffixes with first three bits zero
    prog = compile_phase3_round(8, 8)
    for x in range(32):
        bits = np.zeros(8, dtype=np.uint8)
        for j in range(5):
            bits[3 + j] = (x >> (4 - j)) & 1
        got = prog.run(bits)
        want, _ = cooling.phase3_round(bits, 8)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("N,k", [(8, 8), (12, 4), (13, 5)])
def test_phase3_machine_rule_on_whole_inputs(N, k):
    # the compiled round keeps a block iff its third header bit XOR
    # [payload count = 0 mod 4] is 1, dirty headers included
    prog = compile_phase3_round(N, k)
    for bits in all_inputs(N):
        blocks = bits[: N - N % k].reshape(-1, k)
        keep = blocks[:, 2] ^ (blocks[:, 3:].sum(axis=1) % 4 == 0)
        assert np.array_equal(prog.run(bits), blocks[keep.astype(bool), 3:].ravel())


def test_phase3_dirty_header_passes_weight_two_block():
    # the rule differs from the abstract one off clean headers
    bits = np.array([0, 0, 1, 0, 0, 0, 0, 1], dtype=np.uint8)
    assert list(compile_phase3_round(8, 8).run(bits)) == [0, 0, 0, 0, 1]
    assert list(cooling.phase3_round(bits, 8)[0]) == []


def test_phase3_counter_trace_inspection():
    # after the counting walk the register pair holds the payload ones mod 4
    k = 8
    prog = compile_phase3_round(k, k)
    # the counting walk ends right before the back-travel: find the first
    # Shift(-1) and cut there
    cut = next(
        i for i, ins in enumerate(prog.instructions) if isinstance(ins, machine.Shift)
        and ins.direction == -1
    )
    prefix = prog.instructions[:cut]
    for x in range(256):
        bits = np.array([(x >> (7 - j)) & 1 for j in range(8)], dtype=np.uint8)
        st = machine.new_tape(bits)
        machine.execute(st, prefix)
        m = int(bits[3:].sum()) % 4
        assert st.register == [m >> 1, m & 1]


def test_phase3_cost_formula():
    for N, k in ((4, 4), (10, 10), (20, 4), (100, 10), (27, 5)):
        assert compile_phase3_round(N, k).steps == phase3_round_cost(N, k)


def test_phase3_pass_flag_polarity():
    # the deposited third bit reads 1 = pass, matching count == 0 mod 4
    prog = compile_phase3_round(8, 8)
    clean = np.zeros(8, dtype=np.uint8)
    _, st = prog.run(clean, return_state=True)
    cells = st.logical()
    residue = cells[5 * 1 : 5 + 3]  # B=1: payload [0,5), residue [5,8)
    assert residue[2] == 1  # all-zero block passes


# ---------------------------------------------------------------------------
# program properties


def test_programs_are_reversible():
    rng = np.random.default_rng(3)
    for prog in (compile_phase1(10), compile_phase2_round(12, 3), compile_phase3_round(12, 4)):
        bits = rng.integers(0, 2, prog.n_cells, dtype=np.uint8)
        st = machine.new_tape(bits)
        snap = st.snapshot()
        machine.execute(st, prog.instructions)
        machine.execute(st, machine.invert_program(prog.instructions))
        assert st.snapshot() == snap


def _bubble_reference(dest, passes):
    """The deinterleave as a per-comparison bubble loop over ``dest``."""
    dest = list(dest)
    swap, step = Gate(GATES["SWAP2"]), machine.Shift(1)
    program = []
    for _ in range(passes):
        for j in range(len(dest) - 1):
            if dest[j] > dest[j + 1]:
                program.append(swap)
                dest[j], dest[j + 1] = dest[j + 1], dest[j]
            program.append(step)
        program.append(step)
    if any(a > b for a, b in zip(dest, dest[1:])):
        raise AssertionError("deinterleave pass budget too small")
    return program


def _block_layouts():
    """(N, k, header) of every round in the golden program grid."""
    for N in (2, 3, 4, 7, 8, 9, 16, 31, 64, 100, 256):
        ks = sorted({2, 3, 4, 5, 7, 8, 21, N})
        rounds = [(2, 1)] + [(k, 1) for k in ks if k <= N] + [(k, 3) for k in ks if 4 <= k <= N]
        for k, h in rounds:
            yield N, k, h


def test_emitted_deinterleave_matches_the_bubble_loop():
    rng = np.random.default_rng(13)
    dests = [rng.permutation(n) for n in range(1, 201)]
    dests += [thermal.stride_shuffle_perm(m**3) for m in range(2, 7)]
    cases = [(dest, compiler._bubble_passes_needed(dest)) for dest in dests]
    cases += [(compiler._block_dest(N, k, h), h * (N // k) + 1) for N, k, h in _block_layouts()]
    for dest, passes in cases:
        assert passes == compiler._bubble_passes_needed(dest)
        emitted = compiler._emit_deinterleave(dest, passes)
        assert list(emitted) == _bubble_reference(dest, passes), len(dest)
        # passes - 1 walks sort; one fewer leaves an inversion
        compiler._emit_deinterleave(dest, passes - 1)
        if passes > 1:
            for emit in (compiler._emit_deinterleave, _bubble_reference):
                with pytest.raises(AssertionError):
                    emit(dest, passes - 2)


def test_block_layout_counts_have_a_closed_form():
    # the rounds place their swaps from these counts, not from _larger_before
    for N, k, h in _block_layouts():
        want = compiler._larger_before(compiler._block_dest(N, k, h))
        assert np.array_equal(compiler._block_left(N, k, h), want), (N, k, h)


def _every_round(N):
    yield compile_phase1(N)
    yield from (compile_phase2_round(N, k) for k in range(2, N + 1))
    yield from (compile_phase3_round(N, k) for k in range(4, N + 1))


def test_compiled_rounds_lower_like_machine_lower():
    # each round is lowered from its body and its block layout; the steps
    # it emits, lowered one by one, give an equal lowering
    count = 0
    for N in range(2, 41):
        for program in _every_round(N):
            assert program.lowered == machine.lower(program.encoded, N), (program.name, N)
            count += 1
    assert count == 1522


def test_compiled_rounds_print_like_program_to_text():
    # each round's text is built from its body and its block layout; the
    # steps it emits, printed one by one, give the same text
    rounds = [program for N in range(2, 41) for program in _every_round(N)]
    rounds += [compile_phase1(256)] + [
        build(256, k) for build in (compile_phase2_round, compile_phase3_round) for k in (4, 8, 21)
    ]
    for program in rounds:
        text = program.to_text()
        assert text == machine.program_to_text(program.encoded), (program.name, program.n_cells)
        assert text.count("\n") == program.steps


def test_hand_built_program_prints_like_the_compiled_round(monkeypatch):
    # the same steps in a program built by hand are printed by
    # machine.program_to_text, once, on first use; the compiled round only
    # prints its body, when it is built
    printed = []
    to_text = machine.program_to_text
    monkeypatch.setattr(machine, "program_to_text", lambda p: printed.append(len(p)) or to_text(p))
    for program in (compile_phase1(12), compile_phase2_round(12, 5), compile_phase3_round(12, 4)):
        hand = compiler.MachineProgram("hand", 12, program.instructions, program.live_map)
        printed.clear()
        assert hand.to_text() == hand.to_text() == program.to_text() == hand.text
        assert printed == [program.steps]


def test_hand_built_program_runs_like_the_compiled_round(monkeypatch):
    # the same steps in a program built by hand are lowered by machine.lower,
    # on their first run; the compiled round never calls it after emission
    lowerings = []
    lower = machine.lower
    monkeypatch.setattr(machine, "lower", lambda *args: lowerings.append(args[1]) or lower(*args))
    rng = np.random.default_rng(17)
    for program in (compile_phase1(12), compile_phase2_round(12, 5), compile_phase3_round(12, 4)):
        hand = compiler.MachineProgram("hand", 12, program.instructions, program.live_map)
        lowerings.clear()
        for _ in range(4):
            bits = rng.integers(0, 2, 12, dtype=np.uint8)
            want, want_state = program.run(bits, return_state=True)
            got, got_state = hand.run(bits, return_state=True)
            assert np.array_equal(got, want), program.name
            assert got_state.snapshot() == want_state.snapshot()
            assert got_state.steps == want_state.steps == program.steps
        assert lowerings == [12]
        assert hand.lowered == program.lowered


def test_register_clean_after_programs():
    rng = np.random.default_rng(4)
    for prog in (compile_phase1(9), compile_phase2_round(14, 7), compile_phase3_round(20, 5)):
        bits = rng.integers(0, 2, prog.n_cells, dtype=np.uint8)
        _, st = prog.run(bits, return_state=True)
        assert st.register == [0, 0]
        assert st.head == 0


def test_program_text_roundtrip():
    prog = compile_phase2_round(6, 3)
    text = prog.to_text()
    back = machine.text_to_program(text)
    assert back == prog.instructions


def test_equivalence_check_negative_control():
    prog = compile_phase1(6)
    # corrupt one gate: swap instead of the equality mark
    bad = [
        Gate(GATES["SWAP2"]) if isinstance(ins, Gate) and ins.gate.name == "EQMARK" and i == 0
        else ins
        for i, ins in enumerate(prog.instructions)
    ]
    broken = compiler.MachineProgram("broken", 6, bad, prog.live_map)
    report = equivalence_check(broken, lambda b: cooling.phase1_round(b)[0], 6)
    assert report.mismatches > 0
    assert report.witness is not None


def test_equivalence_identity_program():
    ident = compiler.MachineProgram(
        "id", 4, [], type("L", (), {"extract": staticmethod(lambda c: c)})()
    )
    report = equivalence_check(ident, lambda b: b, 4)
    assert report.mismatches == 0


def test_equivalence_check_enumerates_ascending_and_reports_the_first_witness():
    ident = compiler.MachineProgram(
        "id", 5, [], type("L", (), {"extract": staticmethod(lambda c: c)})()
    )
    seen = []
    wrong = {9, 20, 30}

    def abstract(b):
        seen.append(b.copy())
        x = int("".join(map(str, b)), 2)
        return 1 - b if x in wrong else b

    report = equivalence_check(ident, abstract, 5)
    assert np.array_equal(np.array(seen), all_inputs(5))
    assert report.as_dict() == {
        "mode": "exhaustive", "cases": 32, "mismatches": 3, "witness": [0, 1, 0, 0, 1],
    }
    # a result of another length is a mismatch too
    report = equivalence_check(ident, lambda b: b[:-1] if b[0] else b, 5)
    assert report.mismatches == 16 and report.witness == [1, 0, 0, 0, 0]


def test_equivalence_check_validation():
    prog = compile_phase1(8)
    with pytest.raises(ValueError):
        equivalence_check(prog, lambda b: b, 10)
    with pytest.raises(ValueError):
        equivalence_check(compile_phase1(20), lambda b: b, 20)  # needs samples
    # a sampled check of no cases would report a pass it never checked
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            equivalence_check(prog, lambda b: cooling.phase1_round(b)[0], 8, samples=samples)
    # a bool or non-integer count is refused, not reported as the case count
    for samples in (True, 2.0, "3"):
        with pytest.raises(TypeError, match="^samples must be an integer"):
            equivalence_check(prog, lambda b: cooling.phase1_round(b)[0], 8, samples=samples)
    report = equivalence_check(prog, lambda b: cooling.phase1_round(b)[0], 8, samples=np.int64(3))
    assert report.as_dict() == {"mode": "sampled", "cases": 3, "mismatches": 0, "witness": None}
    assert type(report.cases) is int


def test_costs_refuse_the_rounds_the_compilers_refuse():
    # one check serves both, so no closed form counts a round never built
    for build, cost, sizes in (
        (compile_phase1, phase1_cost, [(1,), (0,), (-4,)]),
        (compile_phase2_round, phase2_round_cost, [(4, 9), (9, 1), (9, -2)]),
        (compile_phase3_round, phase3_round_cost, [(16, 3), (3, 4), (5, 6)]),
    ):
        for args in sizes:
            for fn in (build, cost):
                with pytest.raises(ValueError, match="size must be|exceeds the"):
                    fn(*args)


def test_round_sizes_must_be_integers():
    # numpy integers pass as they are; anything else names its parameter
    program = compile_phase2_round(np.int64(9), np.int32(3))
    assert program.to_text() == compile_phase2_round(9, 3).to_text()
    assert phase3_round_cost(np.uint16(20), np.int8(5)) == phase3_round_cost(20, 5)
    for fn, args, name in (
        (compile_phase1, (2.5,), "N"),
        (phase1_cost, (2.5,), "N"),
        (compile_phase2_round, (9, 3.0), "k"),
        (phase2_round_cost, (9.0, 3), "N"),
        (compile_phase3_round, (16, "8"), "k"),
        (phase3_round_cost, (16, True), "k"),
    ):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            fn(*args)
