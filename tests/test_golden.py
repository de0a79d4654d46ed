"""Golden sha256 digests of CLI outputs, sampled bits and compiled programs.

The pins say that a refactor keeps the same behaviour: every byte of
``rounds.csv``/``ledger.json`` from ``spinref pipeline`` in both modes, of
``phaseN_rounds.csv``/``phaseN_summary.json`` from ``spinref phase`` and of
``analysis.json``/``parity_plan.csv`` from ``spinref analyze``, the thermal
samples of both models and the clean bits of one pipeline run, and every
compiled phase program (its text, closed-form cost and live output on seeded
tapes).  A change that is meant to alter these bytes re-pins them and says
why.
"""

import hashlib

import numpy as np
import pytest

from spinref import cli, compiler, cooling, machine, thermal
from spinref.machine import CA, GATES, Gate, Measure, Shift, SwapReg
from test_machine import _reference

PIPELINE = {
    # a phase-2 k = 7 round empties the shuffled blocks
    "blocks-3^12-eps0.25": (
        ["--mode", "shuffled-blocks", "--n", "531441", "--epsilon", "0.25"],
        {
            "rounds.csv": "d8db4a4d806e5c1397458bf18a8abda433beae6e5b47515dca648febd3186ae7",
            "ledger.json": "1d5ef9de53ffee51631f03277bc53d58b0174e1a0c6b23626c454dfb38cac324",
        },
    ),
    # phase 2 runs k = 3 then k = 7
    "blocks-3^11-eps0.01": (
        ["--mode", "shuffled-blocks", "--n", "177147", "--epsilon", "0.01"],
        {
            "rounds.csv": "57be96a46e3a48c28893f6d4087ebeb4790b57ebf4b754925bc04cce77ab2d95",
            "ledger.json": "c534bba45f094875752ed5772827e3531d0db178c28f3ebde429c9fbcf2a408f",
        },
    ),
    # not a cube: uniform initial permutation and a short last block
    "blocks-50000-markov-eps0.2": (
        ["--mode", "shuffled-blocks", "--n", "50000", "--model", "markov",
         "--epsilon", "0.2"],
        {
            "rounds.csv": "dccce1daf22d682909bcca2d3c40457edaa8686a01c4135575c768956613186f",
            "ledger.json": "0a5c6be5c2d92a2c559604b3e8b960e9577bb2219ea8f2a9ccd51bcb0700db08",
        },
    ),
    "direct-1e5-eps0.05-2trials": (
        ["--mode", "binomial-direct", "--n", "100000", "--epsilon", "0.05",
         "--trials", "2"],
        {
            "rounds.csv": "15cbb951ce0615964b04cfe273ccad7ad1fb50fad2bb380ed0775db2b5f0022f",
            "ledger.json": "42172de2b679c4aac6c30a9cea99198a5bb3f7bf375f2e71316d727c9181ed52",
        },
    ),
}

ANALYZE = {
    "1e6-eps0.009985": (
        ["--n", "1000000", "--epsilon", "0.009985"],
        {
            "analysis.json": "d215395b1a212cd0003967d39838e92c96f734988b39b705201253a63b918dc7",
            "parity_plan.csv": "7872d6923188dbda25bfd2edda01eeb79719f2102be459989e5f2294ce30a472",
        },
    ),
    "1e6-eps0.25": (
        ["--n", "1000000", "--epsilon", "0.25"],
        {
            "analysis.json": "10483c6d19ceed362b9827c363045de809a0c3db215cb4a165049bc21b247c71",
            "parity_plan.csv": "58661bc69372e76b9368456ed628c0e6ab7bf1b2de166294413074e20d703d2e",
        },
    ),
}


PHASE = {
    "1": (
        ["--epsilon", "0.2"],
        {
            "phase1_rounds.csv": "b33d237ee853d7b8550f8738c48052e1dd4145abc39c6f5964f16d4acb4f31d6",
            "phase1_summary.json": "44da917274e7222a88913d9c1f7e60ad909f61e93a4a4b451f1b78d55465b204",
        },
    ),
    "2": (
        [],
        {
            "phase2_rounds.csv": "e74dd6f0bdc15f06f3e47e6e9a516e40c611b5d09e3c1423a1c2ba4662247880",
            "phase2_summary.json": "0f83cd6b852f2a88cb538305a6151f9ea5594709997839e884c9ce00b2585504",
        },
    ),
    "3": (
        [],
        {
            "phase3_rounds.csv": "1665b7c5ef9dc89a71057652021e58696d5587ca76a2589ce216789ae1990ebe",
            "phase3_summary.json": "fd0cdd7e61c163c6c58f3548f68275c9a71871ae35f1e0e85efa63d9e4346836",
        },
    ),
}


def _digests(tmp_path, argv, names, code=cli.EXIT_OK):
    assert cli.main(argv + ["--out", str(tmp_path)]) == code
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("case", sorted(PIPELINE))
def test_pipeline_golden(tmp_path, case):
    flags, pins = PIPELINE[case]
    # the shuffled blocks yield no clean bits at these sizes: exit 2, bytes written
    code = cli.EXIT_CONFORMANCE if case.startswith("blocks-") else cli.EXIT_OK
    assert _digests(tmp_path, ["pipeline", "--seed", "3"] + flags, pins, code) == pins


@pytest.mark.parametrize("which", sorted(PHASE))
def test_phase_golden(tmp_path, which):
    flags, pins = PHASE[which]
    argv = ["phase", which, "--n", "100000", "--seed", "3"] + flags
    assert _digests(tmp_path, argv, pins) == pins


@pytest.mark.parametrize("case", sorted(ANALYZE))
def test_analyze_golden(tmp_path, case):
    flags, pins = ANALYZE[case]
    assert _digests(tmp_path, ["analyze"] + flags, pins) == pins


# n around the sampler's chunk of 2^14 doubles, and one large n with a
# partial last chunk; digests of ``sample(model, n, seed).tobytes()``.
SAMPLES = {
    ("binomial", 1, 0): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ("binomial", 1, 3): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ("binomial", 16383, 0): "34eae103ccbc8785cb0fd6bd859007fd0d403d8ff88516a1e4f6876ca2fa04c6",
    ("binomial", 16383, 3): "b8fa55db643a113a1843e8b9bce0a13a4faa1f4e2fb18a718817e0eb4c5f3069",
    ("binomial", 16384, 0): "946023741309b57576431c3a857a06f664aa2691ac7a24e5de8c44b5c3d0749a",
    ("binomial", 16384, 3): "80227b345468bdb8d0643a36ead3ebaa9565428887e72f7e3493ab7f408c6684",
    ("binomial", 16385, 0): "a82fbc6322eb9a8cc3827d8edcdab998dbfa24bb889310e7d1232ba5f635b441",
    ("binomial", 16385, 3): "4ec74e672966599913657726a8bc1d2a8a0625b5d38f47c948c60336e6fdc4df",
    ("binomial", 1000007, 0): "9a5bbf49fddec0f68c8ac95a47bac2b05f7408d61942ef8eeb846ec6b85cc06e",
    ("binomial", 1000007, 3): "dca42bb9d8eddc1d583af59177fd9648f43d773a9c7db3f22fea0634d56a698f",
    ("markov", 1, 0): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ("markov", 1, 3): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ("markov", 16383, 0): "2b5598740acbecfd82010d4297f373cb178005224be279071d8eb85679a17ae7",
    ("markov", 16383, 3): "8db81a9b5afce298cbdfeeeb378dcc2a7ebf6bc513035a31898fb885f7be629a",
    ("markov", 16384, 0): "35350fa6a0a4c9850e7b4b6efbd66d51d73466a169924b24cbfd4dbd08d38027",
    ("markov", 16384, 3): "c6c36a896aa3da0cbf6f20695dddb00828c4fe1b669db1ab6c14cb24bb80324b",
    ("markov", 16385, 0): "9d9f11f1719c583d9aa8e6b833fbf7bd1ad597dfcc8856e7b971873a2b970e9f",
    ("markov", 16385, 3): "98538946915d130b13641f28a2a4af57d0556bc2fdc5e93241f3ab953dea5637",
    ("markov", 1000007, 0): "c6295ee97dfcf8eba760a26f556028a60ce3697e4f02524c08bd0a28cb7490ae",
    ("markov", 1000007, 3): "b13f9ec6c5b24c381ac7ba2738f08a87bfb62d953d998fc2483ec65429668136",
}
MODELS = {
    "binomial": thermal.BiasModel("binomial", 0.25),
    "markov": thermal.BiasModel("markov", 0.25, ell=10),
}
# clean bits of ``pipeline(MODELS["binomial"], 10**6, 3)``: 8365 bytes of 0/1
PIPELINE_BITS = "084ae8e9e8b3c1ad1ecf62777faecccdff328688acdb921f4aeb7a299acc76cb"


def _sha(bits):
    assert bits.dtype == np.uint8
    return hashlib.sha256(bits.tobytes()).hexdigest()


@pytest.mark.parametrize("kind,n,seed", sorted(SAMPLES))
def test_sample_golden(kind, n, seed):
    assert _sha(thermal.sample(MODELS[kind], n, seed)) == SAMPLES[kind, n, seed]


def test_pipeline_bits_golden():
    assert _sha(cooling.pipeline(MODELS["binomial"], 10**6, 3).bits) == PIPELINE_BITS


# Tape sizes with odd remainders, and block sizes up to k = N.
PROGRAM_NS = (2, 3, 4, 7, 8, 9, 16, 31, 64, 100, 256)
PROGRAM_KS = (2, 3, 4, 5, 7, 8, 21)
PROGRAM_TAPES = 3
PROGRAM_DIGEST = "6b56bc23a0becb8e31c2d21aaff83f090bc65d0cff5e28ce9aae3a6edb5e2f1f"


def _programs(N):
    yield compiler.compile_phase1(N), compiler.phase1_cost(N)
    for k in sorted(set(PROGRAM_KS) | {N}):
        if k <= N:
            yield compiler.compile_phase2_round(N, k), compiler.phase2_round_cost(N, k)
        if 4 <= k <= N:
            yield compiler.compile_phase3_round(N, k), compiler.phase3_round_cost(N, k)


def test_compiled_programs_golden():
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for N in PROGRAM_NS:
        for program, cost in _programs(N):
            h.update(f"{program.name} {program.n_cells} {cost}\n".encode())
            h.update(program.to_text().encode())
            for _ in range(PROGRAM_TAPES):
                out = program.run(rng.integers(0, 2, N, dtype=np.uint8))
                h.update(f"{len(out)}:".encode() + out.tobytes())
    assert h.hexdigest() == PROGRAM_DIGEST


def test_built_programs_lower_like_their_instruction_lists():
    # the compiler builds its programs as step codes and lowers each round
    # from its parts; machine.lower, the reference, gives an equal lowering
    # (the same ops, head, steps and gather) from those codes, from a plain
    # instruction list and from the program's parsed text
    hand = [Shift(1), Gate(GATES["EQMARK"]), SwapReg(1), Measure(), CA(2, GATES["SWAP2"]),
            Shift(-1), Gate(GATES["SWAP2"]), CA(2, GATES["CNOT12"]), Gate(GATES["INC4"])]
    live = compiler.LiveMap(1, 4, 1, 0)
    built = [compiler.MachineProgram("empty", 4, [], live), compiler.MachineProgram("hand", 4, hand, live)]
    assert built[1].instructions == hand and built[1].steps == len(hand)
    assert built[1].to_text() == machine.program_to_text(hand)
    built += [program for N in PROGRAM_NS for program, _ in _programs(N)]
    for program in built:
        listed = list(program.instructions)
        assert len(listed) == program.steps
        parsed = machine.text_to_program(program.to_text())
        # equal lines share an instance, so the parsed text encodes to no
        # more table entries than the source has
        assert len(machine.encode(parsed).table) <= len(program.encoded.table), program.name
        for steps in (program.encoded, listed, parsed):
            assert machine.lower(steps, program.n_cells) == program.lowered, program.name
    # lowerings that differ only in their gather are unequal
    assert machine.lower([Gate(GATES["SWAP2"])], 4) != machine.lower([Gate(GATES["ID2"])], 4)


def _live_reference(live, cells):
    """The live payload of a logical tape array, read with numpy."""
    b, k, h = live.blocks, live.k, live.header
    payload = cells[: b * (k - h)].reshape(b, k - h)
    flags = cells[b * (k - h) + h - 1 : b * k : h]
    return payload.compress(flags == live.keep, axis=0).ravel()


def test_compiled_runs_match_the_primitives():
    # ``MachineProgram.run`` checks its tape once and reads the live output
    # off a list; run step by step with the primitives, every program must
    # end in the same state and read the same output
    program = compiler.compile_phase1(10)
    for bad, message in (
        ([0] * 9 + [2], "cells must be bits"),
        ([0] * 9, "expects 10 cells, got 9"),
        ([0] * 11, "expects 10 cells, got 11"),
        ([[0] * 10], "1-d"),
        ([[0] * 5] * 2, "1-d"),
    ):
        with pytest.raises(ValueError, match=message):
            program.run(np.array(bad, dtype=np.uint8))
    rng = np.random.default_rng(11)
    for N in PROGRAM_NS:
        for program, _ in _programs(N):
            tape = rng.integers(0, 2, N, dtype=np.uint8)
            given = tape.copy()
            out, got = program.run(tape, return_state=True)
            want = machine.new_tape(tape)
            _reference(want, program.instructions)
            assert np.array_equal(tape, given), program.name
            assert got.cells.dtype == np.uint8 and got.cells.tolist() == want.cells.tolist()
            assert (got.head, got.register, got.steps) == (want.head, want.register, want.steps)
            live = _live_reference(program.live_map, want.logical())
            assert out.dtype == np.uint8 and out.tolist() == live.tolist(), program.name
