"""Golden sha256 digests of CLI outputs, sampled bits and compiled programs.

The pins say that a refactor keeps the same behaviour: every byte of
``rounds.csv``/``ledger.json`` from ``spinref pipeline`` in both modes, of
``phaseN_rounds.csv``/``phaseN_summary.json`` from ``spinref phase`` and of
``analysis.json``/``parity_plan.csv`` from ``spinref analyze``, of
``arch.json`` from ``spinref arch`` for both ring patterns, the thermal
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
    "blocks-3^12-eps0.25": (
        ["--mode", "shuffled-blocks", "--n", "531441", "--epsilon", "0.25"],
        {
            "rounds.csv": "a3895b2b1f31c05bb73e3d3ae899170608231e24e720aec227bdccd18595e430",
            "ledger.json": "4031b8cfa75b698726ad5314f8ae48926cb750bae1de5aee6613acdf9614a04c",
        },
    ),
    # phase 2 runs k = 3 then k = 7; at this bias the ledger's floor at 3^11
    # is under one bit, and no mode yields any, not even binomial-direct
    "blocks-3^11-eps0.01": (
        ["--mode", "shuffled-blocks", "--n", "177147", "--epsilon", "0.01"],
        {
            "rounds.csv": "9eb43e9b9d0a6e030a38675733b99d1e8f8d94df55dfe034890dfb89f440d6d9",
            "ledger.json": "b773b7c09b5747ed3b00a322a5e549e2d9945d767d885d3e6f335474aaf134ba",
        },
    ),
    # not a cube: uniform initial permutation and a short last block
    "blocks-50000-markov-eps0.2": (
        ["--mode", "shuffled-blocks", "--n", "50000", "--model", "markov",
         "--epsilon", "0.2"],
        {
            "rounds.csv": "3dca2a6071eb4ead76fa9c7e57ca7e20a4ade56be9eab0649062c6f78270e2e2",
            "ledger.json": "09eafc4272652a0139b97acb6fce4604c410f7a534cddfb3665d52ce6313a1c2",
        },
    ),
    "direct-1e5-eps0.05-2trials": (
        ["--mode", "binomial-direct", "--n", "100000", "--epsilon", "0.05",
         "--trials", "2"],
        {
            "rounds.csv": "6f792f7a114f487964ae9724f124308fa281b0fab6c18d47b374477853b0f526",
            "ledger.json": "7ab6a34d9c621796b195d4d77ea3de2b754901886b7edf0a685de550e5aa394c",
        },
    ),
    # the last 2^20-cell draw block holds 18 cells, so it ends inside a
    # 16-cell chunk, and the second round's 278,052 bits end 4 cells into one
    "direct-2^20+18": (
        ["--mode", "binomial-direct", "--n", "1048594"],
        {"rounds.csv": "f526c05bdc507eaa32fe3d54e0370ee76b7005731c8fc1daa30bad6485315d03"},
    ),
    # an odd n: the last cell is left unpaired
    "direct-1e7+1": (
        ["--mode", "binomial-direct", "--n", "10000001"],
        {"rounds.csv": "43d1b8a47f09b746ace25f01f3dc6eb0ac66425041f57dae89720e3b74091262"},
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

# ``arch.json`` per (pattern, periods): one period, the default three, and a
# ring of 100 periods
ARCH = {
    ("ABC", 1): "075fb7c5dcf89d12c4d56fd0807039123f8f827dfe4dad4c02ab5f4e4c5fdb2e",
    ("ABC", 3): "b2c7752dcbeb56baf99db54e775659fa28c64533a153031a5eb5c74f805ce860",
    ("ABC", 100): "92f8b8fbc73233ffacf7f5af3abf58117258e4e2823cda682d05688bbd877edb",
    ("ABCD", 1): "caa8753263fa312e682bc1dd79369f460ed1653b73daa70f6579f3b07c9c296a",
    ("ABCD", 3): "ea2e50bb9b1a4a676ea006dab0098eeae66ab9a6f961415d51bbd89aff1ef5f5",
    ("ABCD", 100): "462639b7da478bc76a4229c0609dcfbf3d986758f6b5840ab5978d8ce7276376",
}

PHASE = {
    "1": (
        ["--epsilon", "0.2"],
        {
            "phase1_rounds.csv": "cb0f32f98869256f60e961ba665f3ef4c5adbede3648092a92bd104fa237ee71",
            "phase1_summary.json": "25aff3baf6faa2fbb26dad5fe1dd919dc5c2bddc9df417285492abe9fc8c7304",
        },
    ),
    "2": (
        [],
        {
            "phase2_rounds.csv": "1ce2979edb61d2e076dab0496e3ef1851c7139acd31b68dcc73d9a077b49d737",
            "phase2_summary.json": "dbd73dce2fa3eef03ee08b3948365d95a82142d546c4dfd96daf5a26cb91744f",
        },
    ),
    "3": (
        [],
        {
            "phase3_rounds.csv": "45cee89b2312b897b42ed4a1a5e734ad4a0431f2409bcfbe7f74fead23f4b677",
            "phase3_summary.json": "278225c5345e00f08e7c381d52b0c401588cad23ec88548ace9c4a4dfa404893",
        },
    ),
}


def _digests(tmp_path, argv, names, code=cli.EXIT_OK):
    assert cli.main(argv + ["--out", str(tmp_path)]) == code
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("case", sorted(PIPELINE))
def test_pipeline_golden(tmp_path, case):
    flags, pins = PIPELINE[case]
    # a run without clean bits exits 2 and still writes its files
    code = cli.EXIT_CONFORMANCE if case == "blocks-3^11-eps0.01" else cli.EXIT_OK
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


@pytest.mark.parametrize("pattern,periods", sorted(ARCH))
def test_arch_golden(tmp_path, pattern, periods):
    argv = ["arch", "--pattern", pattern, "--periods", str(periods)]
    assert _digests(tmp_path, argv, ["arch.json"]) == {"arch.json": ARCH[pattern, periods]}


# n at and around the 64-bit word boundary 2^14, one large n with a short
# last word, and one that ends 65 cells into the third 2^20-cell draw block,
# so the PCG64 stream is handed from block to block; digests of
# ``sample(model, n, seed).tobytes()``.
SAMPLES = {
    ("binomial", 1, 0): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ("binomial", 1, 3): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ("binomial", 16383, 0): "fc722f86dd176b70cc5a621dc46e242373806662680238f955172fff36ba767b",
    ("binomial", 16383, 3): "a20bf923c9e660ff71c003464cc694d4a50d744c7db9f1560b965feff49449b7",
    ("binomial", 16384, 0): "da6dfa858999c6bd9c54e446c3fe4718c1f6e43a37cdf141e40b9919c9c62afe",
    ("binomial", 16384, 3): "a19ca5f343490dea7f4934203d7f562eff8f260b8d8f085b37b798fb1af89823",
    ("binomial", 16385, 0): "7a9dd04106a5a36e7c83b460de7cd8060b45b332727dc29742f63e850d8a5011",
    ("binomial", 16385, 3): "3e1b63b67d7675c3f8274470650a97099944458e4a87e08153f8c240a3ee99de",
    ("binomial", 1000007, 0): "2dbe92f2cb03eba6a5b06eda6d72c228f6c3b4ed4be9b360e2284956391e4bd5",
    ("binomial", 1000007, 3): "80c4b5e2740c4abdf0538c9ea6a5e7d883a80133553d89839d190be2d18dfd8e",
    ("binomial", 2097217, 0): "ffd9945a7717d765c502732bf3a7fa89f31029e628b34ec7c4934bfb76329b75",
    ("binomial", 2097217, 3): "b043a4bc2e57f8abb74915a830dddc6ccead3b50fbfe91350b38a3c5cf90b9b3",
    ("markov", 1, 0): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ("markov", 1, 3): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ("markov", 16383, 0): "09f52816899c94464d89244e80a1935cff48161cc529cf1a4cb81ee76d6d4f80",
    ("markov", 16383, 3): "46a5c986f05bbdccc6ff857cdaefe51020cd7ede2350427f74f2894a35e8433b",
    ("markov", 16384, 0): "f011e185ed555a1a1eb1ffe96e5bca5e9ba14f5945484c665ee1e40e530d8b9f",
    ("markov", 16384, 3): "ffaa73dccb7750d6de6536498ea60f4135472ce03b029486d700f6e2d03aa7f6",
    ("markov", 16385, 0): "dd1787935187afee4df6944ff1cbac2c4c213c7575feabe9555aa7f7ae494f9b",
    ("markov", 16385, 3): "916958152ca381677b2ec41482908a9b777ca1fc5de47c9c48977c4296235452",
    ("markov", 1000007, 0): "c822c5aed2d3eb59abb3d8b0f1a82147b2e85052ae39b27d529b46d7583d3194",
    ("markov", 1000007, 3): "f24628fd31b77b8367f1a0754a9d16be798d74b62eb790cc3ac7b602467a21c1",
    ("markov", 2097217, 0): "09179c3ec2ce88cd4fa1a4a4626467e2d3c1d314e9c839bdba9e07dc5988891d",
    ("markov", 2097217, 3): "3a141c713db41d6975e7b7cceb9407e69c7d4d20427da24e4930cfc7cc95baa5",
}
MODELS = {
    "binomial": thermal.BiasModel("binomial", 0.25),
    "markov": thermal.BiasModel("markov", 0.25, ell=10),
}
# clean bits of ``pipeline(MODELS["binomial"], n, 3)``, as 0/1 bytes: 8435 at
# n = 10^6; 32,265 at n = 3 * 2^20 + 5, whose first round pairs four draw
# blocks, the last one 5 cells long; 8764 at n = 2^20 + 18, whose last block
# ends 2 cells into a 16-cell chunk; and 124,032 at the odd n = 10^7 + 1
PIPELINE_BITS = {
    10**6: "a3a7787a413fa29080f96e23698b7358c5f0de6530a537410a4f600296fde82f",
    3 * 2**20 + 5: "18b44833c170640054d98b9842c8bde383b3698d4bdce8a74847a2fc66f433df",
    2**20 + 18: "4290d3193916dd060be99b27952016e9dff2d1c6e5feb65259f40fc6f0c57808",
    10**7 + 1: "52dd24ae29fce40f82031c2a5af57aeafcbf1f3736717b6ab29b4b1b62b6df4b",
}


def _sha(bits):
    assert bits.dtype == np.uint8
    return hashlib.sha256(bits.tobytes()).hexdigest()


@pytest.mark.parametrize("kind,n,seed", sorted(SAMPLES))
def test_sample_golden(kind, n, seed):
    assert _sha(thermal.sample(MODELS[kind], n, seed)) == SAMPLES[kind, n, seed]


def test_pipeline_bits_golden():
    for n, pin in PIPELINE_BITS.items():
        assert _sha(cooling.pipeline(MODELS["binomial"], n, 3).bits) == pin, n


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
