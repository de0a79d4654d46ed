"""The benchmark's four workloads, one checked operation each.

An op takes the workload seed and its own index, derives every input from
``SeedSequence([seed, index])``, calls spinref's public functions the way a
user would, checks what the library guarantees and returns the work it did.
A failed check raises ``CheckFailed``.  Known defects (phase-3 mismatches on
dirty headers, zero yield in shuffled-blocks mode, stray ones left in the
clean prefix) are returned as counts and never raised.

Import this module only after ``run.load_spinref`` has put the checkout's
``src/`` on the path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from spinref import compiler, cooling, perms, polymer, reports, thermal

# Counters that are a pure function of an op's inputs, so they repeat exactly
# for a given (seed, index) with or without tracing.
EXACT = (
    "model.steps_single",
    "model.steps_two_tape",
    "model.steps_two_tape_ca",
    "cooling.clean_bits",
    "cooling.stray_ones",
)


class CheckFailed(Exception):
    """An op's output broke something the library guarantees."""


def _check(ok, what):
    if not ok:
        raise CheckFailed(what)


@dataclass
class OpResult:
    """Work one op did: input bits simulated, cases checked, machine steps
    simulated; plus its exact counters."""

    bits: int
    cases: int
    steps: int
    exact: dict


def op_seed(seed, index):
    """The integer seed of op ``index``, drawn from SeedSequence([seed, index])."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _no_pipeline_counts():
    return dict.fromkeys(EXACT, 0)


# ---------------------------------------------------------------------------
# direct and blocks: the end-to-end pipeline plus its written records


def _pipeline_op(model, n, mode, seed):
    res = cooling.pipeline(model, n, seed, mode=mode)
    csv = reports.records_to_csv(res.records)
    ledger = json.loads(reports.to_json(res.ledger.as_dict()))

    recs = res.records
    _check(recs and recs[0].n_in == n, "first round does not take all n bits")
    for prev, nxt in zip(recs, recs[1:]):
        _check(
            nxt.n_in == prev.n_out and nxt.ones_in == prev.ones_out,
            f"round records do not chain at phase {nxt.phase} round {nxt.round}",
        )
    _check(
        recs[-1].n_out == res.clean_bits == len(res.bits),
        "last round's n_out, clean_bits and len(bits) disagree",
    )
    _check(res.clean_bits <= res.ledger.entropy_cap, "yield exceeds the entropy cap")
    _check(csv.count("\n") == len(recs) + 1, "rounds.csv is not one line per record")
    _check(ledger["clean_bits"] == res.clean_bits, "ledger JSON disagrees with the run")
    return OpResult(
        bits=n,
        cases=1,
        steps=res.steps["single"],
        exact={
            "model.steps_single": res.steps["single"],
            "model.steps_two_tape": res.steps["two_tape"],
            "model.steps_two_tape_ca": res.steps["two_tape_ca"],
            "cooling.clean_bits": res.clean_bits,
            # the prefix should hold no ones, but at n = 10**7 a few runs in a
            # hundred keep some; that is a defect to count, not a check to fail
            "cooling.stray_ones": int(res.bits.sum()),
        },
    )


def direct(seed, index):
    """binomial-direct at n = 10**7: the round kernels on one large segment."""
    model = thermal.BiasModel("binomial", 0.25)
    return _pipeline_op(model, 10**7, "binomial-direct", op_seed(seed, index))


def blocks(seed, index):
    """shuffled-blocks at n = 48**3: stride permutation, 2,304 blocks."""
    model = thermal.BiasModel("markov", 0.25, ell=10)
    return _pipeline_op(model, 48**3, "shuffled-blocks", op_seed(seed, index))


# ---------------------------------------------------------------------------
# verify: exhaustive compiled-vs-abstract checks plus polymer closure


class _Domain:
    """One input domain of a compiled program, as ``equivalence_check`` sees it.

    The checker enumerates every ``width``-bit word; the word XOR ``mask`` is
    placed on a full tape by ``place``.  XOR with a mask is a bijection, so
    the checker still covers the whole domain, in an order the seed fixes.
    """

    def __init__(self, program, width, place, mask):
        self.program = program
        self.n_cells = width
        self.place = place
        self.mask = mask
        self.steps = 0

    def tape(self, word):
        return self.place(word ^ self.mask)

    def run(self, word):
        out, state = self.program.run(self.tape(word), return_state=True)
        self.steps += state.steps
        return out


def _whole(word):
    return word


def _clean_headers(n, k):
    """Place (k-3)-bit payloads behind all-zero 3-bit block headers."""

    def place(word):
        tape = np.zeros(n, dtype=np.uint8)
        tape.reshape(-1, k)[:, 3:] = word.reshape(-1, k - 3)
        return tape

    return place


# (program, free width, placement, abstract round, mismatches are a failure)
_SUITES = (
    (lambda: compiler.compile_phase1(10), 10, _whole,
     lambda t: cooling.phase1_round(t)[0], True),
    (lambda: compiler.compile_phase2_round(9, 3), 9, _whole,
     lambda t: cooling.phase2_round(t, 3)[0], True),
    (lambda: compiler.compile_phase3_round(16, 8), 10, _clean_headers(16, 8),
     lambda t: cooling.phase3_round(t, 8)[0], True),
    # dirty headers: the compiled round counts bits 4..k, the abstract one all
    # k bits (ROADMAP 4a), so mismatches here are a count
    (lambda: compiler.compile_phase3_round(8, 8), 8, _whole,
     lambda t: cooling.phase3_round(t, 8)[0], False),
)

POLYMER_PERIODS = 100


def _polymer_closure():
    spec = polymer.two_tape_spec(POLYMER_PERIODS)
    perm = polymer.induced_permutation(spec, polymer.two_tape_rotate_seq())
    a, c = (np.array(spec.positions_of(t)) for t in "AC")
    fixed = np.array(spec.positions_of("B") + spec.positions_of("D"))
    _check(np.array_equal(perm[fixed], fixed), "two-tape rotation moves a B or D site")
    _check(
        np.array_equal(perm[a], np.roll(a, -1)) and np.array_equal(perm[c], np.roll(c, 1)),
        "two-tape rotation does not advance A/C by one period",
    )

    shift = polymer.realize_abstract_shift(polymer.single_tape_spec(POLYMER_PERIODS))
    n = len(shift.permutation)
    power = perms.identity(n)
    for _ in range(n):
        power = perms.compose(power, shift.permutation)
    _check(np.array_equal(power, perms.identity(n)), "realized shift^n is not the identity")


def verify(seed, index):
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    bits = cases = steps = 0
    for make, width, place, abstract, guaranteed in _SUITES:
        mask = rng.integers(0, 2, width, dtype=np.uint8)
        dom = _Domain(make(), width, place, mask)
        report = compiler.equivalence_check(dom, lambda w: abstract(dom.tape(w)), width)
        _check(
            report.mode == "exhaustive" and report.cases == 1 << width,
            f"{dom.program.name} checked {report.cases} of {1 << width} cases",
        )
        _check(
            not guaranteed or report.mismatches == 0,
            f"{dom.program.name} on {dom.program.n_cells} cells: "
            f"{report.mismatches} mismatches, first {report.witness}",
        )
        bits += report.cases * dom.program.n_cells
        cases += report.cases
        steps += dom.steps
    _polymer_closure()
    return OpResult(bits=bits, cases=cases, steps=steps, exact=_no_pipeline_counts())


# ---------------------------------------------------------------------------
# compile: one long emission and execution per phase

N_COMPILE = 256
K_COMPILE = 8

# (emit, closed-form cost, abstract round, clean block headers)
_PROGRAMS = (
    (lambda: compiler.compile_phase1(N_COMPILE),
     lambda: compiler.phase1_cost(N_COMPILE),
     lambda t: cooling.phase1_round(t)[0], False),
    (lambda: compiler.compile_phase2_round(N_COMPILE, K_COMPILE),
     lambda: compiler.phase2_round_cost(N_COMPILE, K_COMPILE),
     lambda t: cooling.phase2_round(t, K_COMPILE)[0], False),
    (lambda: compiler.compile_phase3_round(N_COMPILE, K_COMPILE),
     lambda: compiler.phase3_round_cost(N_COMPILE, K_COMPILE),
     lambda t: cooling.phase3_round(t, K_COMPILE)[0], True),
)


def compile_(seed, index):
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    steps = 0
    for emit, cost, abstract, clean in _PROGRAMS:
        program = emit()
        _check(program.steps == cost(), f"{program.name}: emitted steps != closed form")
        text = program.to_text()
        _check(text.count("\n") == program.steps, f"{program.name}: text is not one line per step")
        tape = rng.integers(0, 2, N_COMPILE, dtype=np.uint8)
        if clean:
            tape.reshape(-1, K_COMPILE)[:, :3] = 0
        out, state = program.run(tape, return_state=True)
        _check(state.steps == program.steps, f"{program.name}: executed steps != emitted")
        _check(np.array_equal(out, abstract(tape)), f"{program.name}: live output != abstract round")
        steps += state.steps
    return OpResult(
        bits=len(_PROGRAMS) * N_COMPILE,
        cases=len(_PROGRAMS),
        steps=steps,
        exact=_no_pipeline_counts(),
    )


WORKLOADS = {"direct": direct, "blocks": blocks, "verify": verify, "compile": compile_}
