import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinref import analysis, cli, cooling, perms, thermal
from spinref.cooling import (
    CoolingError,
    Phase1Config,
    block_segments,
    block_size,
    choose_k,
    phase1_round,
    phase1_run,
    phase2_plan,
    phase2_round,
    phase2_run,
    phase3_round,
    phase3_run,
    pipeline,
)


def bits_of(*xs):
    return np.array(xs, dtype=np.uint8)


# ---------------------------------------------------------------------------
# phase 1


def test_phase1_round_rule():
    out, rec = phase1_round(bits_of(0, 0, 0, 1, 1, 0, 1, 1))
    assert list(out) == [0, 1]
    assert rec.n_in == 8 and rec.n_out == 2
    assert rec.n_in - rec.n_out == 6  # survivors + discards = inputs


def test_phase1_all_zero():
    out, _ = phase1_round(np.zeros(10, dtype=np.uint8))
    assert list(out) == [0] * 5


def test_phase1_odd_trailer_discarded():
    out, rec = phase1_round(bits_of(1, 1, 0))
    assert list(out) == [1]
    assert rec.n_in == 3


def test_phase1_survivor_bias_three_sigma():
    # eps=0.5: survivor bias 0.8, i.e. ones fraction 0.1
    n = 10**6
    bits = thermal.sample(thermal.BiasModel("binomial", 0.5), n, seed=123)
    out, rec = phase1_round(bits)
    delta = 0.1
    sigma = np.sqrt(rec.n_out * delta * (1 - delta))
    assert abs(rec.ones_out - rec.n_out * delta) < 3 * sigma


def test_phase1_run_zero_rounds_when_past_target():
    bits = bits_of(0, 0, 0, 1)
    out, recs = phase1_run(bits, eps0=0.857)
    assert np.array_equal(out, bits) and recs == []


def test_phase1_run_seven_rounds_from_paper_constant():
    bits = thermal.sample(thermal.BiasModel("binomial", 0.009985), 2**20, seed=0)
    out, recs = phase1_run(bits, eps0=0.009985)
    assert len(recs) == 7
    assert recs[-1].bias_pred >= 0.856 * (1 - analysis.THRESHOLD_RTOL)


def test_phase1_run_round_count_matches_backward_count():
    for eps in (0.05, 0.2, 0.4):
        fwd = analysis.phase1_rounds(eps)
        # smallest i with backward^i(0.856) <= eps (up to threshold slack)
        i, x = 0, 0.856
        while x > eps * (1 + analysis.THRESHOLD_RTOL):
            x = analysis.bias_backward(x)
            i += 1
        assert fwd == i


def test_phase1_run_monte_carlo_against_forward_recurrence():
    # eps=0.2: final empirical bias >= 0.856 nearly always
    hits = 0
    for seed in range(20):
        bits = thermal.sample(thermal.BiasModel("binomial", 0.2), 10**6, seed=seed)
        out, recs = phase1_run(bits, eps0=0.2)
        if (1.0 - 2.0 * out.mean()) >= 0.856:
            hits += 1
    assert hits >= 19


@pytest.mark.parametrize("target", [0.6, 0.856, 0.95])
@pytest.mark.parametrize("eps", [0.05, 0.25, 0.7])
def test_phase1_run_and_pipeline_share_the_round_count(eps, target):
    n = 10**5
    config = Phase1Config(target_bias=target)
    bits = thermal.sample(thermal.BiasModel("binomial", eps), n, seed=1)
    _, recs = phase1_run(bits, config, eps0=eps)
    res = pipeline(thermal.BiasModel("binomial", eps), n, 1, p1config=config)
    planned = len(cooling.make_plan(eps, n, config).orbit) - 1
    assert len(recs) == sum(r.phase == 1 for r in res.records) == planned


def test_phase1_run_exhaustion_raises():
    with pytest.raises(CoolingError):
        phase1_run(bits_of(0, 1, 1, 0), eps0=0.01)


def test_phase1_monotone_cleanliness():
    bits = thermal.sample(thermal.BiasModel("binomial", 0.3), 10**6, seed=5)
    _, recs = phase1_run(bits, eps0=0.3)
    for rec in recs:
        d_in = rec.ones_in / rec.n_in
        d_out = rec.ones_out / max(rec.n_out, 1)
        sigma = np.sqrt(d_in * (1 - d_in) / max(rec.n_out, 1))
        assert d_out <= d_in + 3 * sigma


# ---------------------------------------------------------------------------
# phase 2


def test_phase2_bin_semantics():
    out, _ = phase2_round(bits_of(0, 0, 0), 3, seed=None)
    assert list(out) == [0, 0]
    out, _ = phase2_round(bits_of(0, 1, 0), 3, seed=None)
    assert list(out) == []
    out, _ = phase2_round(bits_of(1, 1, 0), 3, seed=None)
    assert list(out) == [1, 0]


def test_phase2_leakage_oracle_exhaustive():
    # a 1 survives a bin iff the bin ones-count is even, all 2^k patterns
    for k in range(2, 13):
        patterns = np.arange(2**k, dtype=np.int64)
        bits = ((patterns[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
        out, _ = phase2_round(bits.ravel(), k, seed=None)
        expected = []
        for x in range(2**k):
            popc = bin(x).count("1")
            if popc % 2 == 0:
                expected.extend(bits[x, 1:].tolist())
        assert np.array_equal(out, np.array(expected, dtype=np.uint8))


def test_phase2_round_records_u():
    bins = bits_of(1, 0, 0, 0, 1, 0, 1, 1, 0)  # u counts single-1 bins
    _, rec = phase2_round(bins, 3, seed=None)
    assert rec.u == 2
    assert rec.k == 3


def test_phase2_remainder_discarded():
    out, rec = phase2_round(bits_of(0, 0, 0, 1, 1), 3, seed=None)
    assert list(out) == [0, 0]
    assert rec.n_in == 5 and rec.n_out == 2


def test_choose_k_regions():
    assert choose_k(0.05) == 3
    assert choose_k(0.072) == 3
    assert choose_k(0.0188) == 7
    assert choose_k(0.001) == 21
    assert choose_k(0.0027) == 21
    assert choose_k(0.000158) == 34
    assert choose_k(1e-5) == 100
    with pytest.raises(ValueError):
        choose_k(0.08)
    with pytest.raises(ValueError):
        choose_k(0.0)


def test_choose_k_power_region_minimum():
    for delta in np.geomspace(1e-12, 0.000158, 200):
        assert choose_k(delta) >= 33


def test_phase2_plan_regions_each_once():
    plan = phase2_plan(0.072, 10**18)
    ks = [p.k for p in plan]
    # regions 1..3 are visited at most once each before the power rule
    assert ks[:3] == [3, 7, 21]
    assert all(k >= 33 for k in ks[3:])
    assert plan[-1].delta_out <= (10**18) ** -0.3


def test_phase2_plan_zero_rounds_when_clean():
    assert phase2_plan(0.001, 10**4) == []


def test_phase2_plan_round_count_loglog():
    # rounds grow like log log n
    for n, cap in ((10**4, 1), (10**6, 3), (10**12, 5), (10**18, 7)):
        assert len(phase2_plan(0.072, n)) <= cap


def test_phase2_plan_at_most_eight_rounds():
    # the plan's loop has no round cap: over n from 10 to 10^300 and entry
    # levels from 10^-12 to the region maximum no plan is longer than 8
    levels = np.geomspace(1e-12, cooling.PHASE2_DELTA_MAX, 100).tolist()
    sizes = np.logspace(1, 300, 600).tolist()
    assert max(len(phase2_plan(delta0, n)) for n in sizes for delta0 in levels) <= 8


def test_phase2_run_records():
    bits = thermal.sample(thermal.BiasModel("binomial", 0.9668), 10**5, seed=2)
    out, recs = phase2_run(bits, 10**5, seed=3, delta0=0.0166)
    assert len(recs) == len(phase2_plan(0.0166, 10**5))
    for rec in recs:
        assert rec.phase == 2 and rec.u is not None


def test_phase2_bins_never_exceed_n_to_the_0_2():
    # the fact that lets phase 2 run uncapped: while the plan runs, n >
    # delta^-3, so every bin is narrower than n^0.2 < n^(1/3)
    top = cooling.PHASE2_DELTA_MAX
    edges = {hi for _, hi, _ in cooling.PHASE2_REGIONS}
    levels = edges | set(np.minimum(np.logspace(-12, math.log10(top), 60), top).tolist())
    # n just past where each region, and the power rule, first plans a round
    sizes = {math.ceil(e**-3) + d for e in edges | {0.000158} for d in (0, 1)}
    sizes |= {int(x) for x in np.logspace(1, 30, 300)}
    planned = 0
    for n in sorted(sizes):
        for delta0 in sorted(levels):
            for pr in phase2_plan(delta0, n):
                assert pr.k <= n**0.2, (n, delta0, pr)
                planned += 1
    assert planned > 1000


# ---------------------------------------------------------------------------
# phase 3


def test_phase3_block_semantics():
    out, _ = phase3_round(np.zeros(10, dtype=np.uint8), 10)
    assert list(out) == [0] * 7
    lone = np.zeros(10, dtype=np.uint8)
    lone[5] = 1
    out, _ = phase3_round(lone, 10)
    assert list(out) == []
    four = np.zeros(10, dtype=np.uint8)
    four[3:7] = 1
    out, rec = phase3_round(four, 10)
    assert list(out) == [1, 1, 1, 1, 0, 0, 0]
    assert rec.ones_out == 4


def test_phase3_pass_predicate_exhaustive_small():
    for k in (4, 5, 8):
        patterns = np.arange(2**k, dtype=np.int64)
        bits = ((patterns[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
        out, _ = phase3_round(bits.ravel(), k)
        expected = [
            bits[x, 3:].tolist()
            for x in range(2**k)
            if bin(x).count("1") % 4 == 0
        ]
        flat = [b for chunk in expected for b in chunk]
        assert np.array_equal(out, np.array(flat, dtype=np.uint8))


def test_phase3_run_certified_rounds():
    n = 10**6
    bits = thermal.sample(thermal.BiasModel("binomial", 1 - 2e-3), 10**5, seed=4)
    out, recs = phase3_run(bits, n, delta0=1e-3)
    assert len(recs) == analysis.phase3_certificate(n, delta0=1e-3).rounds
    assert int(out.sum()) == 0


def test_phase3_zero_ones_loses_only_headers():
    bits = np.zeros(1000, dtype=np.uint8)
    out, rec = phase3_round(bits, 10)
    assert rec.ones_out == 0
    assert rec.n_out == 700


# ---------------------------------------------------------------------------
# segmented rounds


# segment lengths: zero-length and trailing empty segments, odd tails, and a
# single segment all occur
segment_lengths = st.lists(
    st.one_of(st.just(0), st.integers(1, 12), st.integers(13, 60)), min_size=1, max_size=12
)


def _per_segment_oracle(call, bits, lens):
    """The per-block semantics: one whole-input call per segment, outputs
    concatenated and records summed."""
    outs, recs, start = [], [], 0
    for length in lens:
        out, rec = call(bits[start : start + length])
        outs.append(out)
        recs.append(rec)
        start += length
    return np.concatenate(outs), recs


@settings(max_examples=150, deadline=None)
@given(
    lens=segment_lengths,
    phase=st.sampled_from([1, 2, 3]),
    k=st.integers(2, 9),
    shuffled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_segmented_round_equals_per_segment_calls(lens, phase, k, shuffled, seed):
    bits = np.random.default_rng(seed).integers(0, 2, sum(lens), dtype=np.uint8)
    if phase == 1:
        def call(b, **kw):
            return phase1_round(b, bias_pred=0.8, **kw)
    elif phase == 2:
        # one generator drawn from in segment order, as the blocks were
        def call(b, rng, **kw):
            return phase2_round(b, k, seed=rng if shuffled else None, bias_pred=0.99, **kw)
    else:
        def call(b, **kw):
            return phase3_round(b, max(k, 4), bias_pred=0.9, **kw)

    if phase == 2:
        rng_a, rng_b = (np.random.default_rng(seed + 1) for _ in range(2))
        out, rec = call(bits, rng_a, segments=lens)
        want, recs = _per_segment_oracle(lambda b: call(b, rng_b), bits, lens)
    else:
        out, rec = call(bits, segments=lens)
        want, recs = _per_segment_oracle(call, bits, lens)

    assert np.array_equal(out, want)
    for name in ("n_in", "n_out", "ones_in", "ones_out", "steps"):
        assert getattr(rec, name) == sum(getattr(r, name) for r in recs), name
    assert rec.u == (sum(r.u for r in recs) if phase == 2 else None)
    # a whole-input call is the same round as a one-segment call
    if len(lens) == 1 and not (phase == 2 and shuffled):
        whole_out, whole_rec = call(bits, np.random.default_rng(0)) if phase == 2 else call(bits)
        assert np.array_equal(whole_out, out) and whole_rec == rec


# phase -> (round on the whole input, row size, header bits dropped, pass rule)
WHOLE_ROUNDS = {
    1: (lambda b: phase1_round(b, bias_pred=0.8), 2, 1, lambda g: g[:, 0] == g[:, 1]),
    2: (lambda b: phase2_round(b, 3, bias_pred=0.99), 3, 1, lambda g: g.sum(axis=1) % 2 == 0),
    3: (lambda b: phase3_round(b, 5, bias_pred=0.9), 5, 3, lambda g: g.sum(axis=1) % 4 == 0),
}


@pytest.mark.parametrize("phase", sorted(WHOLE_ROUNDS))
def test_rounds_equal_boolean_index_selection(phase):
    # the kernels select with ``compress``; the output must be the
    # boolean-index selection of the passing rows' payloads
    call, k, header, passes = WHOLE_ROUNDS[phase]
    rng = np.random.default_rng(phase)
    for rows in (0, 1, 1000, 100_003):
        bits = (rng.random(rows * k + 1) < 0.3).astype(np.uint8)
        grid = bits[:-1].reshape(rows, k)
        out, rec = call(bits)
        assert np.array_equal(out, grid[passes(grid)][:, header:].ravel()), rows
        if phase == 2:
            assert rec.u == np.count_nonzero(grid.sum(axis=1) == 1)


def _reference_round(phase, bits, k, seed, segments):
    """The round selected the plain way: ``a == b`` on the pair columns and
    one ``compress`` over every row.  Returns the output and the round
    record."""
    header = 1 if phase < 3 else 3
    rng = None if seed is None else np.random.default_rng(seed)
    rows = cooling._rows(bits, k, segments, rng)
    sums, u = rows.sum(axis=1), None
    if phase == 1:
        kept = rows[:, 0] == rows[:, 1]
        out = rows[:, 1].compress(kept)
    else:
        kept = (sums % (2 if phase == 2 else 4)) == 0
        out = rows[:, header:].compress(kept, axis=0).ravel()
    if phase == 2:
        u = int(np.count_nonzero(sums == 1))
    return out, cooling._record(phase, 0, bits, out, 0.5, k, segments, u)


@settings(max_examples=60, deadline=None)
@given(
    phase=st.sampled_from([1, 2, 3]),
    k=st.integers(2, 9),
    length=st.integers(0, 99),
    big=st.booleans(),
    step=st.sampled_from([1, 3]),
    cuts=st.none() | st.lists(st.integers(0, 100), max_size=60),
    shuffled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(phase=1, k=2, length=5, big=True, step=3, cuts=[30, 70], shuffled=False, seed=1)
# segments without a full row first, last, and everywhere
@example(phase=3, k=6, length=60, big=False, step=1, cuts=[0, 5, 8], shuffled=False, seed=2)
@example(phase=2, k=5, length=60, big=False, step=3, cuts=[98, 99, 100], shuffled=True, seed=3)
@example(phase=1, k=2, length=8, big=False, step=1, cuts=list(range(0, 101, 12)),
         shuffled=False, seed=4)
@example(phase=3, k=4, length=0, big=True, step=1, cuts=[0, 0, 50, 100, 100], shuffled=False,
         seed=5)
# pairing on exactly one and two selection slices of rows, and on none
@example(phase=1, k=2, length=2 * cooling._SLICE, big=False, step=1, cuts=None, shuffled=False,
         seed=6)
@example(phase=1, k=2, length=2 * cooling._SLICE, big=False, step=1, cuts=[50], shuffled=False,
         seed=6)
@example(phase=1, k=2, length=4 * cooling._SLICE, big=False, step=1, cuts=None, shuffled=False,
         seed=7)
@example(phase=1, k=2, length=4 * cooling._SLICE, big=False, step=1, cuts=[50], shuffled=False,
         seed=7)
@example(phase=1, k=2, length=0, big=False, step=1, cuts=None, shuffled=False, seed=8)
@example(phase=1, k=2, length=0, big=False, step=1, cuts=[50], shuffled=False, seed=8)
def test_round_kernels_equal_plain_selection(phase, k, length, big, step, cuts, shuffled, seed):
    # word pairing and sliced selection give the plain selection's bytes
    # and record, on odd lengths, strided views, dozens of
    # segments with tails or no full row at all, and inputs longer than one
    # selection slice
    k = {1: 2, 2: k, 3: max(k, 4)}[phase]
    if big:
        length += (cooling._SLICE + 7) * k
    rng = np.random.default_rng(seed)
    bits = (rng.random(length * step) < 0.4).astype(np.uint8)[::step]
    segments = None
    if cuts is not None:
        # cut points in percent of the input length
        points = sorted(c * length // 100 for c in cuts)
        segments = np.diff([0, *points, length]).tolist()
    seed2 = seed if phase == 2 and shuffled else None
    call = {
        1: lambda **kw: phase1_round(bits, bias_pred=0.5, **kw),
        2: lambda **kw: phase2_round(bits, k, seed=seed2, bias_pred=0.5, **kw),
        3: lambda **kw: phase3_round(bits, k, bias_pred=0.5, **kw),
    }[phase]
    out, rec = call() if segments is None else call(segments=segments)
    want_out, want_rec = _reference_round(phase, bits, k, seed2, segments)
    assert out.dtype == np.uint8 and np.array_equal(out, want_out)
    assert rec == want_rec


PIECE = 2 * cooling._SLICE


@pytest.mark.parametrize("eps", [0.05, 0.25, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, PIECE - 1, PIECE, PIECE + 1, 3 * PIECE + 5, 10**5 + 1])
def test_streamed_round_equals_round_on_the_whole_sample(n, eps):
    # pieces of one selection slice of pairs, the last short or odd
    model = thermal.BiasModel("binomial", eps)
    for seed in (0, 1, 2):
        want_out, want_rec = phase1_round(thermal.sample(model, n, seed), bias_pred=0.5)
        pieces = thermal.sample_pieces(model, n, seed, PIECE)
        out, rec = phase1_round(pieces, bias_pred=0.5, round_index=0)
        assert out.dtype == np.uint8 and np.array_equal(out, want_out)
        assert rec == want_rec
        # as the pipeline calls it: one segment of all n bits
        out, rec = phase1_round(thermal.sample_pieces(model, n, seed, PIECE),
                                bias_pred=0.5, segments=np.array([n]))
        assert np.array_equal(out, want_out) and rec == want_rec


def test_streamed_round_rejects_odd_pieces_and_several_segments():
    with pytest.raises(ValueError, match="odd length"):
        phase1_round(iter([bits_of(0, 0, 1), bits_of(1, 1)]))
    with pytest.raises(ValueError, match="one segment"):
        phase1_round(iter([bits_of(0, 0, 1, 1)]), segments=[2, 2])


def test_pipeline_streamed_first_round_equals_whole_sample(monkeypatch):
    # the direct pipeline pairs the sample piece by piece; handing it the
    # whole sample as one piece gives the same bits, records and steps
    model, n, seed = thermal.BiasModel("binomial", 0.25), 3 * PIECE + 5, 4
    got = pipeline(model, n, seed)
    monkeypatch.setattr(thermal, "sample_pieces",
                        lambda model, n, seed, size: iter([thermal.sample(model, n, seed)]))
    want = pipeline(model, n, seed)
    assert np.array_equal(got.bits, want.bits)
    assert got.records == want.records
    assert got.steps == want.steps and got.ledger == want.ledger


def test_pipeline_without_pairing_round_starts_at_phase2():
    # epsilon 0.9 is already past the phase-1 target: no pairing round, so
    # the direct pipeline takes the whole sample into parity binning
    model, n = thermal.BiasModel("binomial", 0.9), 10**5 + 1
    res = pipeline(model, n, seed=3)
    first = res.records[0]
    assert first.phase == 2 and first.n_in == n
    assert first.ones_in == int(thermal.sample(model, n, 3).sum())
    assert res.clean_bits > 0 and int(res.bits.sum()) == 0


def test_segment_lengths_must_cover_the_input():
    with pytest.raises(ValueError):
        phase1_round(np.zeros(10, dtype=np.uint8), segments=[4, 5])
    with pytest.raises(ValueError):
        phase3_round(np.zeros(10, dtype=np.uint8), 4, segments=[9])


# ---------------------------------------------------------------------------
# blocks, pipeline


def test_block_segments_paper_sizes():
    assert block_size(27) == 3
    assert block_size(8) == 2
    assert block_size(10**6) == 100
    assert block_segments(27, block_size(27)).tolist() == [3] * 9
    assert block_segments(8, block_size(8)).tolist() == [2] * 4
    # windows of floor(n^(1/3)) cover the input, the last one short
    lens = block_segments(50000, block_size(50000))
    assert block_size(50000) == 36
    assert lens.tolist() == [36] * 1388 + [32]
    assert int(lens.sum()) == 50000
    # a later round cuts its shorter input into windows of the same size
    assert block_segments(100, 36).tolist() == [36, 36, 28]
    assert block_segments(36, 36).tolist() == [36]
    assert block_segments(0, 36).tolist() == []


def test_pipeline_full_bias_all_zero():
    res = pipeline(thermal.BiasModel("binomial", 1.0), 1000, seed=0)
    assert int(res.bits.sum()) == 0
    assert res.clean_bits > 0


def test_pipeline_yield_floor_and_cap():
    res = pipeline(thermal.BiasModel("binomial", 0.25), 10**6, seed=1)
    assert res.clean_bits >= 0.25**2 * 10**6 / 20
    assert res.clean_bits <= res.ledger.entropy_cap
    assert int(res.bits.sum()) == 0


def test_pipeline_deterministic():
    model = thermal.BiasModel("binomial", 0.25)
    a = pipeline(model, 10**5, seed=9)
    b = pipeline(model, 10**5, seed=9)
    assert a.clean_bits == b.clean_bits
    assert np.array_equal(a.bits, b.bits)
    assert a.steps == b.steps
    rows_a = [(r.phase, r.round, r.n_in, r.n_out, r.steps) for r in a.records]
    rows_b = [(r.phase, r.round, r.n_in, r.n_out, r.steps) for r in b.records]
    assert rows_a == rows_b


def test_pipeline_direct_peak_memory_per_bit():
    # the first pairing round draws the sample one slice of pairs at a time
    # and appends each slice's kept bits to one buffer, so the n sampled
    # bits never exist: the peak is about the first round's output (a
    # quarter byte per input bit, plus the buffer's growth) while the second
    # round reads it
    model, n = thermal.BiasModel("binomial", 0.25), 2**22
    pipeline(model, n, seed=12)
    tracemalloc.start()
    try:
        pipeline(model, n, seed=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 0.8


def test_pipeline_telescoping_records():
    res = pipeline(thermal.BiasModel("binomial", 0.25), 10**5, seed=3)
    for prev, nxt in zip(res.records, res.records[1:]):
        assert nxt.n_in == prev.n_out
    assert res.records[-1].n_out == res.clean_bits


def test_clean_prefix_has_no_ones_when_phase2_leaves_pairs(monkeypatch):
    # phase 2 passes whole bin payloads, so its ones leave in pairs within a
    # row of w = k - 1 bits; a mod-4 block that holds two pairs has weight 4
    # and passes.  Rows 15 and 16 put two pairs, four ones in a row, inside
    # one block's payload in each of the certified rounds.
    n = 10**6
    plan = cooling.make_plan(0.25, n)
    w, cert = plan.phase2[-1].k - 1, plan.certificate
    rows = np.zeros((4000, w), dtype=np.uint8)
    rows[15, -2:] = rows[16, :2] = 1
    pairs = rows.ravel()
    cut = pairs
    for _ in cert.deltas[1:]:
        cut, _ = phase3_round(cut, cert.k)
    assert cut.sum() == 4

    real = cooling.phase2_round

    def leaves_pairs(*args, **kwargs):
        _, rec = real(*args, **kwargs)
        return pairs, rec

    monkeypatch.setattr(cooling, "phase2_round", leaves_pairs)
    res = pipeline(thermal.BiasModel("binomial", 0.25), n, seed=1)
    assert [r.n_in for r in res.records if r.phase == 3][0] == len(pairs)
    assert res.clean_bits > 0 and res.bits.sum() == 0


@pytest.mark.parametrize("lens,w", [
    ([6], 2), ([20], 5), ([0, 12, 6, 30], 3), ([7 * 11] * 4 + [7 * 3, 0], 7), ([2 * 1000], 2),
])
def test_phase3_transpose_reads_columns_and_counts_its_inversions(lens, w):
    src, inv = cooling._transpose(np.arange(sum(lens)), lens, w)
    start = 0
    for length in lens:
        grid = np.arange(start, start + length).reshape(-1, w)
        assert src[start : start + length].tolist() == grid.T.ravel().tolist()
        start += length
    rows = [length // w for length in lens]
    assert inv == sum(math.comb(r, 2) for r in rows) * math.comb(w, 2)
    assert inv == perms.count_inversions(src)


def test_pipeline_markov_stride_blocks_near_binomial():
    # after the stride shuffle, in-block 8-bit window ones-counts are close
    # to the binomial law (L1 distance on the 9-cell histogram)
    n = 10**6
    model = thermal.BiasModel("markov", 0.2, ell=10)
    bits = thermal.sample(model, n, seed=11)
    from spinref import perms as _perms

    shuffled = _perms.apply_to(bits, thermal.stride_shuffle_perm(n))
    m = block_size(n)
    windows = shuffled[: (n // m) * m].reshape(-1, m)
    # disjoint 8-bit windows within blocks
    w = windows[:, : (m // 8) * 8].reshape(-1, 8)
    counts = np.bincount(w.sum(axis=1), minlength=9)
    emp = counts / counts.sum()
    delta = model.p_one
    from math import comb

    binom = np.array([comb(8, c) * delta**c * (1 - delta) ** (8 - c) for c in range(9)])
    assert np.abs(emp - binom).sum() < 0.01


@pytest.mark.parametrize("n", [48**3, 3**12])
@pytest.mark.parametrize("source", ["binomial", "markov"])
def test_shuffled_blocks_yields_the_floor_with_no_stray_ones(tmp_path, n, source):
    # the survivors are cut into fresh windows before every round, so no
    # round's windows shrink below its bin or block size
    argv = ["pipeline", "--mode", "shuffled-blocks", "--n", str(n), "--model", source,
            "--epsilon", "0.25", "--seed", "0", "--trials", "10", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    summary = json.loads((tmp_path / "ledger.json").read_text())
    floor = summary["ledger"]["expected_floor"]
    assert [t["seed"] for t in summary["trials"]] == list(range(10))
    for trial in summary["trials"]:
        assert trial["clean_bits"] >= floor, trial["seed"]
        assert trial["ones_out"] == 0, trial["seed"]


def test_stride_spread_keeps_correlated_ones_out_of_the_prefix(monkeypatch):
    # a markov source's ones come in runs; without the spread a window holds
    # a run, and ones leave in pairs that the parity and mod-4 rounds pass
    model, n = thermal.BiasModel("markov", 0.25, ell=10), 3**12

    def strays():
        return [int(pipeline(model, n, seed, mode="shuffled-blocks").bits.sum())
                for seed in range(10)]

    assert strays() == [0] * 10
    monkeypatch.setattr(thermal, "stride_spread", lambda bits: bits)
    assert all(s > 0 for s in strays())


def test_shuffled_blocks_costs_the_stride_without_the_merge_count(monkeypatch):
    calls = []
    merge_count = perms.count_inversions

    def counted(a):
        calls.append(len(a))
        return merge_count(a)

    monkeypatch.setattr(perms, "count_inversions", counted)
    model = thermal.BiasModel("markov", 0.25, ell=10)
    n = 16**3
    res = pipeline(model, n, seed=1, mode="shuffled-blocks")
    assert calls == []
    init = n * n + merge_count(thermal.stride_shuffle_perm(n))
    # every round after the first regroups its input into fresh windows
    regroup = sum(r.n_in**2 for r in res.records[1:])
    assert res.steps["single"] == init + sum(r.steps for r in res.records) + regroup + n * n
    # the uniform permutation of a non-cube n keeps the merge count
    pipeline(model, 5000, seed=1, mode="shuffled-blocks")
    assert calls == [5000]


def test_two_tape_initial_permutation_cost_is_exact():
    model = thermal.BiasModel("markov", 0.25, ell=10)
    for m in (8, 16, 30):
        n = m**3
        res = pipeline(model, n, seed=2, mode="shuffled-blocks")
        rounds = sum(r.steps for r in res.records)
        regroup = sum(6 * r.n_in for r in res.records[1:])
        assert res.steps["two_tape"] - rounds - regroup - 6 * n == 6 * n * m
    for m in (48, 81, 243, 10**6):
        assert cooling._arch_init_cost(m**3, 0)["two_tape"] == 6 * m**4
    for n in (50000, 100007, 177147, 10**7 + 1):
        c = cooling._arch_init_cost(n, 0)["two_tape"]
        assert c**3 <= 216 * n**4 < (c + 1) ** 3


def _planned_bias(plan):
    """Each round's planned output bias, phase by phase."""
    cert = plan.certificate
    return {
        1: list(plan.orbit[1:]),
        2: [1.0 - 2.0 * pr.delta_out for pr in plan.phase2],
        3: [1.0 - 2.0 * d for d in cert.deltas[1:]],
    }


@pytest.mark.parametrize(
    "mode,n,eps",
    [
        ("binomial-direct", 10**5, 0.05),
        ("binomial-direct", 50000, 1.0),
        ("shuffled-blocks", 3**11, 0.01),
        ("shuffled-blocks", 50000, 0.25),
    ],
)
def test_pipeline_records_the_plan_predictions(mode, n, eps):
    # the kernels record the plan's prediction exactly; nothing recomputes it
    res = pipeline(thermal.BiasModel("binomial", eps), n, seed=4, mode=mode)
    planned = _planned_bias(cooling.make_plan(eps, n))
    for phase, want in planned.items():
        assert [r.bias_pred for r in res.records if r.phase == phase] == want, phase


def test_phase_runs_record_the_plan_predictions():
    n = 10**5
    bits = thermal.sample(thermal.BiasModel("binomial", 0.2), n, seed=6)
    _, recs = phase1_run(bits, eps0=0.2)
    assert [r.bias_pred for r in recs] == analysis.forward_orbit(0.2)[1:]
    _, recs = phase2_run(bits, n, seed=6, delta0=0.05)
    assert [r.bias_pred for r in recs] == [1.0 - 2.0 * pr.delta_out for pr in phase2_plan(0.05, n)]
    _, recs = phase3_run(bits, n, delta0=0.01)
    cert = analysis.phase3_certificate(n, delta0=0.01)
    assert recs and [r.bias_pred for r in recs] == [1.0 - 2.0 * d for d in cert.deltas[1:]]


def test_bare_kernel_call_records_no_prediction():
    bits = thermal.sample(thermal.BiasModel("binomial", 0.5), 1000, seed=0)
    for _, rec in (phase1_round(bits), phase2_round(bits, 3), phase3_round(bits, 5)):
        assert np.isnan(rec.bias_pred)
    _, rec = phase1_round(bits, segments=[500, 500])
    assert np.isnan(rec.bias_pred)


def test_binomial_direct_rejects_a_correlated_source():
    with pytest.raises(ValueError, match="binomial-direct"):
        pipeline(thermal.BiasModel("markov", 0.25, ell=10), 10**4, seed=1)
    res = pipeline(thermal.BiasModel("markov", 0.25, ell=10), 10**4, seed=1, mode="shuffled-blocks")
    assert res.mode == "shuffled-blocks"


def test_pipeline_rejects_bad_mode():
    with pytest.raises(ValueError):
        pipeline(thermal.BiasModel("binomial", 0.2), 100, 0, mode="warp")


def test_ledger_consistency_telescopes():
    # product of per-phase empirical loss factors reproduces n/clean_bits
    res = pipeline(thermal.BiasModel("binomial", 0.25), 10**6, seed=21)
    prod = 1.0
    for rec in res.records:
        prod *= rec.n_in / rec.n_out
    assert prod == pytest.approx(10**6 / res.clean_bits, rel=0.05)


def test_phase2_fourth_region_monte_carlo():
    # expectation-level leakage bound in the power-rule region: across seeds
    # the mean ones passed stays within the analytic ceiling plus 3 sigma
    delta0, n = 1.58e-4, 10**6
    k = choose_k(delta0)
    ceiling = n * delta0 * (1 - (1 - delta0) ** (k - 1))
    passed = []
    for seed in range(50):
        bits = thermal.sample(thermal.BiasModel("binomial", 1 - 2 * delta0), n, seed=seed)
        out, rec = phase2_round(bits, k, seed=seed)
        passed.append(rec.ones_out)
    mean = float(np.mean(passed))
    sem = float(np.std(passed, ddof=1)) / np.sqrt(len(passed))
    assert mean <= ceiling + 3 * sem
    # and the per-round bound chain delta1 <= 1.2 delta0^1.6 holds analytically
    assert analysis.phase2_delta_bound(delta0, k) <= 1.2 * delta0**1.6


def test_phase2_round_count_fit_reported():
    # rounds <= C log log n; report the fitted C
    import math as _math

    ratios = []
    for e in range(6, 13):
        n = 3**e
        rounds = len(phase2_plan(0.072, n))
        ratios.append(rounds / _math.log(_math.log(n)))
    C = max(ratios)
    print(f"\nphase-2 rounds <= C log log n with fitted C = {C:.3f}")
    assert C < 3.0
