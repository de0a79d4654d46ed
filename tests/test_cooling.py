import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinref import analysis, cli, cooling, perms, thermal
from spinref.cooling import (
    block_size,
    choose_k,
    phase1_round,
    phase2_plan,
    phase2_round,
    phase3_round,
    pipeline,
    plan_rounds,
    run_rounds,
)


def bits_of(*xs):
    return np.array(xs, dtype=np.uint8)


def run_phase1(bits, eps0, target=analysis.TARGET_BIAS):
    """The planned pairing rounds from declared bias ``eps0``, run on ``bits``."""
    return run_rounds(bits, plan_rounds(analysis.forward_orbit(eps0, target)))


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
    out, recs = run_phase1(bits, 0.857)
    assert np.array_equal(out, bits) and recs == []


def test_phase1_run_seven_rounds_from_paper_constant():
    bits = thermal.sample(thermal.BiasModel("binomial", 0.009985), 2**20, seed=0)
    out, recs = run_phase1(bits, 0.009985)
    assert len(recs) == 7
    assert recs[-1].bias_pred >= 0.856 * (1 - analysis.THRESHOLD_RTOL)


def test_phase1_run_round_count_matches_backward_count():
    for eps in (0.05, 0.2, 0.4):
        fwd = len(analysis.forward_orbit(eps)) - 1
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
        out, recs = run_phase1(bits, 0.2)
        if (1.0 - 2.0 * out.mean()) >= 0.856:
            hits += 1
    assert hits >= 19


@pytest.mark.parametrize("target", [0.6, 0.856, 0.95])
@pytest.mark.parametrize("eps", [0.05, 0.25, 0.7])
def test_phase1_run_and_pipeline_share_the_round_count(eps, target):
    n = 10**5
    model = thermal.BiasModel("binomial", eps)
    _, recs = run_phase1(thermal.sample(model, n, seed=1), eps, target)
    assert len(recs) == len(analysis.forward_orbit(eps, target)) - 1
    # whatever target phase 1 alone runs to, the pipeline pairs to the
    # fixed handover to parity binning
    res = pipeline(model, n, 1)
    planned = len(cooling.make_plan(eps, n).orbit) - 1
    assert sum(r.phase == 1 for r in res.records) == planned
    assert planned == len(analysis.forward_orbit(eps)) - 1
    if target == analysis.TARGET_BIAS:
        assert len(recs) == planned


def test_plan_enters_phase2_at_the_region_maximum_from_the_threshold_slack():
    # an orbit that ends within the threshold slack below 0.856 declares
    # phase 2's entry level clamped to the region maximum
    slack = analysis.TARGET_BIAS * (1.0 - analysis.THRESHOLD_RTOL / 2)
    plan = cooling.make_plan(analysis.bias_backward(slack), 10**4)
    assert plan.orbit == (plan.orbit[0], slack) and plan.delta2 == cooling.PHASE2_DELTA_MAX


def test_plan_rejects_a_bias_below_the_floor_before_sampling(monkeypatch):
    # below analysis.EPSILON_MIN the ledger cannot be formed: the pipeline
    # stops at its plan, before drawing a cell or pairing a round
    def no_draw(*args):
        raise AssertionError("sampled a run that has no plan")

    monkeypatch.setattr(thermal, "_blocks", no_draw)
    for eps in (1e-200, 1e-155, 0.0):
        with pytest.raises(ValueError, match=f"outside \\[{analysis.EPSILON_MIN:g}, 1\\]"):
            cooling.make_plan(eps, 10**6)
        with pytest.raises(ValueError, match=f"{analysis.EPSILON_MIN:g}"):
            pipeline(thermal.BiasModel("binomial", eps), 10**6, 1)
    assert cooling.make_plan(analysis.EPSILON_MIN, 10**6).epsilon == analysis.EPSILON_MIN


def test_phase1_monotone_cleanliness():
    bits = thermal.sample(thermal.BiasModel("binomial", 0.3), 10**6, seed=5)
    _, recs = run_phase1(bits, 0.3)
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


def _wide_rows(k, weights, filler, seed):
    """Rows of k bits with the given ones-counts at random places, then
    ``filler`` all-zero rows: few rows take the list path, many numpy's."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((len(weights) + filler, k), np.uint8)
    for r, w in zip(rows, weights):
        r[rng.permutation(k)[:w]] = 1
    return rows


@pytest.mark.parametrize("filler", [0, 2 * cooling._FEW])
def test_phase2_counts_bins_wider_than_255_by_exact_sums(filler):
    # a bin of 257 ones is odd and holds more than one 1; a sum kept in
    # uint8 would read it as 1
    k = 300
    rows = _wide_rows(k, [257, 1, 256, 0], filler, seed=filler)
    out, rec = phase2_round(rows.ravel(), k, seed=None)
    assert rec.u == 1
    kept = [r[1:] for r in rows if r.sum() % 2 == 0]
    assert np.array_equal(out, np.concatenate(kept))
    assert rec.ones_out == 256 - int(rows[2, 0])


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
    rounds = plan_rounds(phase2=phase2_plan(0.0166, 10**5), seed=np.random.SeedSequence(3))
    out, recs = run_rounds(bits, rounds)
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


@pytest.mark.parametrize("filler", [0, 2 * cooling._FEW])
def test_phase3_keeps_blocks_wider_than_255_by_exact_sums(filler):
    k = 300
    rows = _wide_rows(k, [256, 258, 4], filler, seed=filler)
    out, rec = phase3_round(rows.ravel(), k)
    kept = [r[3:] for i, r in enumerate(rows) if i != 1]
    assert np.array_equal(out, np.concatenate(kept))
    assert rec.ones_out == 260 - int(rows[0, :3].sum() + rows[2, :3].sum())


def test_phase3_run_certified_rounds():
    n = 10**6
    bits = thermal.sample(thermal.BiasModel("binomial", 1 - 2e-3), 10**5, seed=4)
    out, recs = run_rounds(bits, plan_rounds(certificate=analysis.phase3_certificate(n, 1e-3)))
    assert len(recs) == analysis.phase3_certificate(n, delta0=1e-3).rounds
    assert int(out.sum()) == 0


def test_phase3_zero_ones_loses_only_headers():
    bits = np.zeros(1000, dtype=np.uint8)
    out, rec = phase3_round(bits, 10)
    assert rec.ones_out == 0
    assert rec.n_out == 700


def test_phase3_round_keeps_blocks_and_ones_as_the_mod4_law_predicts():
    # iid bits at delta: a block's 3 header and k - 3 payload weights are
    # independent binomials, and it is kept iff their sum is 0 mod 4.  The
    # kept count is binomial in the blocks; the payload ones out are a sum
    # of B iid per-block values (the payload weight if kept, else 0), whose
    # exact mean and variance come from enumerating both weights.  Ones
    # cluster in the kept blocks, so a Poisson sigma would be too narrow:
    # with it this seed reads z = -1.91, with the exact variance -1.16
    n, k, delta = 10**7, 8, 0.05
    bits = thermal.sample(thermal.BiasModel("binomial", 1 - 2 * delta), n, seed=11)
    _, rec = phase3_round(bits, k)

    def pmf(m):
        return [math.comb(m, j) * delta**j * (1 - delta) ** (m - j) for j in range(m + 1)]

    kept_pairs = [(ph * pw, w) for h, ph in enumerate(pmf(3))
                  for w, pw in enumerate(pmf(k - 3)) if (h + w) % 4 == 0]
    p = sum(q for q, _ in kept_pairs)
    mean = sum(q * w for q, w in kept_pairs)
    var = sum(q * w * w for q, w in kept_pairs) - mean**2
    blocks = n // k
    assert rec.n_out % (k - 3) == 0
    z_kept = (rec.n_out // (k - 3) - blocks * p) / math.sqrt(blocks * p * (1 - p))
    z_ones = (rec.ones_out - blocks * mean) / math.sqrt(blocks * var)
    assert abs(z_kept) <= 3.0, z_kept
    assert abs(z_ones) <= 3.0, z_ones


# ---------------------------------------------------------------------------
# windowed rounds


@st.composite
def layouts(draw):
    """(length, window): a window of 1 to 60 bits, and a length shorter than
    most rows, of one window, of whole windows, or with a short last
    window."""
    window = draw(st.integers(1, 60))
    q = draw(st.integers(2, 12))
    length = draw(st.sampled_from([
        draw(st.integers(0, min(window, 8))),
        window,
        q * window,
        q * window + draw(st.integers(1, window)) % window,
    ]))
    return length, window


def _windows(bits, window):
    """The bits cut into consecutive windows of ``window`` bits by plain
    slicing, the last one possibly short."""
    return [bits[i : i + window] for i in range(0, len(bits), window)]


def _per_window_oracle(call, bits, window):
    """The per-block semantics: one whole-input call per window, outputs
    concatenated and records summed."""
    outs, recs = [np.zeros(0, dtype=np.uint8)], []
    for piece in _windows(bits, window):
        out, rec = call(piece)
        outs.append(out)
        recs.append(rec)
    return np.concatenate(outs), recs


@settings(max_examples=150, deadline=None)
@given(
    layout=layouts(),
    phase=st.sampled_from([1, 2, 3]),
    k=st.integers(2, 9),
    shuffled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(layout=(0, 5), phase=2, k=3, shuffled=True, seed=0)
@example(layout=(2, 7), phase=3, k=4, shuffled=False, seed=1)
@example(layout=(7, 7), phase=2, k=3, shuffled=True, seed=2)
@example(layout=(12 * 60, 60), phase=1, k=2, shuffled=False, seed=3)
@example(layout=(5 * 9 + 4, 9), phase=2, k=5, shuffled=True, seed=4)
@example(layout=(3 * 6 + 1, 6), phase=3, k=6, shuffled=False, seed=5)
def test_segmented_round_equals_per_segment_calls(layout, phase, k, shuffled, seed):
    length, window = layout
    bits = np.random.default_rng(seed).integers(0, 2, length, dtype=np.uint8)
    if phase == 1:
        def call(b, **kw):
            return phase1_round(b, bias_pred=0.8, **kw)
    elif phase == 2:
        # one generator drawn from in window order, as the blocks were
        def call(b, rng, **kw):
            return phase2_round(b, k, seed=rng if shuffled else None, bias_pred=0.99, **kw)
    else:
        def call(b, **kw):
            return phase3_round(b, max(k, 4), bias_pred=0.9, **kw)

    if phase == 2:
        rng_a, rng_b = (np.random.default_rng(seed + 1) for _ in range(2))
        out, rec = call(bits, rng_a, window=window)
        want, recs = _per_window_oracle(lambda b: call(b, rng_b), bits, window)
    else:
        out, rec = call(bits, window=window)
        want, recs = _per_window_oracle(call, bits, window)

    assert out.dtype == np.uint8 and np.array_equal(out, want)
    for name in ("n_in", "n_out", "ones_in", "ones_out", "steps"):
        assert getattr(rec, name) == sum(getattr(r, name) for r in recs), name
    assert rec.u == (sum(r.u for r in recs) if phase == 2 else None)
    # a whole-input call is the same round as a one-window call
    if length <= window and not (phase == 2 and shuffled):
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


def _reference_round(phase, bits, k, seed, window):
    """The round selected the plain way: each window cut by slicing (and
    shuffled by one ``permutation`` draw), ``a == b`` on the pair columns
    and one ``compress`` over every row.  Returns the output and the round
    record."""
    header = 1 if phase < 3 else 3
    rng = None if seed is None else np.random.default_rng(seed)
    pieces = _windows(bits, window or max(len(bits), 1))
    if rng is not None:
        pieces = [piece[rng.permutation(len(piece))] for piece in pieces]
    rows = np.concatenate([np.zeros((0, k), dtype=np.uint8)] + [
        piece[: len(piece) // k * k].reshape(-1, k) for piece in pieces
    ])
    sums, u = rows.sum(axis=1), None
    if phase == 1:
        kept = rows[:, 0] == rows[:, 1]
        out = rows[:, 1].compress(kept)
    else:
        kept = (sums % (2 if phase == 2 else 4)) == 0
        out = rows[:, header:].compress(kept, axis=0).ravel()
    if phase == 2:
        u = int(np.count_nonzero(sums == 1))
    ones_out = int(np.count_nonzero(out))
    return out, cooling.RoundRecord(
        phase, 0, len(bits), len(out), int(np.count_nonzero(bits)), ones_out,
        1.0 - 2.0 * ones_out / len(out) if len(out) else 1.0, 0.5,
        sum(cooling._cost(phase, k, len(piece)) for piece in pieces), u,
        None if phase == 1 else k,
    )


@settings(max_examples=60, deadline=None)
@given(
    phase=st.sampled_from([1, 2, 3]),
    k=st.integers(2, 9),
    layout=layouts(),
    one_window=st.booleans(),
    big=st.booleans(),
    step=st.sampled_from([1, 3]),
    shuffled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(phase=1, k=2, layout=(5, 60), one_window=False, big=True, step=3, shuffled=False,
         seed=1)
# windows without a full row, a short last window, and windows of one row
@example(phase=3, k=6, layout=(12 * 5, 5), one_window=False, big=False, step=1,
         shuffled=False, seed=2)
@example(phase=2, k=5, layout=(4 * 13 + 3, 13), one_window=False, big=False, step=3,
         shuffled=True, seed=3)
@example(phase=1, k=2, layout=(8 * 12, 2), one_window=False, big=False, step=1,
         shuffled=False, seed=4)
@example(phase=3, k=4, layout=(0, 1), one_window=False, big=True, step=1, shuffled=False,
         seed=5)
# pairing on exactly one and two selection slices of rows, and on none
@example(phase=1, k=2, layout=(2 * cooling._SLICE, 50), one_window=True, big=False, step=1,
         shuffled=False, seed=6)
@example(phase=1, k=2, layout=(2 * cooling._SLICE, 50), one_window=False, big=False, step=1,
         shuffled=False, seed=6)
@example(phase=1, k=2, layout=(4 * cooling._SLICE, 50), one_window=True, big=False, step=1,
         shuffled=False, seed=7)
@example(phase=1, k=2, layout=(4 * cooling._SLICE, 50), one_window=False, big=False, step=1,
         shuffled=False, seed=7)
@example(phase=1, k=2, layout=(0, 50), one_window=True, big=False, step=1, shuffled=False,
         seed=8)
@example(phase=1, k=2, layout=(0, 50), one_window=False, big=False, step=1, shuffled=False,
         seed=8)
# exactly _FEW rows, decided on lists, and _FEW + 1, decided by numpy: in one
# window, and in eight windows of 7 bits, two bins each, then a last window
# of 2 bits (no bin) or 3 (one bin)
@example(phase=1, k=2, layout=(2 * cooling._FEW + 1, 60), one_window=True, big=False, step=3,
         shuffled=False, seed=9)
@example(phase=1, k=2, layout=(2 * cooling._FEW + 2, 60), one_window=True, big=False, step=3,
         shuffled=False, seed=9)
@example(phase=2, k=3, layout=(3 * cooling._FEW, 60), one_window=True, big=False, step=1,
         shuffled=False, seed=10)
@example(phase=2, k=3, layout=(3 * cooling._FEW + 3, 60), one_window=True, big=False, step=1,
         shuffled=False, seed=10)
@example(phase=2, k=3, layout=(8 * 7 + 2, 7), one_window=False, big=False, step=1,
         shuffled=True, seed=11)
@example(phase=2, k=3, layout=(8 * 7 + 3, 7), one_window=False, big=False, step=1,
         shuffled=True, seed=11)
@example(phase=3, k=5, layout=(5 * cooling._FEW + 4, 60), one_window=True, big=False, step=1,
         shuffled=False, seed=12)
@example(phase=3, k=5, layout=(5 * cooling._FEW + 5, 60), one_window=True, big=False, step=1,
         shuffled=False, seed=12)
# pairing in odd windows, each full one's last cell dropped, with an odd and
# an even tail, and in even windows
@example(phase=1, k=2, layout=(12 * 7 + 3, 7), one_window=False, big=True, step=1,
         shuffled=False, seed=13)
@example(phase=1, k=2, layout=(12 * 7 + 4, 7), one_window=False, big=False, step=3,
         shuffled=False, seed=14)
@example(phase=1, k=2, layout=(12 * 8 + 5, 8), one_window=False, big=True, step=1,
         shuffled=False, seed=15)
def test_round_kernels_equal_plain_selection(phase, k, layout, one_window, big, step, shuffled,
                                            seed):
    # packed pairing, sliced selection and the window layout give the plain
    # selection's bytes and record, on odd lengths, strided views, dozens of
    # windows with tails or no full row at all, and inputs longer than one
    # selection slice; pairing gives them on the bits packed too, and keeps
    # them packed
    k = {1: 2, 2: k, 3: max(k, 4)}[phase]
    length, window = layout
    if big:
        length += (cooling._SLICE + 7) * k
    if one_window:
        window = None
    rng = np.random.default_rng(seed)
    bits = (rng.random(length * step) < 0.4).astype(np.uint8)[::step]
    seed2 = seed if phase == 2 and shuffled else None
    call = {
        1: lambda **kw: phase1_round(bits, bias_pred=0.5, **kw),
        2: lambda **kw: phase2_round(bits, k, seed=seed2, bias_pred=0.5, **kw),
        3: lambda **kw: phase3_round(bits, k, bias_pred=0.5, **kw),
    }[phase]
    out, rec = call() if window is None else call(window=window)
    want_out, want_rec = _reference_round(phase, bits, k, seed2, window)
    assert out.dtype == np.uint8 and np.array_equal(out, want_out)
    assert rec == want_rec
    if phase == 1:
        packed = cooling.PackedBits(((_words(bits, np.uint64, 1), len(bits)),), len(bits))
        out, rec = phase1_round(packed, bias_pred=0.5, window=window)
        assert isinstance(out, cooling.PackedBits)
        assert np.array_equal(out.unpack(), want_out) and rec == want_rec


@pytest.mark.parametrize("n,size,window", [
    (5, 2, None), (1000, 3, None), (323_635, 7, None), (2304 * 48, 3, 48),
    (2304 * 48 + 29, 5, 48),
])
def test_shuffled_rows_draw_the_int64_permutations(n, size, window):
    # the shuffles permute int32 indices; the generator draws the same
    # permutations as over the default int64 ones, a window at a time
    bits = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
    got = cooling._rows(bits, size, window, np.random.default_rng(77))
    rng = np.random.default_rng(77)
    rows = []
    for piece in _windows(bits, window or n):
        order = rng.permutation(len(piece))
        assert order.dtype == np.int64
        rows.append(piece[order[: len(piece) // size * size]].reshape(-1, size))
    assert np.array_equal(got, np.concatenate(rows))


# the sampler's draw block, the cells of one packed pairing step, and the
# bits of one selection slice of pairs
BLOCK = thermal._BLOCK
SLICE_BITS = 2 * cooling._SLICE


def _draws(model, n, seed):
    """The sample of ``thermal.sample(model, n, seed)`` as the direct
    pipeline takes it: packed, one draw block at a time."""
    return cooling.PackedBits(thermal._blocks(np.random.default_rng(seed), n, model.p_one), n)


def _words(cells, dtype, rest):
    """``cells`` packed into words of ``dtype``, the lanes past them ``rest``."""
    lanes = 8 * np.dtype(dtype).itemsize
    padded = np.concatenate((cells, np.full(-len(cells) % lanes, rest, np.uint8)))
    return np.packbits(padded, bitorder="little").view(dtype)


def _pair_by_rows(bits, bias_pred=math.nan, round_index=0, window=None):
    """The pairing round by ``cooling._round``'s row-sum rule, on the bits
    unpacked: the reference for the packed kernel, with no table and no
    packed words."""
    return cooling._round(1, bits, 2, window, None, bias_pred, round_index)


def _unpacked(result):
    out, rec = result
    return out.unpack(), rec


@pytest.mark.parametrize("eps", [0.05, 0.25, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, SLICE_BITS - 1, SLICE_BITS, SLICE_BITS + 1,
                               3 * SLICE_BITS + 5, 10**5 + 1,
                               BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_streamed_round_equals_round_on_the_whole_sample(n, eps):
    # the draw blocks paired packed as they are drawn, the last one short
    # or odd, equal the round on the whole unpacked sample
    model = thermal.BiasModel("binomial", eps)
    for seed in (0, 1, 2):
        sample = thermal.sample(model, n, seed)
        assert np.array_equal(_draws(model, n, seed).unpack(), sample)
        want_out, want_rec = _pair_by_rows(sample, bias_pred=0.5)
        out, rec = _unpacked(phase1_round(_draws(model, n, seed), bias_pred=0.5, round_index=0))
        assert out.dtype == np.uint8 and np.array_equal(out, want_out)
        assert rec == want_rec
        # as the pipeline calls it: one window of all n bits
        out, rec = _unpacked(phase1_round(_draws(model, n, seed), bias_pred=0.5, window=n))
        assert np.array_equal(out, want_out) and rec == want_rec


def test_streamed_round_on_pieces_of_mixed_sizes_equals_the_whole_round():
    # even blocks of uint16, uint32 and uint64 words, some ending inside a
    # chunk, one over more than one packed step, an empty one, and an odd
    # last block
    rng = np.random.default_rng(21)
    step = cooling._PACKED_SLICE
    sizes = [(16, np.uint16), (0, np.uint64), (6, np.uint16), (64, np.uint32),
             (step + 50, np.uint64), (2 * step, np.uint32), (34, np.uint32), (7, np.uint64)]
    cells = [(rng.random(m) < 0.4).astype(np.uint8) for m, _ in sizes]
    blocks = [(_words(bits, dtype, 1), len(bits)) for bits, (_, dtype) in zip(cells, sizes)]
    whole = np.concatenate(cells)
    want_out, want_rec = _pair_by_rows(whole, bias_pred=0.5)
    for window in (None, len(whole)):
        packed = cooling.PackedBits(iter(blocks), len(whole))
        out, rec = _unpacked(phase1_round(packed, bias_pred=0.5, window=window))
        assert out.dtype == np.uint8 and np.array_equal(out, want_out)
        assert rec == want_rec


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_packed_round_equals_round_on_cells(dtype):
    # every n up to 200 and around one and two packed steps, at three ones
    # fractions; the lanes past n, all ones or all zeros, reach neither the
    # kept bits nor the records, and three rounds chained packed equal
    # three rounds on cells
    rng = np.random.default_rng(30)
    step = cooling._PACKED_SLICE
    sizes = [*range(1, 201), step - 1, step + 1, BLOCK - 1, BLOCK + 1, BLOCK + 18]
    for n in sizes:
        for p in (0.1, 0.5, 0.9):
            cells = (rng.random(n) < p).astype(np.uint8)
            for rest in (1, 0):
                packed = cooling.PackedBits(((_words(cells, dtype, rest), n),), n)
                want, got = cells, packed
                for r in range(3 if n > 200 else 1):
                    want, want_rec = _pair_by_rows(want, bias_pred=0.5, round_index=r)
                    got, rec = phase1_round(got, bias_pred=0.5, round_index=r)
                    assert np.array_equal(got.unpack(), want), (n, p, rest, r)
                    assert rec == want_rec, (n, p, rest, r)


def _packed_case(sizes, dtypes, p, seed):
    """Blocks of the given cell counts, each packed into words of its own
    dtype with the lanes past it set, their cells, and the cells joined."""
    rng = np.random.default_rng(seed)
    cells = [(rng.random(m) < p).astype(np.uint8) for m in sizes]
    blocks = [(_words(bits, dtype, 1), len(bits)) for bits, dtype in zip(cells, dtypes)]
    return blocks, np.concatenate(cells)


def _assert_packed_round_equals_round_on_cells(blocks, cells):
    want_out, want_rec = _pair_by_rows(cells, bias_pred=0.5, round_index=2)
    packed = cooling.PackedBits(iter(blocks), len(cells))
    out, rec = _unpacked(phase1_round(packed, bias_pred=0.5, round_index=2, window=len(cells) or None))
    assert out.dtype == np.uint8 and np.array_equal(out, want_out)
    assert rec == want_rec


_block_sizes = st.one_of(st.just(0), st.integers(1, 100), st.integers(1, 2 * cooling._PACKED_SLICE),
                         st.integers(cooling._PACKED_SLICE - 64, 2 * cooling._PACKED_SLICE))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    sizes=st.lists(_block_sizes, min_size=1, max_size=4),
    dtypes=st.lists(st.sampled_from([np.uint16, np.uint32, np.uint64]), min_size=4, max_size=4),
    p=st.sampled_from([0.02, 0.3, 0.5, 0.98]),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_round_on_random_blocks_equals_round_on_cells(sizes, dtypes, p, seed):
    # empty blocks, blocks ending inside a chunk, blocks over one or two
    # packed steps and an odd last block, in words of 16, 32 and 64 bits:
    # every slice starts at the bit offset the slices before it leave, and
    # its fragments land there; every block but the last is even
    sizes = [m - m % 2 for m in sizes[:-1]] + sizes[-1:]
    _assert_packed_round_equals_round_on_cells(*_packed_case(sizes, dtypes, p, seed))


@pytest.mark.parametrize("offset", range(32))
def test_packed_slice_starts_at_every_offset_in_a_word(offset):
    # a first block of equal pairs keeps 32 + offset bits, so the second
    # block's first slice starts at offset ``offset`` of the output's
    # second word, and its second slice wherever the first one ends
    blocks, cells = _packed_case([2 * (32 + offset), cooling._PACKED_SLICE + 98],
                                 [np.uint32, np.uint64], 0.5, offset)
    blocks[0] = (np.zeros_like(blocks[0][0]), blocks[0][1])
    cells[: blocks[0][1]] = 0
    _assert_packed_round_equals_round_on_cells(blocks, cells)


def test_pair_table_covers_every_chunk():
    # every 16-cell chunk once, as 2^20 cells of uint16 words; 0xAAAA, the
    # padding of a part chunk, keeps nothing
    chunks = np.arange(1 << 16, dtype=np.uint16)
    cells = np.unpackbits(chunks.astype("<u2").view(np.uint8), bitorder="little")
    out, rec = phase1_round(cooling.PackedBits(((chunks, len(cells)),), len(cells)))
    want, want_rec = _pair_by_rows(cells)
    assert np.array_equal(out.unpack(), want) and rec == want_rec
    assert cooling._tables()[0xAAAA] == 0


def test_pipeline_streamed_first_round_equals_whole_sample(monkeypatch):
    # the direct pipeline pairs the sample packed, one draw block at a time;
    # handing it the whole sample as one block of words, paired by rows,
    # gives the same bits, records and steps
    model, n, seed = thermal.BiasModel("binomial", 0.25), 2 * BLOCK + 5, 4
    got = pipeline(model, n, seed)
    blocks = thermal._blocks

    def whole(rng, n, p):
        yield np.concatenate([words for words, _ in blocks(rng, n, p)]), n

    monkeypatch.setattr(thermal, "_blocks", whole)
    monkeypatch.setattr(cooling, "phase1_round", _pair_by_rows)
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


def test_window_must_be_positive_and_may_cut_a_stream():
    bits = np.zeros(10, dtype=np.uint8)

    def packed(*cells):
        return cooling.PackedBits(((_words(bits_of(*cells), np.uint32, 0), len(cells)),), len(cells))

    for window in (0, -1):
        for call in (lambda: phase1_round(bits, window=window),
                     lambda: phase1_round(packed(0, 0), window=window),
                     lambda: phase2_round(bits, 3, seed=1, window=window),
                     lambda: phase3_round(bits, 4, window=window)):
            with pytest.raises(ValueError, match="window must be >= 1"):
                call()
    # packed bits are paired within each window: a full odd window's last
    # cell pairs with nothing, yet is counted in the record
    out, rec = phase1_round(packed(0, 0, 1, 1, 1, 1), window=5)
    assert out.unpack().tolist() == [0, 1] and (rec.n_in, rec.ones_in) == (6, 4)
    out, rec = phase1_round(packed(0, 0, 1, 1, 1, 1), window=6)
    assert out.unpack().tolist() == [0, 1, 1] and rec.n_in == 6


def test_packed_bits_refuse_blocks_that_do_not_hold_n_cells():
    # each of these once gave a record of cells that were never there: 20
    # cells declared as 24, a one-shot block iterator read a second time,
    # and a 5-cell block before a 6-cell one, which a pair would straddle
    cells = bits_of(*[1, 0, 1, 1, 0, 0, 1, 0, 1, 1] * 2)

    def block(lo, hi):
        return _words(cells[lo:hi], np.uint16, 0), hi - lo

    once = cooling.PackedBits(iter([block(0, 20)]), 20)
    want_out, want_rec = _pair_by_rows(cells)
    out, rec = _unpacked(phase1_round(once))
    assert np.array_equal(out, want_out) and rec == want_rec
    for bad in (cooling.PackedBits((block(0, 20),), 24), once,
                cooling.PackedBits((block(0, 5), block(5, 11)), 11)):
        with pytest.raises(ValueError, match="PackedBits"):
            phase1_round(bad)
        with pytest.raises(ValueError, match="PackedBits"):
            bad.unpack()


# ---------------------------------------------------------------------------
# blocks, pipeline


def test_block_size_and_windows_paper_sizes():
    assert block_size(27) == 3
    assert block_size(8) == 2
    assert block_size(10**6) == 100
    # (full windows, short last window); bits that fit one window are one
    assert cooling._split(27, block_size(27)) == (9, 0)
    assert cooling._split(8, block_size(8)) == (4, 0)
    # windows of floor(n^(1/3)) cover the input, the last one short
    assert block_size(50000) == 36
    assert cooling._split(50000, 36) == (1388, 32)
    # a later round cuts its shorter input into windows of the same size
    assert cooling._split(100, 36) == (2, 28)
    assert cooling._split(36, 36) == (0, 36)
    assert cooling._split(0, 36) == (0, 0)
    assert cooling._split(100, None) == (0, 100)


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
    # the pairing rounds read the sample packed, one 2^20-cell draw block
    # at a time, and keep their output packed, so the n sampled bits never
    # exist, and parity binning takes consecutive bins, so no permutation
    # index is built: the peak, 0.220 bytes per input bit here with 2^19
    # cells per packed pairing step, as with 2^18, is set by the pairing
    # rounds with their unpack; the bound leaves about 10% above it
    model, n = thermal.BiasModel("binomial", 0.25), 2**22
    pipeline(model, n, seed=12)
    tracemalloc.start()
    try:
        pipeline(model, n, seed=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 0.25


def test_pipeline_telescoping_records():
    res = pipeline(thermal.BiasModel("binomial", 0.25), 10**5, seed=3)
    for prev, nxt in zip(res.records, res.records[1:]):
        assert nxt.n_in == prev.n_out
    assert res.records[-1].n_out == res.clean_bits


# the bin sizes and predictions of a plan with two parity rounds, k = 7
# then k = 21, as a direct run at 10^9 has; its first round's input
# fraction is that of a sample at bias 1 - 2 delta, which skips pairing
TWO_BINNINGS = cooling.make_plan(0.25, 10**9).phase2


def _two_binnings(monkeypatch):
    """A direct run's model, its plan at any n switched to TWO_BINNINGS."""
    assert [pr.k for pr in TWO_BINNINGS] == [7, 21]
    real = cooling.make_plan
    monkeypatch.setattr(cooling, "make_plan",
                        lambda eps, n: dataclasses.replace(real(eps, n), phase2=TWO_BINNINGS))
    return thermal.BiasModel("binomial", 1.0 - 2.0 * TWO_BINNINGS[0].delta_in)


def test_second_parity_round_keeps_bins_as_the_parity_law_predicts(monkeypatch):
    # a kept k = 7 bin's payload has the parity of its header bit, so most of
    # its ones come in pairs; binned consecutively, a pair falls into one
    # k = 21 bin, which passes.  Read column by column, each k = 21 bin takes
    # one cell of 21 different payloads, independent cells, and keeps with
    # the parity law's probability (1 + (1 - 2 delta)^21) / 2 at its input
    # fraction delta.  The plan's delta is an upper bound, which would only
    # give a floor; the defect raises the ratio, so the test is two-sided at
    # the measured fraction.  Measured |z| <= 0.45 over these seeds, and
    # z = 11.2-12.0 without the column read.
    model = _two_binnings(monkeypatch)
    for seed in range(4):
        second = [r for r in pipeline(model, 2 * 10**5, seed).records if r.phase == 2][1]
        assert second.k == 21
        bins, kept = second.n_in // 21, second.n_out // 20
        p = analysis.binomial_class_mass(second.ones_in / second.n_in, 21, 0, 2)
        z = (kept - bins * p) / math.sqrt(bins * p * (1 - p))
        assert abs(z) <= 3.0, (seed, z)


def test_direct_parity_rounds_bin_consecutively_after_a_charged_column_read(monkeypatch):
    model = _two_binnings(monkeypatch)
    n, seed, window = 10**5, 2, 10**6
    transposes = []
    real_transpose = cooling._transpose

    def transpose(bits, w, window):
        out, inv = real_transpose(bits, w, window)
        transposes.append((bits, w, out, inv))
        return out, inv

    monkeypatch.setattr(cooling, "_transpose", transpose)
    res = pipeline(model, n, seed)

    # the parity rounds bin consecutive bits of the sample, then of the
    # first round's payloads read column by column, rows of w = 6; the
    # second round's record carries that read's inversion count
    recs = [r for r in res.records if r.phase == 2]
    x = thermal.sample(model, n, seed)
    y1, want1 = phase2_round(x, 7, seed=None, bias_pred=recs[0].bias_pred)
    x2, inv = real_transpose(y1, 6, window)
    y2, want2 = phase2_round(x2, 21, seed=None, bias_pred=recs[1].bias_pred, round_index=1)
    want1.steps += n
    want2.steps += n
    want2.read_inv = inv
    assert recs == [want1, want2]
    assert [(len(b), w) for b, w, _, _ in transposes] == [(len(y1), 6), (len(y2), 20)]
    assert np.array_equal(transposes[0][0], y1) and np.array_equal(transposes[0][2], x2)
    assert np.array_equal(transposes[1][0], y2)

    # each column read, between the parity rounds and at phase 3's entry,
    # is charged once, like an initial permutation of its bits
    charges = [cooling._arch_init_cost(len(out), inv) for _, _, out, inv in transposes]
    monkeypatch.setattr(cooling, "_arch_init_cost", lambda n, inv: dict.fromkeys(res.steps, 0))
    uncharged = pipeline(model, n, seed).steps
    for arch in res.steps:
        assert res.steps[arch] == uncharged[arch] + sum(c[arch] for c in charges), arch

    # the records chain across the column reads
    for prev, nxt in zip(res.records, res.records[1:]):
        assert (nxt.n_in, nxt.ones_in) == (prev.n_out, prev.ones_out)
    assert res.records[-1].n_out == res.clean_bits


@pytest.mark.parametrize("mode", ["binomial-direct", "shuffled-blocks"])
@pytest.mark.parametrize("binnings", [1, 2])
def test_pipeline_runs_its_plans_round_list(monkeypatch, mode, binnings):
    # the pipeline is one run_rounds call on its plan's one round list, the
    # column reads included: that list, run on the sample (spread by the
    # stride permutation in shuffled-blocks mode), gives its bits and records
    model = _two_binnings(monkeypatch) if binnings == 2 else thermal.BiasModel("binomial", 0.25)
    n, seed, direct = 64**3, 5, mode == "binomial-direct"
    plan = cooling.make_plan(model.epsilon, n)
    assert len(plan.phase2) == binnings
    x = thermal.sample(model, n, seed)
    if direct:
        root, m = None, n
    else:
        x, root, m = thermal.stride_spread(x), np.random.SeedSequence((seed, 0x5EED2)), block_size(n)
    bits, records = run_rounds(x, plan_rounds(plan.orbit, plan.phase2, plan.certificate, root), m)
    res = pipeline(model, n, seed, mode=mode)
    for rec in res.records:
        rec.steps -= n
    assert np.array_equal(res.bits, bits) and res.records == records
    # a read precedes each unshuffled round that follows a parity round
    parity = [i for i, r in enumerate(records) if r.phase == 2]
    reads = (parity[1:] if direct else []) + [parity[-1] + 1]
    assert [i for i, r in enumerate(records) if r.read_inv is not None] == reads


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


# (the window lengths the bits are cut into, w); the window is the first
@pytest.mark.parametrize("lens,w", [
    ([6], 2), ([20], 5), ([12, 12, 12, 9], 3), ([7 * 11] * 4 + [7 * 3], 7), ([2 * 1000], 2),
    ([4, 4, 4], 4), ([12, 12, 12, 12], 3),
])
def test_phase3_transpose_reads_columns_and_counts_its_inversions(lens, w):
    length, window = sum(lens), lens[0]
    pieces = _windows(np.arange(length), window)
    assert [len(piece) for piece in pieces] == lens
    src, inv = cooling._transpose(np.arange(length), w, window)
    assert src.tolist() == [i for piece in pieces for i in piece.reshape(-1, w).T.ravel()]
    assert inv == sum(math.comb(n // w, 2) for n in lens) * math.comb(w, 2)
    assert inv == perms.count_inversions(src)
    # bits that fit one window: a wider window reads the same
    if len(lens) == 1:
        assert cooling._transpose(np.arange(length), w, 3 * window)[0].tolist() == src.tolist()


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


BLOCKS_N = [48**3, 3**12, 3**15]


@pytest.fixture(scope="module")
def blocks_ledger(tmp_path_factory):
    """``ledger(n, source)``: the ledger.json of a shuffled-blocks pipeline
    at eps 0.25 over seeds 0-9, run once per module for each (n, source)."""
    ledgers = {}

    def ledger(n, source):
        if (n, source) not in ledgers:
            out = tmp_path_factory.mktemp("blocks")
            argv = ["pipeline", "--mode", "shuffled-blocks", "--n", str(n), "--model", source,
                    "--epsilon", "0.25", "--seed", "0", "--trials", "10", "--out", str(out)]
            assert cli.main(argv) == cli.EXIT_OK
            ledgers[n, source] = json.loads((out / "ledger.json").read_text())
        return ledgers[n, source]

    return ledger


@pytest.mark.parametrize("n", BLOCKS_N)
@pytest.mark.parametrize("source", ["binomial", "markov"])
def test_shuffled_blocks_yields_the_floor_with_no_stray_ones(blocks_ledger, n, source):
    # the survivors are cut into fresh windows before every round, so no
    # round's windows shrink below its bin or block size
    summary = blocks_ledger(n, source)
    floor = summary["ledger"]["expected_floor"]
    assert [t["seed"] for t in summary["trials"]] == list(range(10))
    for trial in summary["trials"]:
        assert trial["clean_bits"] >= floor, trial["seed"]
        assert trial["ones_out"] == 0, trial["seed"]


@pytest.mark.parametrize("source", ["binomial", "markov"])
def test_shuffled_blocks_clean_fraction_does_not_fall_with_n(blocks_ledger, source):
    # criterion 11's rule on the runs above: from one size to the next the
    # mean clean fraction over the 10 seeds may not fall by more than 3
    # sigma, sigma the standard error of the difference of the two means
    # (measured: binomial 3.59e-3, 6.64e-3, 1.207e-2; markov 3.74e-3, 6.59e-3,
    # 1.206e-2)
    means, sems = [], []
    for n in BLOCKS_N:
        fracs = np.array([t["clean_bits"] / n for t in blocks_ledger(n, source)["trials"]])
        means.append(fracs.mean())
        sems.append(fracs.std(ddof=1) / math.sqrt(len(fracs)))
    for i in range(len(BLOCKS_N) - 1):
        assert means[i + 1] >= means[i] - 3.0 * math.hypot(sems[i], sems[i + 1]), means


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
    _, recs = run_phase1(bits, 0.2)
    assert [r.bias_pred for r in recs] == analysis.forward_orbit(0.2)[1:]
    plan = phase2_plan(0.05, n)
    _, recs = run_rounds(bits, plan_rounds(phase2=plan, seed=np.random.SeedSequence(6)))
    assert [r.bias_pred for r in recs] == [1.0 - 2.0 * pr.delta_out for pr in plan]
    cert = analysis.phase3_certificate(n, delta0=0.01)
    _, recs = run_rounds(bits, plan_rounds(certificate=cert))
    assert recs and [r.bias_pred for r in recs] == [1.0 - 2.0 * d for d in cert.deltas[1:]]


def test_bare_kernel_call_records_no_prediction():
    bits = thermal.sample(thermal.BiasModel("binomial", 0.5), 1000, seed=0)
    for _, rec in (phase1_round(bits), phase2_round(bits, 3), phase3_round(bits, 5)):
        assert np.isnan(rec.bias_pred)
    _, rec = phase1_round(bits, window=500)
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
