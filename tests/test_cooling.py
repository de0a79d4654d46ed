import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinref import analysis, cooling, perms, thermal
from spinref.cooling import (
    CoolingError,
    Phase1Config,
    Phase2Schedule,
    block_segments,
    block_size,
    choose_k,
    gather_perm,
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
    out, rec = phase1_round(bits, bias_pred_in=0.5)
    delta = 0.1
    sigma = np.sqrt(rec.n_out * delta * (1 - delta))
    assert abs(rec.ones_out - rec.n_out * delta) < 3 * sigma
    assert rec.bias_pred == pytest.approx(0.8)


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


def test_phase2_run_records():
    bits = thermal.sample(thermal.BiasModel("binomial", 0.9668), 10**5, seed=2)
    out, recs = phase2_run(bits, 10**5, seed=3, delta0=0.0166)
    assert len(recs) == len(phase2_plan(0.0166, 10**5))
    for rec in recs:
        assert rec.phase == 2 and rec.u is not None


def test_phase2_forced_endgame_is_guarded():
    # the endgame branch (bin = whole interaction block) only triggers for
    # alpha below the validated range; forcing it must fail loudly rather
    # than silently diverge
    class Loose(Phase2Schedule):
        def __post_init__(self):
            pass

    with pytest.raises((CoolingError, ValueError)):
        phase2_plan(0.072, 10**6, Loose(alpha=0.1))


def test_phase2_schedule_validation():
    with pytest.raises(ValueError):
        Phase2Schedule(alpha=0.5)
    with pytest.raises(ValueError):
        Phase2Schedule(alpha=0.2)
    Phase2Schedule(alpha=0.32)


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
            return phase1_round(b, bias_pred_in=0.5, **kw)
    elif phase == 2:
        # one generator drawn from in segment order, as the blocks were
        def call(b, rng, **kw):
            return phase2_round(b, k, seed=rng if shuffled else None, delta_pred_in=0.01, **kw)
    else:
        def call(b, **kw):
            return phase3_round(b, max(k, 4), bias_pred_out=0.9, **kw)

    if phase == 2:
        rng_a, rng_b = (np.random.default_rng(seed + 1) for _ in range(2))
        out, rec, out_lens = call(bits, rng_a, segments=lens)
        want, recs = _per_segment_oracle(lambda b: call(b, rng_b), bits, lens)
    else:
        out, rec, out_lens = call(bits, segments=lens)
        want, recs = _per_segment_oracle(call, bits, lens)

    assert np.array_equal(out, want)
    assert out_lens.tolist() == [r.n_out for r in recs]
    for name in ("n_in", "n_out", "ones_in", "ones_out", "steps"):
        assert getattr(rec, name) == sum(getattr(r, name) for r in recs), name
    assert rec.u == (sum(r.u for r in recs) if phase == 2 else None)
    # a whole-input call is the same round as a one-segment call
    if len(lens) == 1 and not (phase == 2 and shuffled):
        whole_out, whole_rec = call(bits, np.random.default_rng(0)) if phase == 2 else call(bits)
        assert np.array_equal(whole_out, out) and whole_rec == rec


def test_segment_lengths_must_cover_the_input():
    with pytest.raises(ValueError):
        phase1_round(np.zeros(10, dtype=np.uint8), segments=[4, 5])
    with pytest.raises(ValueError):
        phase3_round(np.zeros(10, dtype=np.uint8), 4, segments=[9])


# ---------------------------------------------------------------------------
# blocks, gather, pipeline


def test_block_segments_paper_sizes():
    assert block_size(27) == 3
    assert block_size(8) == 2
    assert block_size(10**6) == 100
    assert block_segments(27).tolist() == [3] * 9
    assert block_segments(8).tolist() == [2] * 4
    # blocks of floor(n^(1/3)) cover the input, the last one short
    lens = block_segments(50000)
    assert block_size(50000) == 36
    assert lens.tolist() == [36] * 1388 + [32]
    assert int(lens.sum()) == 50000


def test_gather_machine_cost_quadratic():
    rng = np.random.default_rng(0)
    for n in (27, 243, 729):
        mask = rng.random(n) < 0.3
        perm = gather_perm(mask)
        cost = thermal.transposition_schedule(perm)[1]
        assert cost <= 2.0 * n * n
        # gathered order preserved
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        from spinref import perms as _perms

        out = _perms.apply_to(bits, perm)
        assert np.array_equal(out[: mask.sum()], bits[mask])


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


def test_pipeline_telescoping_records():
    res = pipeline(thermal.BiasModel("binomial", 0.25), 10**5, seed=3)
    for prev, nxt in zip(res.records, res.records[1:]):
        assert nxt.n_in == prev.n_out
    assert res.records[-1].n_out == res.clean_bits


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
    assert res.steps["single"] == init + sum(r.steps for r in res.records) + n * n
    # the uniform permutation of a non-cube n keeps the merge count
    pipeline(model, 5000, seed=1, mode="shuffled-blocks")
    assert calls == [5000]


def test_two_tape_initial_permutation_cost_is_exact():
    model = thermal.BiasModel("markov", 0.25, ell=10)
    for m in (8, 16, 30):
        n = m**3
        res = pipeline(model, n, seed=2, mode="shuffled-blocks")
        rounds = sum(r.steps for r in res.records)
        assert res.steps["two_tape"] - rounds - 6 * n == 6 * n * m
    for m in (48, 81, 243, 10**6):
        assert cooling._arch_init_cost(m**3, 0)["two_tape"] == 6 * m**4
    for n in (50000, 100007, 177147, 10**7 + 1):
        c = cooling._arch_init_cost(n, 0)["two_tape"]
        assert c**3 <= 216 * n**4 < (c + 1) ** 3


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
