import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinref import compiler, cooling, machine, perms, thermal
from spinref.thermal import (
    BiasModel,
    sample,
    stride_inversions,
    stride_shuffle_perm,
    stride_spread,
    uniform_random_perm,
)


def test_model_validation():
    with pytest.raises(ValueError):
        BiasModel("gauss", 0.1)
    with pytest.raises(ValueError):
        BiasModel("binomial", 1.5)
    with pytest.raises(ValueError):
        BiasModel("markov", 0.1)  # missing ell


def test_full_bias_forces_zeros():
    assert list(sample(BiasModel("binomial", 1.0), 5, seed=0)) == [0] * 5


def test_binomial_ones_fraction():
    bits = sample(BiasModel("binomial", 0.2), 10**6, seed=42)
    # P(1) = 0.4; 3 sigma of the mean is ~0.0015
    assert abs(bits.mean() - 0.4) < 0.0015


def test_markov_lag_correlation():
    model = BiasModel("markov", 0.0, ell=10)
    bits = sample(model, 10**6, seed=3)
    s = 1.0 - 2.0 * bits.astype(float)
    corr = float(np.corrcoef(s[:-10], s[10:])[0, 1])
    assert abs(corr - 0.1) < 0.01


def test_markov_marginal_and_decay():
    model = BiasModel("markov", 0.3, ell=8)
    bits = sample(model, 10**6, seed=5)
    p0 = 1.0 - bits.mean()
    sigma = np.sqrt(0.65 * 0.35 / 10**6)
    # correlated samples: inflate the iid sigma by the correlation time
    assert abs(p0 - 0.65) < 3 * sigma * np.sqrt(2 / (1 - model.rho))
    s = 1.0 - 2.0 * bits.astype(float)
    for d in (4, 8, 16, 24):
        corr = float(np.corrcoef(s[:-d], s[d:])[0, 1])
        assert abs(corr - model.rho**d) < 0.02


def test_sample_reproducible():
    model = BiasModel("markov", 0.2, ell=5)
    a = sample(model, 4096, seed=9)
    b = sample(model, 4096, seed=9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample(model, 4096, seed=10))


# the draw's block of cells, as the ``thermal`` docstring fixes it
BLOCK = 1 << 20
ALL = 2**64 - 1


def _reference_words(raw, n, p):
    """The draw schedule of the ``thermal`` docstring in Python ints: the
    words of n cells that are 1 with probability p, K's bits taken from
    ``raw``."""
    P = math.ceil(p * 2**53)
    words = []
    for lo in range(0, n, BLOCK):
        m = -(-min(BLOCK, n - lo) // 64)
        if P in (0, 2**53):
            words += [ALL if P else 0] * m
            continue
        ones, lanes, active = [0] * m, [ALL] * m, range(m)
        for step, i in enumerate(range(52, -1, -1), 1):
            if P % (2 << i) == 0:  # P's remaining bits are all zero
                break
            for w, r in zip(active, raw(len(active)).tolist()):
                if P >> i & 1:
                    ones[w] |= lanes[w] & ~r
                    lanes[w] &= r
                else:
                    lanes[w] &= ~r
            if step >= 8 and step % 4 == 0:
                active = [w for w in active if lanes[w]]
                if not active:
                    break
        words += ones
    return words


def _reference_cells(words, n):
    words = np.array(words, dtype=np.uint64)
    return ((words[:, None] >> np.arange(64, dtype=np.uint64)) & 1).astype(np.uint8).ravel()[:n]


def _reference_sample(model, n, seed):
    raw = np.random.default_rng(seed).bit_generator.random_raw
    if model.kind == "binomial":
        return _reference_cells(_reference_words(raw, n, model.p_one), n)
    copy = _reference_cells(_reference_words(raw, n, model.rho), n)
    fresh = _reference_cells(_reference_words(raw, n, model.p_one), n)
    copy[0] = 0
    return _run_length_fill(copy, fresh)


REFERENCE_MODELS = {
    "p0": BiasModel("binomial", 1.0),
    "p0.5": BiasModel("binomial", 0.0),
    "p0.3712345678": BiasModel("binomial", 1.0 - 2 * 0.3712345678),
    "markov-ell10": BiasModel("markov", 0.25, ell=10),
    "markov-ell1-p0.5": BiasModel("markov", 0.0, ell=1),
    # rho rounds to 1.0: every cell after the first copies it
    "markov-rho1": BiasModel("markov", 0.25, ell=10**17),
}


@pytest.mark.parametrize(
    "name,n",
    [(name, n) for name in sorted(REFERENCE_MODELS) for n in (1, 2, 63, 64, 65, 129, 4097)]
    + [(name, n) for name in ("p0.3712345678", "markov-ell10")
       for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 65)],
)
def test_sample_matches_the_reference_schedule(name, n):
    model = REFERENCE_MODELS[name]
    bits = sample(model, n, n)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, _reference_sample(model, n, n))


def _scripted(patterns, bits):
    """A ``random_raw`` stand-in for ``thermal._draw``: lane j of word w
    reads the ``bits``-bit value ``patterns[w][j]`` as K's top bits, top bit
    first, one bit per call.  Records the size of each call."""
    calls = []

    def raw(m):
        shift = bits - 1 - len(calls)
        calls.append(m)
        assert m == len(patterns) and shift >= 0
        return np.array([sum((v >> shift & 1) << j for j, v in enumerate(row)) for row in patterns],
                        dtype=np.uint64)

    return raw, calls


def test_dyadic_draws_read_one_iff_the_top_bits_are_below_the_numerator():
    # p = a / 2^b for every a, b <= 4: each lane of a word reads its own
    # scripted top b bits of K, and is 1 iff they are below a.  Every value
    # sits in every lane and beside every other value in one word, so each
    # lane decides alone, and exactly a of the 2^b values read 1:
    # P(one) = a / 2^b = ceil(p 2^53) / 2^53.
    rng = np.random.default_rng(27)
    for b in range(1, 5):
        cycle = [[(j + w) % 2**b for j in range(64)] for w in range(2**b)]
        shuffled = rng.integers(0, 2**b, (16, 64)).tolist()
        for a in range(2**b + 1):
            P = thermal._threshold(a / 2**b)
            assert P == a << (53 - b)
            # steps run down to the lowest one of a; a = 0 or 2^b draws nothing
            steps = 0 if a in (0, 2**b) else b - ((a & -a).bit_length() - 1)
            for patterns in (cycle, shuffled):
                raw, calls = _scripted(patterns, b)
                words = np.empty(len(patterns), np.uint64)
                thermal._draw(raw, P, words)
                cells = _reference_cells(words.tolist(), 64 * len(patterns)).reshape(-1, 64)
                assert np.array_equal(cells, np.array(patterns) < a), (a, b)
                assert calls == [len(patterns)] * steps, (a, b)
                if patterns is cycle:
                    assert cells.sum() == 64 * a


def test_threshold_is_the_law_of_a_double_below_p():
    # rng.random() is K / 2^53, so it is below p iff K < P = ceil(p 2^53):
    # P is the least K whose double is not below p
    for p in (0.0, 2**-60, 0.1, 1 / 3, 0.3712345678, 0.5 - 2**-55, 0.5, 1.0 - 2**-53, 1.0):
        P = thermal._threshold(p)
        assert Fraction(P - 1, 2**53) < Fraction(p) <= Fraction(P, 2**53), p


def test_sample_draw_equal_to_p_one_is_a_zero():
    # the threshold is strict: a lane whose K equals P reads 0, one below
    # it reads 1 and one above reads 0.  P is odd, so all 53 bits are read,
    # and the word stays active through every rebuild.
    P = 0x0B_7F3C_9A15_2E4D | 1
    p = P / 2**53
    assert thermal._threshold(p) == P
    ks = [P + j - 32 for j in range(64)]
    raw, calls = _scripted([ks], 53)
    words = np.empty(1, np.uint64)
    thermal._draw(raw, P, words)
    cells = _reference_cells(words.tolist(), 64)
    assert cells[32] == 0
    assert cells.tolist() == [int(k < P) for k in ks]
    assert calls == [1] * 53


# lengths at and around block boundaries, and anywhere up to one block
sample_sizes = st.one_of(
    st.builds(lambda c, d: max(1, c * BLOCK + d), st.integers(0, 2), st.integers(-2, 2)),
    st.integers(1, BLOCK + 70),
)


@settings(max_examples=40, deadline=None)
@given(n=sample_sizes, size=st.sampled_from([1, 7, 2**17 - 1, 2**17, BLOCK - 1, BLOCK, 2 * BLOCK + 3]),
       eps=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_sample_pieces_are_the_sample_in_order(n, size, eps, seed):
    n = min(n, 2**16 * size)  # at most 2^16 pieces
    model = BiasModel("binomial", eps)
    pieces = [piece.copy() for piece in thermal.sample_pieces(model, n, seed, size)]
    assert [len(p) for p in pieces] == [min(size, n - lo) for lo in range(0, n, size)]
    assert np.array_equal(np.concatenate(pieces), sample(model, n, seed))


def _run_length_fill(copy, fresh):
    """The run-length fill that ``thermal._fill_words`` replaced: each
    start's fresh value repeated up to the next start."""
    starts = np.flatnonzero(copy == 0)
    return np.repeat(fresh[starts], np.diff(starts, append=len(copy)))


def _packed(flags):
    """0/1 flags as uint64 words, cell c bit c % 64 of word c // 64, zero-padded."""
    packed = np.packbits(flags.view(bool), bitorder="little")
    words = np.zeros(-(-len(flags) // 64), "<u8")
    words.view(np.uint8)[: len(packed)] = packed
    return words


def _fill_runs(copy, fresh):
    x = thermal._fill_words(_packed(copy), _packed(fresh))
    return np.unpackbits(x.astype("<u8", copy=False).view(np.uint8), count=len(copy), bitorder="little")


def test_fill_runs_equals_the_run_length_fill_on_every_small_input():
    # every (copy, fresh) pair with copy[0] = 0 up to n = 9: each alone up to
    # n = 6, and all of one n as consecutive segments of one input, whose
    # fill is the fills of its segments since a start opens each one
    for n in range(1, 10):
        cells = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
        copies, fresh = np.repeat(cells[::2], len(cells), axis=0), np.tile(cells, (len(cells) // 2, 1))
        if n <= 6:
            for c, f in zip(copies, fresh):
                assert np.array_equal(_fill_runs(c, f), _run_length_fill(c, f)), (c, f)
        c, f = copies.ravel(), fresh.ravel()
        assert np.array_equal(_fill_runs(c, f), _run_length_fill(c, f)), n


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 4095, 4096, 4097])
@pytest.mark.parametrize("rate", [0.0, 0.3, 0.8, 0.97, 1.0])
def test_fill_runs_equals_the_run_length_fill_across_words(n, rate):
    rng = np.random.default_rng([n, int(100 * rate)])
    for _ in range(4):
        copy = (rng.random(n) < rate).astype(np.uint8)
        copy[0] = 0
        fresh = (rng.random(n) < 0.5).astype(np.uint8)
        out = _fill_runs(copy, fresh)
        assert out.dtype == np.uint8
        assert np.array_equal(out, _run_length_fill(copy, fresh))


@pytest.mark.parametrize("ell", [1, 10, 1000])
def test_markov_sample_is_the_run_length_fill_of_its_draws(ell):
    # the copy coins of all n cells first, then their fresh values
    model, n, seed = BiasModel("markov", 0.25, ell=ell), 10**5 + 3, 11
    rng = np.random.default_rng(seed)
    copy = thermal._cells(thermal._draw_words(rng, n, model.rho), n)
    fresh = thermal._cells(thermal._draw_words(rng, n, model.p_one), n)
    copy[0] = 0
    assert np.array_equal(sample(model, n, seed), _run_length_fill(copy, fresh))


def test_sample_pieces_refuse_markov_and_empty_draws():
    with pytest.raises(ValueError, match="binomial"):
        thermal.sample_pieces(BiasModel("markov", 0.25, ell=3), 10, 0, 4)
    with pytest.raises(ValueError):
        thermal.sample_pieces(BiasModel("binomial", 0.25), 0, 0, 4)
    with pytest.raises(ValueError):
        thermal.sample_pieces(BiasModel("binomial", 0.25), 10, 0, 0)


def test_sample_peak_allocation_stays_near_the_output():
    # the one-shot draw peaked at about 9 bytes per bit (a float64 array
    # plus a bool array); the word-wise draw holds little beyond the uint8 output
    n = 10**6
    model = BiasModel("binomial", 0.25)
    sample(model, 64, 0)
    tracemalloc.start()
    try:
        sample(model, n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n


def test_stride_perm_small_values():
    p = stride_shuffle_perm(8)
    assert p[0] == 0 and p[1] == 3 and p[2] == 2 and p[3] == 5


def test_stride_perm_bijective():
    for n in (8, 27, 1000):
        assert perms.is_permutation(stride_shuffle_perm(n))
    with pytest.raises(ValueError):
        stride_shuffle_perm(10)


def test_stride_perm_separates_blocks():
    for n in (27, 64, 1000):
        m = round(n ** (1 / 3))
        p = stride_shuffle_perm(n)
        src = np.arange(n) // m
        dst = p // m
        for b in range(n // m):
            dests = dst[src == b]
            assert len(set(dests.tolist())) == m


def test_stride_spread_is_the_stride_permutation_applied():
    rng = np.random.default_rng(5)
    for m in list(range(1, 9)) + [48]:
        bits = rng.integers(0, 2, m**3, dtype=np.uint8)
        out = stride_spread(bits)
        assert out.dtype == bits.dtype
        assert np.array_equal(out, perms.apply_to(bits, stride_shuffle_perm(m**3))), m


def test_stride_spread_returns_a_fresh_writable_array():
    for m in (1, 2, 5):
        bits = np.arange(m**3, dtype=np.uint8)
        out = stride_spread(bits)
        assert out.flags.writeable and not np.shares_memory(out, bits)
        out[:] = 7
        assert np.array_equal(bits, np.arange(m**3))


def test_stride_spread_rejects_non_cubes_like_the_permutation():
    for n in (2, 10, 50000):
        with pytest.raises(ValueError) as spread:
            stride_spread(np.zeros(n, dtype=np.uint8))
        with pytest.raises(ValueError) as perm:
            stride_shuffle_perm(n)
        assert str(spread.value) == str(perm.value)


def test_stride_inversions_match_the_merge_count():
    for m in list(range(1, 21)) + [48]:
        n = m**3
        assert stride_inversions(n) == perms.count_inversions(stride_shuffle_perm(n)), m


def test_stride_inversions_reject_non_cubes():
    for n in (2, 10, 50000):
        with pytest.raises(ValueError):
            stride_shuffle_perm(n)
        with pytest.raises(ValueError):
            stride_inversions(n)


def test_cube_roots_are_exact_past_float_precision():
    # a float cube root is off by more than one past 2**53, so these failed
    # a round-then-correct check
    for m in (2**53 + 1, 2**60 + 1):
        n = m**3
        assert stride_inversions(n) == m * m * (m - 1) * (8 * m * m - 3 * m + 1) // 12
        assert cooling.block_size(n) == m and cooling.block_size(n - 1) == m - 1
        with pytest.raises(ValueError):
            stride_inversions(n + 1)


def test_uniform_perm_basics():
    assert list(uniform_random_perm(1, seed=0)) == [0]
    for n in (2, 5, 30):
        assert perms.is_permutation(uniform_random_perm(n, seed=n))


def test_uniform_perm_multinomial():
    # n=3: each of the 6 permutations appears 10000 +- 400 times in 60000 draws
    counts = {}
    for s in range(60000):
        key = tuple(uniform_random_perm(3, seed=s))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c - 10000) < 400


def test_initial_permutation_charge_is_the_bubble_programs_step_count():
    # the single-tape charge n^2 + inv is what the compiled deinterleave
    # takes: n walks of n shifts, plus one swap per inversion
    rng = np.random.default_rng(7)
    cubes = [(stride_shuffle_perm(m**3), stride_inversions(m**3)) for m in range(2, 7)]
    for perm, inv in cubes + [
        (p, perms.count_inversions(p)) for p in (rng.permutation(n) for n in (9, 27, 64))
    ]:
        n = len(perm)
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        state = machine.new_tape(bits.copy())
        machine.execute(state, compiler._emit_deinterleave(perm, n))
        assert np.array_equal(state.logical(), perms.apply_to(bits, perm)), n
        assert state.steps == cooling._arch_init_cost(n, inv)["single"], n
