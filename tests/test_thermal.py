import numpy as np
import pytest

from spinref import cooling, machine, perms, thermal
from spinref.thermal import (
    BiasModel,
    apply_perm_as_transpositions,
    read_bits_ascii,
    read_bits_packed,
    sample,
    stride_inversions,
    stride_shuffle_perm,
    transposition_schedule,
    uniform_random_perm,
    write_bits_ascii,
    write_bits_packed,
)


def test_model_validation():
    with pytest.raises(ValueError):
        BiasModel("gauss", 0.1)
    with pytest.raises(ValueError):
        BiasModel("binomial", 1.5)
    with pytest.raises(ValueError):
        BiasModel("markov", 0.1)  # missing ell
    with pytest.raises(ValueError):
        BiasModel("markov", 0.1, ell=5, threshold=1.0)


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


def test_transposition_identity_and_single_swap():
    prog, cost = transposition_schedule(np.arange(12))
    assert cost == 0 and prog == []
    swapped = np.arange(12)
    swapped[0], swapped[1] = 1, 0
    prog, cost = transposition_schedule(swapped)
    assert cost <= 3  # O(1): no travel, one gate


def test_apply_perm_matches_destination_map():
    rng = np.random.default_rng(7)
    for n in (9, 27, 64):
        pi = rng.permutation(n)
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        state = machine.new_tape(bits.copy())
        _, cost = apply_perm_as_transpositions(state, pi)
        assert np.array_equal(state.logical(), perms.apply_to(bits, pi))
        assert state.steps == cost


def test_schedule_cost_quadratic_envelope():
    rng = np.random.default_rng(11)
    ratios = []
    for n in (27, 81, 243, 729):
        pi = rng.permutation(n)
        prog, cost = transposition_schedule(pi)
        assert cost == len(prog)
        ratios.append(cost / n**2)
    assert max(ratios) < 2.0


def test_packed_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    for n in (1, 7, 8, 9, 4096):
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        path = tmp_path / f"bits_{n}.bin"
        write_bits_packed(path, bits)
        assert np.array_equal(read_bits_packed(path), bits)


def test_packed_read_rejects_truncated_files(tmp_path):
    path = tmp_path / "bits.bin"
    write_bits_packed(path, np.ones(100, dtype=np.uint8))
    data = path.read_bytes()
    for cut, left in ((1, 96), (2, 88)):
        path.write_bytes(data[:-cut])
        with pytest.raises(ValueError, match=f"declares 100 bits but holds only {left}"):
            read_bits_packed(path)
    path.write_bytes(data[:5])
    with pytest.raises(ValueError, match="header holds 5 of 8 bytes"):
        read_bits_packed(path)


def test_ascii_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 200, dtype=np.uint8)
    path = tmp_path / "bits.txt"
    write_bits_ascii(path, bits, width=64)
    assert np.array_equal(read_bits_ascii(path), bits)
    with open(path) as fh:
        assert max(len(line.strip()) for line in fh) <= 64
