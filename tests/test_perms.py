import numpy as np

from spinref import perms


def _brute_inversions(a):
    a = [int(x) for x in a]
    return sum(a[i] > a[j] for i in range(len(a)) for j in range(i + 1, len(a)))


def test_count_inversions_matches_brute_force():
    # lengths cross the 64-element base blocks and leave odd numbers of runs;
    # small value ranges force ties, and the values include negatives
    rng = np.random.default_rng(0)
    for n in range(301):
        span = int(rng.integers(1, 2 * n + 3))
        a = rng.integers(-span, span, size=n)
        assert perms.count_inversions(a) == _brute_inversions(a), n


def test_count_inversions_extremes():
    for n in (0, 1, 64, 65, 200):
        assert perms.count_inversions(np.arange(n)) == 0
        assert perms.count_inversions(np.arange(n)[::-1]) == n * (n - 1) // 2
        assert perms.count_inversions(np.full(n, -3)) == 0
