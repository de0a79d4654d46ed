"""Small permutation helpers shared by the architecture and sampling modules.

Convention: a permutation is an integer array ``p`` read as a destination
map -- the content of position i moves to position p[i], i.e. applying p to
an array a yields out[p[i]] = a[i].
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_permutation",
    "identity",
    "compose",
    "apply_to",
    "cycles",
    "count_inversions",
]


def is_permutation(p):
    p = np.asarray(p)
    return p.ndim == 1 and np.array_equal(np.sort(p), np.arange(len(p)))


def identity(n):
    return np.arange(n)


def compose(p, q):
    """Destination map of 'first p, then q': i -> q[p[i]]."""
    p = np.asarray(p)
    q = np.asarray(q)
    return q[p]


def apply_to(a, p):
    """Rearrange array ``a`` so the element at i lands at p[i]."""
    a = np.asarray(a)
    out = np.empty_like(a)
    out[np.asarray(p)] = a
    return out


def cycles(p):
    """Disjoint-cycle decomposition of a destination map, fixed points included."""
    p = np.asarray(p)
    seen = np.zeros(len(p), dtype=bool)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = int(p[start])
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = int(p[j])
        out.append(cyc)
    return out


def count_inversions(a):
    """Number of pairs i<j with a[i] > a[j] (merge-count, O(n log n))."""
    a = np.asarray(a, dtype=np.int64)
    n = len(a)
    if n < 2:
        return 0
    base = 64
    total = 0
    runs = []
    for i in range(0, n, base):
        blk = a[i : i + base]
        total += int(np.count_nonzero(np.triu(blk[:, None] > blk[None, :], 1)))
        runs.append(np.sort(blk))
    while len(runs) > 1:
        merged = []
        for i in range(0, len(runs) - 1, 2):
            left, right = runs[i], runs[i + 1]
            # for each right element, count of strictly larger left elements
            pos = np.searchsorted(left, right, side="right")
            total += int((len(left) - pos).sum())
            merged.append(np.sort(np.concatenate([left, right]), kind="stable"))
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return total
