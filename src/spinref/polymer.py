"""Pulse-driven polymer architectures: rings of typed spin sites.

A polymer is a ring built from repetitions of a short atom-type pattern
(e.g. ABC or ABCD).  A resonant pulse addressed at a type pair (X, Y)
transposes the contents of *every* adjacent site pair of those two types
simultaneously; head pulses act only on the distinguished pair of sites next
to the D atom.  This module computes the exact position permutation induced
by any pulse sequence, decomposes it into tracks (orbits), and builds the
rotation sequences used by the tape abstractions:

* the single-tape triple (A,B), (C,A), (B,C), which advances two disjoint
  tracks (the A/C sites and the B sites) rather than rotating the ring
  uniformly, and
* the two-tape sequence (A,B)(B,C)(A,B)(C,D)(A,D)(C,D) on ABCD rings, which
  advances the A and C contents by one period while fixing every B and D.

``realize_abstract_shift`` turns the single-tape triple into a true
single-cell cyclic shift of a declared logical cell ordering by adding a
head-local boundary fix-up (a head swap conjugated by (A,B) pulses).
One runner, ``_run``, applies a sequence to ring bits and to site labels
alike; ``induced_permutation`` inverts what it leaves of the labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import perms
from .machine import GATES, ReversibleGate, _bit_cells, _integer

__all__ = [
    "PolymerSpec",
    "TypePulse",
    "HeadPulse",
    "PulseSequence",
    "single_tape_spec",
    "two_tape_spec",
    "induced_permutation",
    "track_decomposition",
    "two_tape_rotate_seq",
    "transposition_as_cnots",
    "cnot_layer",
    "apply_sequence_to_bits",
    "realize_abstract_shift",
    "RealizedShift",
    "sequence_to_text",
]


@dataclass(frozen=True)
class PolymerSpec:
    """Ring description: atom-type pattern, period count, special sites.

    ``d_site`` is the ring position of the C atom of the C-A boundary that
    the D atom adjoins (single-tape variant).
    """

    pattern: tuple
    periods: int
    d_site: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "periods", _integer("periods", self.periods))
        if self.periods < 1:
            raise ValueError("periods must be >= 1")
        if len(self.pattern) < 2:
            raise ValueError("pattern needs at least two atom types")
        n = self.ring_length
        if self.d_site is not None:
            d = self.d_site % n
            if not (self.type_at(d) == "C" and self.type_at(d + 1) == "A"):
                raise ValueError("d_site must sit at a C-A boundary")

    @property
    def ring_length(self):
        return len(self.pattern) * self.periods

    def type_at(self, i):
        return self.pattern[i % self.ring_length % len(self.pattern)]

    def positions_of(self, t):
        base = [i for i, x in enumerate(self.pattern) if x == t]
        return [p * len(self.pattern) + b for p in range(self.periods) for b in base]


def single_tape_spec(periods):
    """ABC ring with the head (D atom) at the last C-A boundary."""
    return PolymerSpec(("A", "B", "C"), periods, d_site=3 * periods - 1)


def two_tape_spec(periods):
    return PolymerSpec(("A", "B", "C", "D"), periods)


@dataclass(frozen=True)
class TypePulse:
    """Transpose every adjacent site pair whose types are {a, b}."""

    a: str
    b: str


@dataclass(frozen=True)
class HeadPulse:
    """Arbitrary width-2 gate on the D-adjacent pair (d_site, d_site+1)."""

    gate: ReversibleGate

    def __post_init__(self):
        if self.gate.width != 2:
            raise ValueError(
                f"head pulses take a width-2 gate; {self.gate.name} has width {self.gate.width}"
            )


class PulseSequence(list):
    """Ordered pulses; plain list with a constructor that normalizes tuples."""

    def __init__(self, pulses=()):
        super().__init__(
            TypePulse(*p) if isinstance(p, tuple) else p for p in pulses
        )


def _pulse_pairs(spec, pulse):
    """Index arrays (i, i + 1 mod n), in order of i, of the disjoint pairs a
    type pulse addresses on this ring.  The ring repeats its pattern, so one
    period's pairs, found from the pattern, are tiled over the periods."""
    want = {pulse.a, pulse.b}
    if len(want) != 2:
        raise ValueError("a pulse needs two distinct types")
    pattern, n = spec.pattern, spec.ring_length
    size = len(pattern)
    # site r + 1 of the last offset is the first site of the next period
    offsets = [r for r in range(size) if {pattern[r], pattern[(r + 1) % size]} == want]
    if not offsets:
        raise ValueError(f"types {pulse.a}{pulse.b} are never adjacent in this ring")
    # two pairs share a site exactly when they start at neighbouring sites
    if any((r + 1) % size in offsets for r in offsets):
        raise ValueError(
            f"pulse ({pulse.a},{pulse.b}) addresses overlapping pairs on this ring"
        )
    first = (np.arange(0, n, size)[:, None] + offsets).ravel()
    return first, (first + 1) % n


def _head_pair(spec):
    """The pair (d_site, d_site + 1 mod n) a head pulse acts on."""
    if spec.d_site is None:
        raise ValueError("head pulses need a spec with a d_site")
    n = spec.ring_length
    d = spec.d_site % n
    return d, (d + 1) % n


def _run(spec, seq, cells, head):
    """Apply the pulses of ``seq`` in order to ``cells``, one entry per ring
    site, in place: a type pulse swaps the entries of every pair it
    addresses, and a head pulse sets the head pair's entries (x, y) to
    ``head(gate, x, y)``."""
    for pulse in seq:
        if isinstance(pulse, TypePulse):
            first, second = _pulse_pairs(spec, pulse)
            cells[first], cells[second] = cells[second], cells[first]
        elif isinstance(pulse, HeadPulse):
            d, e = _head_pair(spec)
            cells[d], cells[e] = head(pulse.gate, cells[d], cells[e])
        else:
            raise TypeError(f"unknown pulse {pulse!r}")
    return cells


def _move_sites(gate, x, y):
    """A head pulse on site labels: only the gates that move whole sites."""
    if gate == GATES["SWAP2"]:
        return y, x
    if gate == GATES["ID2"]:
        return x, y
    raise ValueError(
        "only SWAP2/ID2 head pulses induce a position permutation; "
        "use apply_sequence_to_bits for general head gates"
    )


def _ring_bits(spec, bits):
    """A copy of ``bits`` as a uint8 array, checked as a tape's cells are
    (``machine._bit_cells``), with one bit per ring site."""
    cells = _bit_cells(np.array(bits))
    if len(cells) != spec.ring_length:
        raise ValueError("bit vector length must equal the ring length")
    return cells


def induced_permutation(spec, seq):
    """Exact composite destination map of a pulse sequence.

    Content at ring position i ends at position perm[i] after applying the
    pulses in order.  The pulses run on the sites' own labels, which leaves
    at each position the label of the site whose content ends there: the
    inverse map, inverted by one argsort.
    """
    return np.argsort(_run(spec, seq, np.arange(spec.ring_length), _move_sites))


def track_decomposition(perm):
    """Disjoint cycles of the induced permutation; each cycle is one track."""
    if not perms.is_permutation(perm):
        raise ValueError("not a permutation")
    return perms.cycles(perm)


def two_tape_rotate_seq():
    """The six-pulse sequence that advances the A/C tape and fixes B/D."""
    return PulseSequence(
        [("A", "B"), ("B", "C"), ("A", "B"), ("C", "D"), ("A", "D"), ("C", "D")]
    )


def transposition_as_cnots(pair):
    """Expand a transposition pulse into three directed CNOT pulses."""
    a, b = pair
    return [(a, b), (b, a), (a, b)]


def cnot_layer(spec, src, dst, bits):
    """Bit-level CNOT pulse: dst-site ^= src-site on every {src,dst} adjacency."""
    out = _ring_bits(spec, bits)
    first, second = _pulse_pairs(spec, TypePulse(src, dst))
    # the pairs are disjoint, so no source is another pair's target
    from_first = np.array(spec.pattern)[first % len(spec.pattern)] == src
    s, d = np.where(from_first, (first, second), (second, first))
    out[d] ^= out[s]
    return out


def apply_sequence_to_bits(spec, seq, bits):
    """Run a pulse sequence on explicit ring contents (head gates allowed)."""
    # a head gate sets its pair (x, y) to its output bits, gate(x, y)
    return _run(spec, seq, _ring_bits(spec, bits), ReversibleGate.__call__)


@dataclass
class RealizedShift:
    """A pulse sequence plus the logical cell ordering it cyclically shifts."""

    sequence: PulseSequence
    logical_order: np.ndarray
    permutation: np.ndarray = field(repr=False)

    @property
    def pulse_cost(self):
        return len(self.sequence)


def realize_abstract_shift(spec):
    """Build a true single-cell logical shift for a single-tape ABC ring.

    The bare rotation triple (A,B),(C,A),(B,C) advances two disjoint tracks:
    the A/C sites (one orbit of length 2*periods) and the B sites (length
    periods).  A single head swap at the D site, conjugated by (A,B) pulses,
    contributes the cross-track transposition that splices the two orbits
    into one ring of length 3*periods.  The returned ``logical_order`` lists
    ring positions L_0..L_{n-1} such that one application of ``sequence``
    moves the content of L_j to L_{j+1 mod n}.
    """
    if tuple(spec.pattern) != ("A", "B", "C") or spec.d_site is None:
        raise ValueError("realized shifts are built for single-tape ABC rings")
    n = spec.ring_length
    d = spec.d_site % n

    triple = PulseSequence([("A", "B"), ("C", "A"), ("B", "C")])
    sigma = induced_permutation(spec, triple)

    # the tracks are sigma's orbits of the head C site (all A and C sites)
    # and of the B site two past it (all B sites), each read from its start
    tracks, logical = perms.cycles(sigma), []
    for start in (d, (d + 2) % n):
        track = next(c for c in tracks if start in c)
        at = track.index(start)
        logical += track[at:] + track[:at]
    logical = np.array(logical)

    fixup = PulseSequence([("A", "B"), HeadPulse(GATES["SWAP2"]), ("A", "B")])
    sequence = PulseSequence(list(triple) + list(fixup))
    perm = induced_permutation(spec, sequence)

    # sanity: the composite must advance the declared ordering by one
    expect = np.roll(logical, -1)
    if not np.array_equal(perm[logical], expect):
        raise AssertionError("realized shift does not advance the logical order")
    return RealizedShift(sequence, logical, perm)


def sequence_to_text(seq):
    """Serialize pulses one per line: P(A,B) or HEAD <gate-id>."""
    lines = []
    for pulse in seq:
        if isinstance(pulse, TypePulse):
            lines.append(f"P({pulse.a},{pulse.b})")
        elif isinstance(pulse, HeadPulse):
            lines.append(f"HEAD {pulse.gate.name}")
        else:
            raise TypeError(f"unknown pulse {pulse!r}")
    return "\n".join(lines) + ("\n" if lines else "")
