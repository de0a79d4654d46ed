import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinref import perms, polymer
from spinref.machine import GATES
from spinref.polymer import (
    HeadPulse,
    PolymerSpec,
    PulseSequence,
    TypePulse,
    apply_sequence_to_bits,
    cnot_layer,
    induced_permutation,
    realize_abstract_shift,
    sequence_to_text,
    single_tape_spec,
    track_decomposition,
    transposition_as_cnots,
    two_tape_rotate_seq,
    two_tape_spec,
)


def test_empty_sequence_identity():
    spec = single_tape_spec(3)
    assert np.array_equal(
        induced_permutation(spec, PulseSequence()), perms.identity(9)
    )


def test_pulse_twice_is_identity():
    spec = single_tape_spec(3)
    seq = PulseSequence([("A", "B"), ("A", "B")])
    assert np.array_equal(induced_permutation(spec, seq), perms.identity(9))


def test_sequence_then_reverse_is_identity():
    spec = two_tape_spec(4)
    seq = two_tape_rotate_seq()
    both = PulseSequence(list(seq) + [(p.a, p.b) for p in reversed(seq)])
    assert np.array_equal(
        induced_permutation(spec, both), perms.identity(spec.ring_length)
    )


def test_disjoint_layers_commute():
    spec = two_tape_spec(3)
    ab_cd = induced_permutation(spec, PulseSequence([("A", "B"), ("C", "D")]))
    cd_ab = induced_permutation(spec, PulseSequence([("C", "D"), ("A", "B")]))
    assert np.array_equal(ab_cd, cd_ab)


def test_single_tape_triple_track_map_two_periods():
    # content map on the ABCx2 ring: a_i -> C_i, b_i -> B_{i+1}, c_i -> A_{i+1}
    spec = single_tape_spec(2)
    perm = induced_permutation(
        spec, PulseSequence([("A", "B"), ("C", "A"), ("B", "C")])
    )
    A, B, C = (spec.positions_of(t) for t in "ABC")
    for i in range(2):
        assert perm[A[i]] == C[i]
        assert perm[B[i]] == B[(i + 1) % 2]
        assert perm[C[i]] == A[(i + 1) % 2]


def test_single_tape_triple_track_map_general():
    # at two periods +1 and -1 coincide; the general law circulates the B
    # track opposite to the A/C track: a_i -> C_i, b_i -> B_{i-1}, c_i -> A_{i+1}
    for p in (2, 3, 5, 8):
        spec = single_tape_spec(p)
        perm = induced_permutation(
            spec, PulseSequence([("A", "B"), ("C", "A"), ("B", "C")])
        )
        A, B, C = (spec.positions_of(t) for t in "ABC")
        for i in range(p):
            assert perm[A[i]] == C[i]
            assert perm[B[i]] == B[(i - 1) % p]
            assert perm[C[i]] == A[(i + 1) % p]


def test_track_decomposition_basics():
    assert track_decomposition(perms.identity(5)) == [[0], [1], [2], [3], [4]]
    rot = np.roll(perms.identity(6), -1)  # one 6-cycle
    assert len(track_decomposition(rot)) == 1
    with pytest.raises(ValueError):
        track_decomposition([0, 0, 1])


def test_two_tape_sequence_shape_and_tracks():
    seq = two_tape_rotate_seq()
    assert len(seq) == 6
    assert [(p.a, p.b) for p in seq] == [
        ("A", "B"), ("B", "C"), ("A", "B"), ("C", "D"), ("A", "D"), ("C", "D"),
    ]
    for p in (2, 7, 25, 100):
        spec = two_tape_spec(p)
        perm = induced_permutation(spec, seq)
        A, C = spec.positions_of("A"), spec.positions_of("C")
        for i in spec.positions_of("B") + spec.positions_of("D"):
            assert perm[i] == i
        for i in range(p):
            assert perm[A[i]] == A[(i + 1) % p]
            assert perm[C[i]] == C[(i - 1) % p]


def test_two_tape_orbit_length():
    spec = two_tape_spec(5)
    perm = induced_permutation(spec, two_tape_rotate_seq())
    acc = perms.identity(spec.ring_length)
    for _ in range(spec.periods):
        acc = perms.compose(acc, perm)
    assert np.array_equal(acc, perms.identity(spec.ring_length))


def test_transposition_as_cnots():
    assert transposition_as_cnots(("A", "B")) == [("A", "B"), ("B", "A"), ("A", "B")]
    # bit-level: the three CNOT layers equal the transposition layer
    spec = two_tape_spec(3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        bits = rng.integers(0, 2, spec.ring_length).astype(np.uint8)
        via = bits.copy()
        for s, d in transposition_as_cnots(("A", "B")):
            via = cnot_layer(spec, s, d, via)
        want = apply_sequence_to_bits(spec, PulseSequence([("A", "B")]), bits)
        assert np.array_equal(via, want)


def test_cnot_trio_swaps_pairs():
    # (0,1) -> (1,0) and (1,1) -> (1,1) through the xor trio
    for a, b in [(0, 1), (1, 1), (1, 0), (0, 0)]:
        x, y = a, b
        y ^= x
        x ^= y
        y ^= x
        assert (x, y) == (b, a)


def test_realized_shift_is_logical_rotation():
    for p in (2, 3, 4, 7):
        spec = single_tape_spec(p)
        rs = realize_abstract_shift(spec)
        n = spec.ring_length
        # per application: every logical cell advances by one
        assert np.array_equal(rs.permutation[rs.logical_order],
                              np.roll(rs.logical_order, -1))
        acc = perms.identity(n)
        for _ in range(n):
            acc = perms.compose(acc, rs.permutation)
        assert np.array_equal(acc, perms.identity(n))


def test_realized_shift_head_pulses_local():
    spec = single_tape_spec(5)
    rs = realize_abstract_shift(spec)
    d = spec.d_site
    for pulse in rs.sequence:
        if isinstance(pulse, HeadPulse):
            # head pulses only ever touch (d_site, d_site+1)
            fixed = induced_permutation(spec, PulseSequence([pulse]))
            moved = np.flatnonzero(fixed != perms.identity(spec.ring_length))
            assert set(moved.tolist()) <= {d, (d + 1) % spec.ring_length}


def test_spec_validation():
    with pytest.raises(ValueError):
        PolymerSpec(("A", "B", "C"), 3, d_site=0)  # not a C-A boundary
    with pytest.raises(ValueError):
        PolymerSpec(("A",), 3)


def test_pulse_validation():
    spec = single_tape_spec(3)
    with pytest.raises(ValueError):
        induced_permutation(spec, PulseSequence([("A", "D")]))
    # AB pattern: every position is in two {A,B} adjacencies -> overlap
    bad = PolymerSpec(("A", "B"), 3)
    with pytest.raises(ValueError):
        induced_permutation(bad, PulseSequence([("A", "B")]))


def _pairs_site_by_site(spec, pulse):
    """The addressed pairs found by testing every site of the ring."""
    n = spec.ring_length
    want = {pulse.a, pulse.b}
    if len(want) != 2:
        raise ValueError("a pulse needs two distinct types")
    pairs = [(i, (i + 1) % n) for i in range(n) if {spec.type_at(i), spec.type_at(i + 1)} == want]
    if not pairs:
        raise ValueError(f"types {pulse.a}{pulse.b} are never adjacent in this ring")
    touched = [p for pair in pairs for p in pair]
    if len(set(touched)) != len(touched):
        raise ValueError(f"pulse ({pulse.a},{pulse.b}) addresses overlapping pairs on this ring")
    return pairs


def _zipped_pulse_pairs(spec, pulse):
    first, second = polymer._pulse_pairs(spec, pulse)
    return list(zip(first.tolist(), second.tolist()))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "make",
    [
        single_tape_spec,
        two_tape_spec,
        lambda p: PolymerSpec(("A", "B", "C"), p),  # no head site
        # rings where some pulses address overlapping pairs
        lambda p: PolymerSpec(("A", "B"), p),
        lambda p: PolymerSpec(("A", "B", "A", "C"), p),
    ],
)
def test_tiled_pulse_pairs_match_the_site_by_site_search(make):
    for periods in (1, 2, 3, 4, 5, 100):
        spec = make(periods)
        for a in "ABCDE":
            for b in "ABCDE":
                pulse = TypePulse(a, b)
                want = _outcome(_pairs_site_by_site, spec, pulse)
                assert _outcome(_zipped_pulse_pairs, spec, pulse) == want, (spec, a, b)


@pytest.mark.parametrize(
    # "ca": the cellular-automaton variant's ABC ring, which has no head site
    "spec",
    [single_tape_spec(4), two_tape_spec(3), PolymerSpec(("A", "B", "C"), 4)],
    ids=["single", "two", "ca"],
)
def test_pulse_layers_equal_the_pair_by_pair_loops(spec):
    n = spec.ring_length
    bits = np.random.default_rng(n).integers(0, 2, n).astype(np.uint8)
    checked = 0
    for a in "ABCD":
        for b in "ABCD":
            pulse = TypePulse(a, b)
            pairs = _outcome(_pairs_site_by_site, spec, pulse)
            if isinstance(pairs, str):
                continue
            perm, swapped, xored = np.arange(n), bits.copy(), bits.copy()
            for i, j in pairs:
                perm[i], perm[j] = j, i
                swapped[i], swapped[j] = swapped[j], swapped[i]
                s, d = (i, j) if spec.type_at(i) == a else (j, i)
                xored[d] ^= xored[s]
            layer = PulseSequence([pulse])
            assert np.array_equal(induced_permutation(spec, layer), perm)
            assert np.array_equal(apply_sequence_to_bits(spec, layer, bits), swapped)
            assert np.array_equal(cnot_layer(spec, a, b, bits), xored)
            checked += 1
    assert checked >= 6


def test_head_pulse_permutation_and_bits():
    spec = single_tape_spec(2)
    ident = induced_permutation(spec, PulseSequence([HeadPulse(GATES["ID2"])]))
    assert np.array_equal(ident, perms.identity(6))
    with pytest.raises(ValueError):
        induced_permutation(spec, PulseSequence([HeadPulse(GATES["EQMARK"])]))
    # general head gates run at the bit level
    bits = np.array([0, 0, 0, 0, 0, 1], dtype=np.uint8)  # d_site = 5, pair (5, 0)
    out = apply_sequence_to_bits(spec, PulseSequence([HeadPulse(GATES["EQMARK"])]), bits)
    assert list(out) == [0, 0, 0, 0, 0, 1]  # c1 ^= c2 with c2 = cell 0
    bits2 = np.array([1, 0, 0, 0, 0, 1], dtype=np.uint8)
    out2 = apply_sequence_to_bits(spec, PulseSequence([HeadPulse(GATES["EQMARK"])]), bits2)
    assert list(out2) == [1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("name", ["PAR3", "XDEP3", "INC4", "DEP34"])
def test_head_pulse_refuses_a_gate_that_is_not_width_two(name):
    # the head pair holds two bits, so a wider table would be read with a
    # two-bit index
    with pytest.raises(ValueError, match=name):
        HeadPulse(GATES[name])


@pytest.mark.parametrize(
    "bits, message",
    [
        ([0, 1] * 5, "ring length"),
        ([0, 1, 1], "ring length"),
        ([0, 0, 2, 0, 0, 0, 0, 0], "bits"),
        (np.array([0, 0, 2, 0, 0, 0, 0, 0], dtype=np.uint8), "bits"),
        ([0.5, 0, 0, 0, 0, 0, 0, 0], "bits"),
    ],
)
def test_bit_level_pulses_take_one_bit_per_ring_site(bits, message):
    spec = two_tape_spec(2)  # 8 sites
    with pytest.raises(ValueError, match=message):
        cnot_layer(spec, "A", "B", bits)
    with pytest.raises(ValueError, match=message):
        apply_sequence_to_bits(spec, PulseSequence([("A", "B")]), bits)


def test_periods_must_be_an_integer():
    # a spec of 2.5 ABC periods had ring length 7.5, and True made a
    # 4-site ABCD ring
    for make in (lambda: PolymerSpec(("A", "B", "C"), 2.5), lambda: two_tape_spec(True),
                 lambda: single_tape_spec(2.0)):
        with pytest.raises(TypeError, match="^periods must be an integer"):
            make()
    spec = two_tape_spec(np.int64(2))
    assert spec == two_tape_spec(2) and type(spec.ring_length) is int and spec.ring_length == 8


def _position_pulses(spec):
    """Every pulse with a position permutation on ``spec``: the type pulses
    it allows, and the SWAP2 and ID2 head pulses if it has a head site."""
    heads = [HeadPulse(GATES["SWAP2"]), HeadPulse(GATES["ID2"])] if spec.d_site is not None else []
    types = [TypePulse(a, b) for a in spec.pattern for b in spec.pattern]
    allowed = [p for p in types if not isinstance(_outcome(polymer._pulse_pairs, spec, p), str)]
    return heads + allowed


@st.composite
def _pulse_runs(draw):
    spec = draw(st.sampled_from([single_tape_spec, two_tape_spec]))(draw(st.integers(1, 6)))
    seq = PulseSequence(draw(st.lists(st.sampled_from(_position_pulses(spec)), max_size=12)))
    n = spec.ring_length
    return spec, seq, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(_pulse_runs())
def test_bits_move_where_the_induced_permutation_sends_them(run):
    spec, seq, bits = run
    perm = induced_permutation(spec, seq)
    assert perms.is_permutation(perm)
    assert apply_sequence_to_bits(spec, seq, bits)[perm].tolist() == bits


def test_head_pulse_needs_a_d_site():
    # a ring with no head site refuses head pulses at the position and the
    # bit level alike
    spec = two_tape_spec(3)
    seq = PulseSequence([HeadPulse(GATES["SWAP2"])])
    with pytest.raises(ValueError, match="d_site"):
        induced_permutation(spec, seq)
    with pytest.raises(ValueError, match="d_site"):
        apply_sequence_to_bits(spec, seq, np.zeros(spec.ring_length, dtype=np.uint8))


def test_sequence_text_roundtrip():
    seq = PulseSequence([("A", "B"), HeadPulse(GATES["SWAP2"]), ("C", "A")])
    text = sequence_to_text(seq)
    assert text.splitlines() == ["P(A,B)", "HEAD SWAP2", "P(C,A)"]
    assert text.endswith("\n") and sequence_to_text(PulseSequence()) == ""
