"""Polymer rings under resonant pulses: tracks, rotations, realized shifts.

A pulse addressed at a type pair transposes every adjacent pair of those
types at once.  Composing pulse layers induces an exact permutation of ring
positions; its orbits are the "tracks" contents circulate on.  This prints
the track structure of the single-tape rotation triple, the two-tape
rotation, and the head-patched sequence that realizes a true logical shift.
"""

from spinref import perms, polymer


def main():
    spec = polymer.single_tape_spec(3)
    triple = polymer.PulseSequence([("A", "B"), ("C", "A"), ("B", "C")])
    perm = polymer.induced_permutation(spec, triple)
    print("ABC x3 ring, pulses (A,B)(C,A)(B,C):")
    print(f"  induced permutation: {perm.tolist()}")
    print(f"  tracks (orbits): {polymer.track_decomposition(perm)}")
    print("  the A/C sites form one track, the B sites another --")
    print("  the bare triple advances both, it is not a uniform rotation\n")

    rs = polymer.realize_abstract_shift(spec)
    print("realized logical shift (triple + head swap conjugated by (A,B)):")
    print("  " + " | ".join(polymer.sequence_to_text(rs.sequence).split("\n")[:-1]))
    print(f"  logical cell order: {rs.logical_order.tolist()}")
    # n shifts are the identity iff every orbit's length divides n
    n = spec.ring_length
    closes = all(n % len(c) == 0 for c in perms.cycles(rs.permutation))
    print(f"  {n} applications == identity: {closes}\n")

    two = polymer.two_tape_spec(4)
    perm2 = polymer.induced_permutation(two, polymer.two_tape_rotate_seq())
    print("ABCD x4 ring, pulses (A,B)(B,C)(A,B)(C,D)(A,D)(C,D):")
    print(f"  induced permutation: {perm2.tolist()}")
    moved = [i for i in range(two.ring_length) if perm2[i] != i]
    print(f"  moved positions: {moved} (all A/C; every B and D is fixed)")
    print("  -> one tape rotates while the other stands still\n")

    print("a transposition pulse expands into three directed CNOT pulses:")
    print(f"  (A,B) -> {polymer.transposition_as_cnots(('A', 'B'))}")


if __name__ == "__main__":
    main()
