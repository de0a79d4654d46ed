"""Runtime scaling across tape architectures.

The same pipeline is costed under three machine models: a single cyclic
tape (quadratic, dominated by the initial permutation and the terminal
gather), a two-tape ring (n^(4/3): the spreading permutation rides the
second tape, the gather is linear), and a two-tape ring with parallel
block pulses (linear: blocks progress simultaneously).
"""

from spinref import analysis, cooling, thermal


def main():
    sizes = [3**6, 3**7, 3**8, 3**9]
    model = thermal.BiasModel("binomial", 0.25)
    totals = {"single": [], "two_tape": [], "two_tape_ca": []}
    print(f"{'n':>7} {'single':>14} {'two_tape':>12} {'two_tape_ca':>12}")
    for n in sizes:
        res = cooling.pipeline(model, n, seed=11, mode="shuffled-blocks")
        for a in totals:
            totals[a].append(res.steps[a])
        print(
            f"{n:>7} {res.steps['single']:>14} {res.steps['two_tape']:>12} "
            f"{res.steps['two_tape_ca']:>12}"
        )
    print("\nfitted log-log slopes (expected 2, 4/3, 1):")
    for a in totals:
        slope = analysis.runtime_exponent(a, sizes, totals[a])
        print(f"  {a:12s} {slope:.3f}  (expected {analysis.EXPECTED_SLOPES[a]:.2f})")


if __name__ == "__main__":
    main()
