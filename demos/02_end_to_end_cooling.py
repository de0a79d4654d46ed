"""End-to-end cooling: thermal bits in, a clean all-zero prefix out.

Runs the full three-phase pipeline (pairing, parity binning, mod-4
counting) at n = 10^6 with bias 0.25 and prints the round trace, the yield
ledger, and the census of stray ones (there should be none).
"""

from spinref import cooling, reports, thermal


def main():
    n, eps = 10**6, 0.25
    model = thermal.BiasModel("binomial", eps)
    res = cooling.pipeline(model, n, seed=7)

    print(reports.records_to_csv(res.records))
    led = res.ledger
    print(f"clean bits: {res.clean_bits}")
    print(f"stray ones in the clean prefix: {int(res.bits.sum())}")
    print(f"floor eps^2 n / 20 = {eps**2*n/20:.0f}")
    print(f"expected floor n/total_factor = {led.expected_floor:.0f}")
    print(f"entropy cap = {led.entropy_cap:.0f}")
    print(f"input bits per clean bit: {n/res.clean_bits:.1f} "
          f"(ledger bound {led.total_factor:.1f})")

    print("\nsame run under the correlated source with a stride shuffle:")
    markov = thermal.BiasModel("markov", eps, ell=10)
    res2 = cooling.pipeline(markov, n, seed=7, mode="shuffled-blocks")
    print(f"  blockwise mode clean bits: {res2.clean_bits}, "
          f"stray ones: {int(res2.bits.sum())} "
          f"(floor {res2.ledger.expected_floor:.0f}; windows of n^(1/3) bits, "
          "re-cut from the survivors before every round)")


if __name__ == "__main__":
    main()
