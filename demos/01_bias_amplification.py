"""Bias amplification by pairing: the recurrence and its constants.

Each pairing round keeps the second bit of every equal pair, boosting the
bias eps -> 2*eps/(1+eps^2) while keeping (1+eps^2)/4 of the bits.  This
walks the orbit from a weak thermal bias up to the 0.856 switchover and
prints the loss-factor constants the yield ledger is built from.
"""

import numpy as np

from spinref import analysis, cooling, thermal


def main():
    eps0 = 0.009985
    print(f"forward orbit from eps = {eps0}:")
    orbit = analysis.forward_orbit(eps0)
    for i, e in enumerate(orbit):
        print(f"  round {i:2d}: eps = {e:.6f}   (delta = {(1-e)/2:.6f})")
    print(f"rounds to reach 0.856: {len(orbit)-1}")

    back = analysis.backward_orbit(0.856, 7)
    print(f"\nbackward orbit from 0.856: {[f'{x:.6f}' for x in back]}")
    print(f"7th backward iterate = {back[7]:.7f} (the 0.009985 constant)")

    prod = analysis.phase1_overhead(eps0, 0.856)
    print(f"\noverhead product (exclusive) = {prod:.6f}")
    print(f"squared, including the 0.856 term = {(prod*(1+0.856**2))**2:.4f}  (< 6.7)")
    print(f"low-bias region squared overhead  = {analysis.phase1_overhead(1e-8, 0.02)**2:.6f}  (< 1.0017)")
    print(f"yield-ledger constant = {analysis.ledger_constant():.4f}  (<= 20)")

    # watch one Monte Carlo run track the recurrence
    n, eps = 10**6, 0.2
    bits = thermal.sample(thermal.BiasModel("binomial", eps), n, seed=1)
    out, recs = cooling.run_rounds(bits, cooling.plan_rounds(analysis.forward_orbit(eps)))
    print(f"\nempirical run at n={n}, eps={eps}:")
    for r in recs:
        print(
            f"  round {r.round}: {r.n_in:>7d} -> {r.n_out:>7d} bits, "
            f"bias {r.bias_emp:.4f} (predicted {r.bias_pred:.4f})"
        )


if __name__ == "__main__":
    main()
