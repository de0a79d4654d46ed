"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Statistical criteria use exactly calibrated per-round z-scores (the pairing
phase has exact conditional binomial laws under the binomial source), with
two layers: pooled z over the seed ensemble must sit within 3 sigma, and the
per-seed 3-sigma violation rate must stay within 1% (the expected rate of
true 3-sigma events is 0.27%, so a systematic recurrence error fails both
layers immediately).  All seeds are fixed, so the suite is deterministic.
"""

import math

import numpy as np
import pytest

from spinref import analysis, cli, compiler, cooling, perms, polymer, thermal

N_BIG = 10**6
SEEDS = 100


def report(num, ok, detail=""):
    print(f"\nacceptance criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: pairing-phase recurrence conformance


@pytest.fixture(scope="module")
def phase1_ensemble():
    out = {}
    for idx, eps in enumerate((0.05, 0.2, 0.5)):
        orbit = analysis.forward_orbit(eps)
        rows = []
        for t in range(SEEDS):
            seed = 10_000 * (idx + 1) + t
            bits = thermal.sample(thermal.BiasModel("binomial", eps), N_BIG, seed)
            _, recs = cooling.run_rounds(bits, cooling.plan_rounds(orbit))
            rows.append(recs)
        out[eps] = (orbit, rows)
    return out


def test_criterion_01_phase1_conformance(phase1_ensemble):
    z_all = []
    pooled_bad = []
    for eps, (orbit, rows) in phase1_ensemble.items():
        rounds = len(rows[0])
        assert all(len(r) == rounds for r in rows)
        for r in range(rounds):
            p = (1.0 + orbit[r] ** 2) / 2.0
            delta_out = (1.0 - orbit[r + 1]) / 2.0
            zc, zb, nouts = [], [], []
            for recs in rows:
                rec = recs[r]
                m = rec.n_in // 2
                zc.append((rec.n_out - m * p) / math.sqrt(m * p * (1 - p)))
                sd = math.sqrt(rec.n_out * delta_out * (1 - delta_out))
                zb.append((rec.ones_out - rec.n_out * delta_out) / sd)
                nouts.append(rec.n_out)
            z_all.extend(zc)
            z_all.extend(zb)
            for name, zz in (("count", zc), ("bias", zb)):
                pooled = sum(zz) / math.sqrt(len(zz))
                if abs(pooled) > 3.0:
                    pooled_bad.append((eps, r, name, pooled))
            # survivor counts against the cumulative product n * prod (1+e^2)/4
            pred = N_BIG
            for j in range(r + 1):
                pred *= (1.0 + orbit[j] ** 2) / 4.0
            mean = float(np.mean(nouts))
            sem = float(np.std(nouts, ddof=1)) / math.sqrt(len(nouts))
            if abs(mean - pred) > 3.0 * sem:
                pooled_bad.append((eps, r, "cumulative", (mean - pred) / sem))
    rate = float(np.mean(np.abs(np.array(z_all)) > 3.0))
    ok = not pooled_bad and rate <= 0.01
    assert report(
        1, ok, f"(pooled violations: {pooled_bad}, per-seed 3-sigma rate {rate:.4f})"
    )


# ---------------------------------------------------------------------------
# criterion 2: reproduced constants


def test_criterion_02_paper_constants():
    b7 = analysis.backward_orbit(0.856, 7)[7]
    ok = abs(b7 - 0.009985) < 1e-6
    prod = analysis.phase1_overhead(0.009985, 0.856)
    inclusive_sq = (prod * (1 + 0.856**2)) ** 2
    ok &= 6.6 < inclusive_sq < 6.7
    low_sq = analysis.phase1_overhead(1e-8, 0.02) ** 2
    ok &= low_sq < 1.0017
    const = analysis.ledger_constant()
    ok &= const <= 20.0 and abs(const - 19.5) < 0.05
    ok &= (1 - 0.856) / 2 == pytest.approx(0.072, abs=1e-12)
    assert report(
        2,
        ok,
        f"(iterate7={b7:.7f}, overhead_sq={inclusive_sq:.4f}, "
        f"low={low_sq:.6f}, const={const:.4f})",
    )


# ---------------------------------------------------------------------------
# criterion 3: bin-size schedule


def test_criterion_03_choose_k_schedule():
    ok = cooling.choose_k(0.072) == 3
    ok &= cooling.choose_k(0.0188) == 7
    ok &= cooling.choose_k(0.0027) == 21
    ok &= cooling.choose_k(0.000158) == 34
    ok &= cooling.choose_k(1e-5) == 100
    ks = [cooling.choose_k(d) for d in np.geomspace(1e-15, 0.000158, 500)]
    ok &= min(ks) >= 33
    assert report(3, ok, f"(boundary ks: 3/7/21/34, power-region min {min(ks)})")


# ---------------------------------------------------------------------------
# criterion 4: end-to-end pipeline


def test_criterion_04_end_to_end():
    model = thermal.BiasModel("binomial", 0.25)
    floor = 0.25**2 * N_BIG / 20  # 3125
    worst = None
    ones_total = 0
    ok = True
    for t in range(SEEDS):
        res = cooling.pipeline(model, N_BIG, seed=40_000 + t)
        ones_total += int(res.bits.sum())
        ok &= res.clean_bits >= floor
        ok &= res.clean_bits <= res.ledger.entropy_cap
        worst = res.clean_bits if worst is None else min(worst, res.clean_bits)
    ok &= ones_total == 0
    assert report(
        4, ok, f"(min clean={worst} >= {floor:.0f}, total stray ones={ones_total})"
    )


# ---------------------------------------------------------------------------
# criterion 5: brute-force oracle equivalence


def _patterns(k):
    xs = np.arange(2**k, dtype=np.int64)
    return ((xs[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)


def test_criterion_05_oracle_equivalence():
    ok = True
    for k in range(2, 13):
        bits = _patterns(k)
        out, _ = cooling.phase2_round(bits.ravel(), k, seed=None)
        # oracle: a 1 (and everything else in positions 2..k) survives iff
        # the bin ones-count is even; the first bit never survives
        even = np.array([bin(x).count("1") % 2 == 0 for x in range(2**k)])
        expected = bits[even][:, 1:].ravel()
        ok &= np.array_equal(out, expected)
    for k in range(4, 17):
        bits = _patterns(k)
        out, _ = cooling.phase3_round(bits.ravel(), k)
        mod0 = np.array([bin(x).count("1") % 4 == 0 for x in range(2**k)])
        expected = bits[mod0][:, 3:].ravel()
        ok &= np.array_equal(out, expected)
    assert report(5, ok, "(parity bins k<=12, mod-4 blocks k<=16, exhaustive)")


# ---------------------------------------------------------------------------
# criterion 6: compiled versus abstract


def test_criterion_06_compiled_vs_abstract():
    r1 = compiler.equivalence_check(
        compiler.compile_phase1(8), lambda b: cooling.phase1_round(b)[0], 8
    )
    r1s = compiler.equivalence_check(
        compiler.compile_phase1(64),
        lambda b: cooling.phase1_round(b)[0],
        64,
        samples=1000,
        seed=0,
    )
    r2 = compiler.equivalence_check(
        compiler.compile_phase2_round(12, 3),
        lambda b: cooling.phase2_round(b, 3, seed=None)[0],
        12,
    )
    total = r1.mismatches + r1s.mismatches + r2.mismatches
    ok = total == 0 and r1.cases == 256 and r1s.cases == 1000 and r2.cases == 4096
    assert report(
        6,
        ok,
        f"(phase1: {r1.cases}+{r1s.cases} cases, phase2: {r2.cases} cases, "
        f"mismatches={total})",
    )


# ---------------------------------------------------------------------------
# criterion 7: architecture verification


def test_criterion_07_architecture():
    ok = True
    seq = polymer.two_tape_rotate_seq()
    for p in range(2, 101):
        spec = polymer.two_tape_spec(p)
        perm = polymer.induced_permutation(spec, seq)
        A, C = spec.positions_of("A"), spec.positions_of("C")
        ok &= all(int(perm[i]) == i for i in spec.positions_of("B"))
        ok &= all(int(perm[i]) == i for i in spec.positions_of("D"))
        ok &= all(int(perm[A[i]]) == A[(i + 1) % p] for i in range(p))
        ok &= all(int(perm[C[i]]) == C[(i - 1) % p] for i in range(p))
    # single-tape triple on the two-period ring: a_i->C_i, b_i->B_{i+1}, c_i->A_{i+1}
    spec = polymer.single_tape_spec(2)
    tri = polymer.PulseSequence([("A", "B"), ("C", "A"), ("B", "C")])
    perm = polymer.induced_permutation(spec, tri)
    A, B, C = (spec.positions_of(t) for t in "ABC")
    for i in range(2):
        ok &= int(perm[A[i]]) == C[i]
        ok &= int(perm[B[i]]) == B[(i + 1) % 2]
        ok &= int(perm[C[i]]) == A[(i + 1) % 2]
    # the realized logical shift closes after n applications
    for p in (2, 5, 9):
        spec = polymer.single_tape_spec(p)
        rs = polymer.realize_abstract_shift(spec)
        n = spec.ring_length
        acc = perms.identity(n)
        for _ in range(n):
            acc = perms.compose(acc, rs.permutation)
        ok &= bool(np.array_equal(acc, perms.identity(n)))
        ok &= bool(
            np.array_equal(rs.permutation[rs.logical_order], np.roll(rs.logical_order, -1))
        )
    assert report(7, ok, "(two-tape periods 2..100, track map, realized shift)")


# ---------------------------------------------------------------------------
# criterion 8: runtime exponents


def test_criterion_08_runtime_exponents():
    sizes = [3**6, 3**7, 3**8, 3**9]
    model = thermal.BiasModel("binomial", 0.25)
    totals = {"single": [], "two_tape": [], "two_tape_ca": []}
    for n in sizes:
        res = cooling.pipeline(model, n, seed=80_000, mode="shuffled-blocks")
        for a in totals:
            totals[a].append(res.steps[a])
    slopes = {a: analysis.runtime_exponent(a, sizes, totals[a]) for a in totals}
    ok = abs(slopes["single"] - 2.0) <= 0.15
    ok &= abs(slopes["two_tape"] - 4.0 / 3.0) <= 0.15
    ok &= abs(slopes["two_tape_ca"] - 1.0) <= 0.15
    assert report(
        8,
        ok,
        "(slopes: "
        + ", ".join(f"{a}={s:.3f}" for a, s in slopes.items())
        + " vs 2.00/1.33/1.00 +- 0.15)",
    )


# ---------------------------------------------------------------------------
# criterion 9: mod-4 phase certification


def test_criterion_09a_certificate_rounds():
    cert = analysis.phase3_certificate(N_BIG, delta0=float(N_BIG) ** -0.3)
    ok = cert.rounds <= 6 and cert.final_delta < float(N_BIG) ** -10.0
    assert report(
        "9a", ok, f"(rounds={cert.rounds} <= 6, final delta={cert.final_delta:.3e})"
    )


def _phase2_stop_level(n):
    """The ones-fraction at which ``cooling.phase2_plan`` stops, read off the plan.

    A plan is empty exactly when its input is already at or below the stop
    level, so bisect (geometrically) on emptiness; the returned value is the
    smallest input seen that still gets a round, i.e. just above the level.
    """
    lo, hi = 1e-30, cooling.PHASE2_DELTA_MAX
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if cooling.phase2_plan(mid, n):
            hi = mid
        else:
            lo = mid
    return hi


def _pipeline_phase3_entry(n, eps):
    """Phase-3 entry level as ``cooling.pipeline`` derives it for (n, eps),
    read off its ``Plan``."""
    return cooling.make_plan(eps, n).certificate.deltas[0]


def test_criterion_09b_per_iteration_loss_floor():
    """Per-iteration survivor ratio >= 1 - 4 n^(-1/6) from where phase 2 stops.

    The floor 1 - 4/k (three header bits plus at most one part in k of
    block discards) is exact once delta <= k^(-2) = n^(-1/3), the parity
    phase's stationary point, and that is where ``phase2_plan`` halts.  From
    the higher level n^(-0.3) a block of size k = n^(1/6) is discarded with
    probability ~ k delta = n^(-2/15) > n^(-1/6), so the floor cannot hold
    for large n: at n = 10^6 the first round discards a fraction
    1 - (1-delta)^k ~ 0.148 of blocks, pushing the survivor ratio to
    0.7 * 0.8524 = 0.5966, 0.57% below the 0.6 floor; from n^(-1/3) the
    same statistic is 0.633.

    The check runs at N_BIG from the stop level read off ``phase2_plan``,
    and at the entry levels the pipeline really derives for a grid of
    (n, eps).  Had phase 2 stopped at n^(-0.3), those entries would miss the
    floor at n = 10^12 (eps = 0.01, 0.05: 0.955, 0.952 vs 0.960), n = 10^15
    (eps = 0.5: 0.982 vs 0.987) and n = 10^24 (eps = 0.5).
    """
    def floor(n):
        return 1.0 - 4.0 * float(n) ** (-1.0 / 6.0)

    n = N_BIG
    delta0 = _phase2_stop_level(n)
    worst = min(analysis.phase3_certificate(n, delta0=delta0).loss_factors)
    ok = worst >= floor(n)

    misses = []
    for n_grid in (10**6, 10**9, 10**12, 10**15, 10**24):
        stop = _phase2_stop_level(n_grid)
        for eps in (0.01, 0.05, 0.25, 0.5):
            entry = _pipeline_phase3_entry(n_grid, eps)
            cert = analysis.phase3_certificate(n_grid, delta0=entry)
            ratio = min(cert.loss_factors)
            if entry > stop or ratio < floor(n_grid):
                misses.append(f"n={n_grid:.0e} eps={eps}: entry {entry:.3e} "
                              f"(stop {stop:.3e}), ratio {ratio:.4f} "
                              f"vs floor {floor(n_grid):.4f}")
    ok &= not misses
    report("9b", ok, f"(min loss factor {worst:.5f} vs floor {floor(n):.2f} "
                     f"from delta0 = {delta0:.3e}; pipeline entries below the "
                     f"floor or above the stop level: {misses or 'none'})")
    assert worst >= floor(n), (
        f"per-iteration survivor ratio {worst:.5f} < {floor(n):.2f} from the "
        f"phase-2 stop level {delta0:.3e} at n = {n}"
    )
    assert not misses, "; ".join(misses)


# ---------------------------------------------------------------------------
# criterion 10: byte determinism


def test_criterion_10_determinism(tmp_path):
    args = ["pipeline", "--n", "50000", "--epsilon", "0.25", "--seed", "3",
            "--trials", "4"]
    dirs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / name
        assert cli.main(args + ["--jobs", jobs, "--out", str(out)]) == cli.EXIT_OK
        dirs.append(out)
    ok = True
    for name in ("rounds.csv", "ledger.json"):
        blobs = [(d / name).read_bytes() for d in dirs]
        ok &= blobs[0] == blobs[1] == blobs[2]
    assert report(10, ok, "(repeat runs and --jobs 3 byte-identical)")


# ---------------------------------------------------------------------------
# criterion 11: size independence


def test_criterion_11_size_independence():
    """The clean fraction does not fall as the machine grows, and it stays
    at or above the ledger's floor fraction.

    PAPER.md claims that the signal-to-noise ratio does not depend on the
    machine's size.  Binomial-direct at eps = 0.25 runs 5 seeds at 10^5,
    10^6 and 10^7 and one at 10^8 (measured: 5.28e-3, 8.37e-3, 1.24e-2 and
    1.54e-2 against a floor of 3.21e-3).  From one decade to the next the
    mean fraction may not fall by more than 3 sigma, sigma the standard
    error of the difference of the two means.  A mean's standard error is
    the seeds' spread over sqrt(5); the single run at 10^8 takes the
    per-seed spread at 10^7 as its sigma, an overstatement, since the
    spread shrinks with n.  Every run must also reach floor / n.  The floor
    is an asymptotic bound, and 10^4 is left out: its fraction of 1.72e-3
    sits below it, so the floor is checked from 10^5 up.
    """
    model = thermal.BiasModel("binomial", 0.25)
    means, sigmas, low, details = [], [], [], []
    spread = 0.0
    for n, seeds in ((10**5, 5), (10**6, 5), (10**7, 5), (10**8, 1)):
        runs = [cooling.pipeline(model, n, seed=110_000 + s) for s in range(seeds)]
        fracs = np.array([r.clean_bits / n for r in runs])
        floor = runs[0].ledger.expected_floor / n
        assert all(int(r.bits.sum()) == 0 for r in runs), n
        if seeds > 1:
            spread = float(fracs.std(ddof=1))
        means.append(float(fracs.mean()))
        sigmas.append(spread / math.sqrt(seeds))
        low += [f"n={n:.0e} seed {110_000 + s}: {f:.3e}"
                for s, f in enumerate(fracs) if f < floor]
        details.append(f"{n:.0e}: {means[-1]:.3e}")
    falls = [f"{a:.3e} -> {b:.3e}" for a, b, sa, sb in zip(means, means[1:], sigmas, sigmas[1:])
             if b < a - 3.0 * math.hypot(sa, sb)]
    ok = not falls and not low
    assert report(11, ok, f"(clean fraction {', '.join(details)}; floor {floor:.3e}; "
                          f"falls {falls or 'none'}; below floor {low or 'none'})"), (falls, low)
