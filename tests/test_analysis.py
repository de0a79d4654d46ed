import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinref import analysis
from spinref.analysis import (
    REGION_FLOORS,
    backward_orbit,
    bias_backward,
    bias_forward,
    binary_entropy,
    entropy_cap,
    forward_orbit,
    ledger_constant,
    phase1_overhead,
    phase2_bounds,
    phase2_delta_bound,
    phase2_stationary,
    phase3_certificate,
    runtime_exponent,
    yield_ledger,
)


def test_bias_forward_fixed_points_and_half():
    assert bias_forward(0.0) == 0.0
    assert bias_forward(1.0) == 1.0
    # exact pair enumeration at eps=0.5: P(00)=0.5625, P(11)=0.0625,
    # conditional bias (0.5625-0.0625)/0.625 = 0.8
    assert bias_forward(0.5) == pytest.approx(0.8, abs=1e-15)


def test_backward_is_exact_inverse():
    for x in np.linspace(0.1, 0.9, 9):
        assert bias_forward(bias_backward(x)) == pytest.approx(x, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0, exclude_max=False))
def test_forward_backward_roundtrip(x):
    assert bias_forward(bias_backward(x)) == pytest.approx(x, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_forward_amplifies(x):
    y = bias_forward(x)
    assert y >= x - 1e-15
    if 0 < x < 1:
        assert y > x


def test_forward_strictly_increasing_on_grid():
    grid = np.linspace(0.0, 1.0, 2001)
    vals = [bias_forward(x) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_seven_backward_iterates():
    orbit = backward_orbit(0.856, 7)
    assert abs(orbit[7] - 0.009985) < 1e-6
    assert orbit[1] == pytest.approx(0.5643, abs=5e-5)


def test_phase1_round_counts():
    assert len(forward_orbit(0.009985, 0.856)) - 1 == 7
    assert forward_orbit(0.857, 0.856) == [0.857]


def test_phase1_overhead_constants():
    prod = phase1_overhead(0.009985, 0.856)
    inclusive_sq = (prod * (1 + 0.856**2)) ** 2
    assert 6.6 < inclusive_sq < 6.7
    # low-bias region contributes almost nothing
    assert phase1_overhead(1e-6, 0.02) ** 2 < 1.0017
    assert phase1_overhead(0.3, 0.3) == 1.0
    assert phase1_overhead(0.9, 0.856) == 1.0


def test_phase2_bounds_worked_example():
    n1, b1, u = phase2_bounds(1000, 50, 3)
    assert n1 == pytest.approx(571.58, abs=0.01)
    assert b1 == pytest.approx(4.875, abs=1e-9)
    assert u == pytest.approx(45.125, abs=1e-9)


def test_phase2_bounds_clean_input():
    n1, b1, _ = phase2_bounds(900, 0, 3)
    assert n1 == pytest.approx(600.0)
    assert b1 == 0.0


def test_phase2_fourth_region_chain():
    # delta1 <= 1.2 delta^1.6 across the power-rule region
    for delta in np.geomspace(1e-9, 0.000158, 40):
        k = math.ceil(round(delta**-0.4, 9))
        assert k >= 33
        assert phase2_delta_bound(delta, k) <= 1.2 * delta**1.6


def test_phase2_region_floors():
    # cross-check region 1..3 floors at the worst delta on a grid
    worst = [
        ((0.0188, 0.072), 3, REGION_FLOORS[1]),
        ((0.0027, 0.0188), 7, REGION_FLOORS[2]),
        ((0.000158, 0.0027), 21, REGION_FLOORS[3]),
    ]
    for (lo, hi), k, floor in worst:
        for delta in np.linspace(lo + 1e-9, hi, 50):
            ratio = (1 - delta) ** k * (k - 1) / k
            assert ratio >= floor
    # fourth region cumulative along the bound-driven orbit
    delta, prod = 0.000158, 1.0
    while delta > 1e-30:
        k = math.ceil(round(delta**-0.4, 9))
        prod *= (1 - delta) ** k * (k - 1) / k
        delta = phase2_delta_bound(delta, k)
    assert prod >= REGION_FLOORS[4]


def test_phase2_stationary():
    star, halt = phase2_stationary(10**6)
    assert star == pytest.approx(0.01)
    assert halt == pytest.approx(10**-1.8)
    with pytest.raises(ValueError):
        phase2_stationary(1)
    for n in (2, 10, 10**4, 10**9):
        star, halt = phase2_stationary(n)
        assert star < halt


def test_phase3_certificate_converges():
    cert = phase3_certificate(10**6)
    assert cert.k == 10
    assert cert.rounds <= 6
    assert cert.final_delta < float(10**6) ** -10
    assert cert.deltas[0] == pytest.approx(10**-1.8)
    # zero start: certified immediately
    assert phase3_certificate(10**6, delta0=0.0).rounds == 0


def test_phase3_certificate_conservative_vs_empirical_rate():
    # per-1 pass probability: block of k-1 others holds 3 mod 4 extra ones
    delta, k = 1e-3, 10
    exact = analysis.binomial_class_mass(delta, k - 1, 3, 4, start=3)
    assert exact == pytest.approx(math.comb(9, 3) * delta**3, rel=5e-2)


def test_entropy_cap_values():
    assert entropy_cap(100, 1.0) == pytest.approx(100.0)
    assert entropy_cap(100, 0.0) == 0.0
    assert entropy_cap(1, 0.1) == pytest.approx(0.00723, abs=1e-5)
    assert binary_entropy(0.5) == 1.0
    # small-bias form eps^2/(2 ln 2)
    eps = 1e-3
    assert entropy_cap(1, eps) == pytest.approx(eps**2 / (2 * math.log(2)), rel=1e-4)


def test_ledger_constant_and_checks():
    c = ledger_constant()
    assert 19.4 < c < 19.6
    assert c <= 20.0
    led = yield_ledger(0.25, 10**6, 8000)
    assert led.total_factor == pytest.approx(c / 0.0625)
    assert led.total_factor <= 20 / 0.25**2
    assert led.meets_floor and led.within_entropy_cap
    degenerate = yield_ledger(1.0, 100, 100)
    assert degenerate.entropy_cap == pytest.approx(100.0)
    d = led.as_dict()
    assert set(d) >= {"epsilon", "n", "clean_bits", "total_factor", "entropy_cap"}


@pytest.mark.parametrize("eps", [2e-162, 1e-155, 1e-200])
def test_ledger_rejects_a_bias_whose_factor_is_not_finite(eps):
    # 19.5/eps^2 overflows below about 3.3e-154 and divides by an eps^2 that
    # underflows to 0 below about 1.5e-162; the smallest bias taken is finite
    with pytest.raises(ValueError, match="not finite"):
        yield_ledger(eps, 1000, 0)
    assert math.isfinite(yield_ledger(analysis.EPSILON_MIN, 1000, 0).total_factor)


def test_runtime_exponent_fit():
    sizes = [100, 200, 400, 800]
    steps = [n**2 for n in sizes]
    assert runtime_exponent("single", sizes, steps) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError):
        runtime_exponent("single", sizes[:3], steps[:3])
    with pytest.raises(ValueError):
        runtime_exponent("warp", sizes, steps)


def test_bias_backward_rejects_zero():
    with pytest.raises(ValueError):
        bias_backward(0.0)
    with pytest.raises(ValueError):
        bias_forward(1.5)


@pytest.mark.parametrize("eps0,target", [(0.2, 1.5), (0.2, 0.0), (1.5, 0.856), (0.0, 0.856),
                                         (-0.1, 0.856), (math.nan, 0.856), (0.2, math.nan)])
def test_forward_orbit_rejects_a_bias_outside_the_unit_interval(eps0, target):
    with pytest.raises(ValueError, match="must lie in"):
        forward_orbit(eps0, target)


def test_forward_orbit_is_short_for_every_valid_bias():
    # the longest orbit starts at the smallest double and runs to target 1
    assert len(forward_orbit(5e-324, 1.0)) == 1078
    assert forward_orbit(1.0, 1.0) == [1.0]


def test_binomial_class_mass_iterative_matches_direct():
    for delta in (0.0, 1e-4, 0.0158, 0.25):
        for k in (4, 10, 33):
            direct = sum(
                math.comb(k, c) * delta**c * (1 - delta) ** (k - c)
                for c in range(k + 1)
                if c % 4 == 0
            )
            assert analysis.binomial_class_mass(delta, k, 0, 4) == pytest.approx(
                direct, rel=1e-12, abs=1e-300
            )


def test_phase3_certificate_large_population_no_overflow():
    cert = analysis.phase3_certificate(10**24)
    assert cert.k == 10_000
    assert cert.rounds <= 6
