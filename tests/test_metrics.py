import math

import pytest

from ris_dps import LinkBudget, capacity, performance_gain

BUDGET = LinkBudget(-80.0, -60.0, -140.0, 100.0)


def test_zero_channel_zero_capacity():
    report = capacity(0j, BUDGET)
    assert report.snr_linear == 0.0
    assert report.capacity_bps == 0.0


def test_unit_snr_gives_one_bit():
    # 10^(100/10) * (1e-5)^2 = 1
    report = capacity(1e-5 + 0j, BUDGET)
    assert report.snr_linear == pytest.approx(1.0)
    assert report.spectral_efficiency == pytest.approx(1.0)
    assert report.capacity_bps == pytest.approx(1.0)


def test_snr_quadratic_in_amplitude():
    a = capacity(1e-5, BUDGET)
    b = capacity(2e-5, BUDGET)
    assert b.snr_linear == pytest.approx(4 * a.snr_linear)


def test_capacity_monotone():
    amps = [1e-6, 5e-6, 1e-5, 1e-4]
    ses = [capacity(a, BUDGET).spectral_efficiency for a in amps]
    assert ses == sorted(ses)
    low = capacity(1e-5, BUDGET)
    high = capacity(1e-5, LinkBudget(-80.0, -60.0, -140.0, 110.0))
    assert high.spectral_efficiency > low.spectral_efficiency


def test_bandwidth_scales_capacity():
    budget = LinkBudget(-80.0, -60.0, -140.0, 100.0, bandwidth_hz=1e6)
    report = capacity(1e-5, budget)
    assert report.capacity_bps == pytest.approx(1e6 * report.spectral_efficiency)


def test_capacity_accepts_complex_or_amplitude():
    z = 3e-6 - 4e-6j
    assert capacity(z, BUDGET) == capacity(abs(z), BUDGET)


def test_performance_gain():
    assert performance_gain(1.0, 1.0) == 0.0
    assert performance_gain(1.15, 1.0) == pytest.approx(15.0)
    assert performance_gain(math.pi * 1.15, math.pi) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        performance_gain(1.0, 0.0)
    with pytest.raises(ValueError):
        performance_gain(1.0, -2.0)


def test_capacity_overflow_is_a_value_error():
    # 10^(0/10) * (2e200)^2 leaves the float range: an OverflowError in
    # the power, an infinite SNR in the product
    with pytest.raises(ValueError, match=r"snr_budget_db = 0.0 and \|h\| = "
                                         r"2e\+200"):
        capacity(2e200 - 0j, LinkBudget(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"snr_budget_db = 300.0 and \|h\| = "
                                         r"1e\+150"):
        capacity(1e150, LinkBudget(0.0, 0.0, 0.0, 300.0))
    huge = complex(1.5e308, 1.5e308)  # abs() itself overflows
    with pytest.raises(ValueError, match=r"\|h\| = inf"):
        capacity(huge, BUDGET)
