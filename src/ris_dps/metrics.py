"""Capacity and comparison metrics."""

import math
from dataclasses import dataclass
from typing import Union

from .channel import LinkBudget


@dataclass(frozen=True)
class CapacityReport:
    """Shannon capacity of a channel under a link budget.

    capacity_bps = bandwidth_hz * spectral_efficiency.
    """

    snr_linear: float
    spectral_efficiency: float
    capacity_bps: float


def capacity(h: Union[complex, float], budget: LinkBudget) -> CapacityReport:
    """Capacity B*log2(1 + SNR) with SNR = 10^(snr_budget_db/10) * |h|^2.

    Args:
        h: overall channel coefficient (or its amplitude).
        budget: supplies the SNR budget P/(B*N0) and bandwidth.

    Raises:
        ValueError: if the SNR overflows.
    """
    try:
        snr = 10.0 ** (budget.snr_budget_db / 10.0) * abs(h) ** 2
    except OverflowError:
        snr = math.inf
    if math.isinf(snr):  # |h| by hypot: abs() raises past the float range
        raise ValueError(f"the SNR 10^(snr_budget_db/10) * |h|^2 overflows at "
                         f"snr_budget_db = {budget.snr_budget_db!r} and "
                         f"|h| = {math.hypot(h.real, h.imag)!r}")
    se = math.log2(1.0 + snr)
    return CapacityReport(snr_linear=snr, spectral_efficiency=se,
                          capacity_bps=budget.bandwidth_hz * se)


def performance_gain(c_proposed: float, c_cpp: float) -> float:
    """Relative capacity gain of the proposed solver over the baseline, in percent.

    Raises:
        ValueError: if the baseline capacity is not positive.
    """
    if c_cpp <= 0.0:
        raise ValueError("baseline capacity must be positive")
    return 100.0 * (c_proposed - c_cpp) / c_cpp
