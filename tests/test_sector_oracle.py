"""The sweep against the paper's sector argument, at up to N = 300.

sector_oracle (tests/scalar_reference.py) takes each sector's midpoint,
applies the per-element rule toward it and sums every candidate channel
from scratch: it shares nothing with the sweep's sorts, contribution
table or chain.  Each row of a block, one to five rows, must reach the
oracle's |h| within the oracle gate's 1e-12 of |h_d| + sum |v_n|.

Element angles lie on a grid of 2*pi/M with M a multiple of 48, and every
set of conftest.phase_sets puts its line offsets on the 2*pi/48 grid, so
distinct lines lie at least 2*pi/M apart.  The oracle skips a sector
narrower than 1e-9; here such a sector only separates lines that
coincide (repeated elements, grid ties) but may round apart, and holds
no direction, so skipping it loses no candidate.  Rows hold ties, equal
or unequal amplitudes and zero or nonzero direct paths; the sets include
K = 1 and gaps of exactly pi.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import phase_sets
from scalar_reference import sector_oracle
from ris_dps import (ChannelRealization, PhaseShiftSet, RealizationBatch,
                     sweep_optimize)

PI = math.pi
_M = 48 * 64  # angle grid: 2*pi/M, about 2e-3 between distinct lines


def _block(ps, n, t, seed, equal_amps, pairs, zeros):
    """A (t, n) block on the angle grid, drawn from seed.  pairs repeats
    every other element (coinciding lines); zeros is how many rows, from
    the last, have a zero direct path."""
    rng = np.random.default_rng(seed)
    angles = rng.integers(0, _M, (t, n)) * (2 * PI / _M)
    if pairs:
        angles[:, 1::2] = angles[:, :n // 2]
    amps = np.ones((t, n)) if equal_amps else rng.uniform(0.1, 2.0, (t, n))
    h_d = rng.uniform(0.01, 2.0, t) * np.exp(1j * rng.uniform(0, 2 * PI, t))
    h_d[t - zeros:] = 0.0
    return RealizationBatch(h_d, amps * np.exp(1j * angles)), ps


@st.composite
def _blocks(draw):
    t = draw(st.sampled_from((1, 2, 5)))
    return _block(draw(phase_sets()), draw(st.integers(1, 300)), t,
                  draw(st.integers(0, 2 ** 32 - 1)), draw(st.booleans()),
                  draw(st.booleans()), draw(st.integers(0, t)))


@settings(max_examples=150, deadline=None)
@given(_blocks())
@example(_block(PhaseShiftSet((0.0,)), 1, 1, 0, True, False, 1))
@example(_block(PhaseShiftSet((0.0,)), 300, 2, 1, False, True, 1))
@example(_block(PhaseShiftSet((0.0, PI)), 300, 5, 2, True, True, 2))
@example(_block(PhaseShiftSet((0.0, PI / 2, PI)), 257, 2, 3, False, False, 0))
@example(_block(PhaseShiftSet((PI / 6, 5 * PI / 6)), 300, 5, 4, False, True,
                5))
@example(_block(PhaseShiftSet.uniform(3), 120, 5, 5, True, False, 0))
def test_every_row_reaches_the_best_sector_midpoint(block):
    batch, ps = block
    swept = sweep_optimize(batch, ps)
    for row in range(batch.trials):
        real = ChannelRealization(complex(batch.h_d[row]), batch.v[row])
        h = sector_oracle(real, ps)
        scale = abs(real.h_d) + float(np.abs(real.v).sum())
        assert abs(swept.amplitude[row] - abs(h)) <= 1e-12 * scale
