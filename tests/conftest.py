import math
import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import ris_dps
from ris_dps import ChannelRealization, PhaseShiftSet

PI = math.pi
TWO_PI = 2.0 * np.pi


def random_phase_set(rng, k, min_sep=1e-6):
    """Strictly increasing phases in [0, 2*pi), re-drawn until every cyclic
    gap, the last-to-first one included, is at least min_sep."""
    while True:
        ph = np.sort(rng.uniform(0.0, TWO_PI, size=k))
        if np.min(np.diff(ph, append=ph[0] + TWO_PI)) >= min_sep:
            return PhaseShiftSet(ph)


def random_instance(rng, n, k, hd_max=2.0):
    """A generic small instance: O(1) amplitudes, fully random directions."""
    phases = random_phase_set(rng, k)
    v = rng.uniform(0.1, 2.0, size=n) * np.exp(1j * rng.uniform(0, TWO_PI, n))
    h_d = rng.uniform(0.0, hd_max) * np.exp(1j * rng.uniform(0, TWO_PI))
    return ChannelRealization(h_d, v), phases


def choice_pairs(ps):
    """Each column's (starting, ending) choices, as Python ints."""
    return list(zip(ps.line_starting.tolist(), ps.line_ending.tolist()))


def child_env() -> dict:
    """Environment for a child Python that must import this same package.

    pytest's own pythonpath setting does not reach a subprocess.
    """
    package_root = str(Path(ris_dps.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def coinciding_blocks():
    """Two (4, 6) element blocks whose rows hold ties.

    In the first, row 2 has three coinciding elements; the other rows are
    tie-free.  In the second, a copy, element 3 of every row lies on
    element 5's ray at half its amplitude.  Coinciding elements tie in the
    element sort and give coinciding lines (zero-width sectors).
    """
    rng = np.random.default_rng(23)
    angles = rng.uniform(0.0, TWO_PI, (4, 6))
    angles[2, [1, 4]] = angles[2, 0]
    amps = rng.uniform(0.2, 2.0, (4, 6))
    v = amps * np.exp(1j * angles)
    tied = v.copy()
    tied[:, 3] = tied[:, 5] * 0.5
    return v, tied


#: The phase sets coinciding_blocks is solved with: one gap above pi, and
#: a uniform set.
COINCIDING_SETS = (PhaseShiftSet((PI / 6, 5 * PI / 6)),
                   PhaseShiftSet((0.0, 2 * PI / 3, 4 * PI / 3)))


GRID = [i * TWO_PI / 24 for i in range(24)]

FIXED_SETS = (
    (0.0,),                           # K = 1
    (0.0, PI),                        # a gap of exactly pi
    (0.0, 2 * PI / 3, 4 * PI / 3),    # uniform, no off lines
    (PI / 6, 5 * PI / 6),             # lopsided, one gap above pi
    (0.0, PI / 2, PI),                # a gap of exactly pi after two small ones
)


@st.composite
def phase_sets(draw):
    if draw(st.booleans()):
        return PhaseShiftSet(draw(st.sampled_from(FIXED_SETS)))
    # grid phases: gaps of exactly pi and coinciding lines across elements
    picks = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=4,
                          unique=True))
    return PhaseShiftSet(sorted(picks))


@st.composite
def realizations(draw, n, zero_direct=None):
    """n elements on grid or free angles, maybe repeated in pairs.

    zero_direct forces the direct path to zero (True) or nonzero (False);
    None draws it.
    """
    angle = st.one_of(st.sampled_from(GRID), st.floats(0.0, TWO_PI,
                                                       exclude_max=True))
    angles = draw(st.lists(angle, min_size=n, max_size=n))
    if draw(st.booleans()):
        # repeated elements: identical lines, hence zero-width sectors
        angles = [angles[i // 2] for i in range(n)]
    amps = draw(st.one_of(
        st.just([1.0] * n),
        st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    v = np.asarray(amps) * np.exp(1j * np.asarray(angles))
    if zero_direct is None:
        zero_direct = not draw(st.booleans())
    h_d = 0j
    if not zero_direct:
        a = draw(st.sampled_from(GRID))
        h_d = draw(st.floats(0.01, 2.0)) * complex(math.cos(a), math.sin(a))
    return ChannelRealization(h_d, v)


@st.composite
def instances(draw, max_n=10):
    ps = draw(phase_sets())
    n = draw(st.integers(1, max_n))
    return draw(realizations(n)), ps


@st.composite
def batches(draw, max_n=10):
    """(realizations, phase set): 1, 2 or 5 realizations of N = 0..max_n.

    Either no row, one row or every row has a zero direct path.
    """
    ps = draw(phase_sets())
    n = draw(st.integers(0, max_n))
    t = draw(st.sampled_from((1, 2, 5)))
    zeros = draw(st.sampled_from(("none", "one", "all")))
    reals = [draw(realizations(n, zero_direct=(
        zeros == "all" or (zeros == "one" and i == t - 1)))) for i in range(t)]
    return reals, ps
