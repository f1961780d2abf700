import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from scalar_reference import angle_between, unit_from_arg
from ris_dps import PhaseShiftSet, TWO_PI, arg_mod_2pi, wrap_angle
from ris_dps import geometry
from ris_dps.geometry import wrap_angles
from ris_dps.optimizer import _column_templates

nonzero_vectors = st.builds(
    complex,
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-1e3, 1e3, allow_nan=False),
).filter(lambda z: abs(z) > 1e-6)


def test_arg_examples():
    assert arg_mod_2pi(1 + 0j) == 0.0
    assert arg_mod_2pi(0 - 1j) == pytest.approx(3 * math.pi / 2)
    # atan2(-1, -1) reduced mod 2*pi
    assert arg_mod_2pi(-1 - 1j) == pytest.approx(5 * math.pi / 4)


def test_arg_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        arg_mod_2pi(0j)


def test_angle_between_examples():
    assert angle_between(1 + 0j, 1j) == pytest.approx(math.pi / 2)
    a = unit_from_arg(0.1)
    b = unit_from_arg(TWO_PI - 0.1)
    assert angle_between(a, b) == pytest.approx(0.2)
    assert angle_between(3 - 4j, 3 - 4j) == 0.0


def test_angle_between_zero_rejected():
    with pytest.raises(ValueError):
        angle_between(0j, 1 + 0j)


def test_unit_from_arg_examples():
    assert unit_from_arg(0.0) == 1 + 0j
    assert unit_from_arg(math.pi).real == pytest.approx(-1.0)
    z = unit_from_arg(TWO_PI + math.pi / 2)
    assert z.imag == pytest.approx(1.0)
    assert abs(z.real) < 1e-12


def test_wrap_angle_edges():
    assert wrap_angle(TWO_PI) == 0.0
    assert wrap_angle(-1e-20) < TWO_PI
    assert wrap_angle(-0.1) == pytest.approx(TWO_PI - 0.1)


def _modulo_wrap(theta):
    """The float-modulo wrap: theta % 2*pi, a result of 2*pi mapped to 0."""
    t = theta % TWO_PI
    t[t >= TWO_PI] = 0.0
    return t


def _assert_wraps_like_the_modulo(theta):
    theta = np.array(theta, dtype=float)
    before = theta.copy()
    wrapped = wrap_angles(theta)
    assert np.array_equal(wrapped.view(np.uint64),
                          _modulo_wrap(theta).view(np.uint64))
    assert np.array_equal(theta.view(np.uint64), before.view(np.uint64))


@given(st.lists(st.floats(-TWO_PI, 3 * TWO_PI, exclude_min=True,
                          exclude_max=True), max_size=40))
@example([-0.0, 0.0])
@example([5e-324, -5e-324])
@example([-1e-17, -1e-14, 1e-14])
@example([np.nextafter(TWO_PI, 0.0), TWO_PI, np.nextafter(TWO_PI, 7.0)])
@example([np.nextafter(2 * TWO_PI, 0.0), 2 * TWO_PI,
          np.nextafter(2 * TWO_PI, 13.0)])
@example([np.nextafter(-TWO_PI, 0.0), np.nextafter(3 * TWO_PI, 0.0),
          -TWO_PI + 1e-14, TWO_PI - 1e-14, 2 * TWO_PI + 1e-14])
def test_wrap_angles_equals_the_modulo_in_its_fast_domain(theta):
    _assert_wraps_like_the_modulo(theta)


class _NaNShifts:
    """numpy for the geometry module, except that np.multiply, which
    forms the fast path's shifts, returns NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def multiply(k, factor):
        return np.full(np.shape(k), math.nan)


@pytest.mark.parametrize("theta", [
    [-7.0, 1.0], [3 * TWO_PI, 0.5], [1e6, -1e6, 2.0], [-TWO_PI, 0.1],
    [0.3, math.nan, 4.0], [-1e300, 5e-324, -0.0], [math.inf, 1.0]])
def test_wrap_angles_falls_back_to_the_modulo_out_of_range(monkeypatch,
                                                           theta):
    # Shifts that would corrupt any fast-path result: a match shows the
    # fallback ran.
    monkeypatch.setattr(geometry, "np", _NaNShifts())
    with np.errstate(invalid="ignore"):  # inf % 2*pi is NaN
        _assert_wraps_like_the_modulo(theta)


def test_line_arguments_stay_in_the_fast_domain():
    # The largest column offset: K = 1 (one gap of 2*pi, above pi) with
    # its phase just below 2*pi puts the off-region's closing line at
    # phase + 1.5*pi.  Added to an element angle just below 2*pi, it stays
    # below the fast domain's upper end, 6*pi.
    below = np.nextafter(TWO_PI, 0.0)
    offsets, _ = _column_templates(PhaseShiftSet((below,)))
    assert offsets.max() <= 3.5 * math.pi
    assert below + offsets.max() < 3 * TWO_PI


@given(nonzero_vectors, nonzero_vectors)
def test_angle_between_symmetric_and_bounded(a, b):
    ang = angle_between(a, b)
    assert ang == angle_between(b, a)
    assert 0.0 <= ang <= math.pi


@given(nonzero_vectors, st.floats(1e-3, 1e3))
def test_positive_scaling_preserves_direction(a, scale):
    assert angle_between(a, a * scale) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_unit_arg_roundtrip(theta):
    assert arg_mod_2pi(unit_from_arg(theta)) == pytest.approx(
        wrap_angle(theta), abs=1e-12)


@given(nonzero_vectors, nonzero_vectors)
def test_triangle_consistency(a, b):
    # |a+b|^2 = |a|^2 + |b|^2 + 2|a||b|cos(angle); the law-of-cosines
    # expansion the on/off argument rests on.
    lhs = abs(a + b) ** 2
    rhs = (abs(a) ** 2 + abs(b) ** 2
           + 2 * abs(a) * abs(b) * math.cos(angle_between(a, b)))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9 * (abs(a) + abs(b)) ** 2)
