import math

import pytest
from hypothesis import given, strategies as st

from scalar_reference import angle_between
from ris_dps import TWO_PI, arg_mod_2pi, unit_from_arg, wrap_angle

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
