"""Complex-plane primitives shared by the channel model and the solvers.

Channel coefficients are plain Python/numpy complex numbers; this module
collects the angle utilities everything else is phrased in: arguments
reduced to [0, 2*pi), the (unsigned, <= pi) distance between two
directions, and unit vectors from a direction.
"""

import math

TWO_PI = 2.0 * math.pi

# Tolerance band used wherever an angle comparison distinguishes <, =, >
# (e.g. the pi/2 on/off threshold).  Exact equality provably never occurs
# at an optimum, but floating point needs a band.
ANGLE_EPS = 1e-9


def wrap_angle(theta: float) -> float:
    """Reduce an angle in radians to the half-open interval [0, 2*pi)."""
    t = theta % TWO_PI
    # Float modulo can round up to exactly 2*pi for tiny negative inputs.
    return 0.0 if t >= TWO_PI else t


def wrap_angles(theta):
    """wrap_angle applied elementwise to an array, with the same bits."""
    t = theta % TWO_PI
    t[t >= TWO_PI] = 0.0
    return t


def arg_mod_2pi(v: complex) -> float:
    """Argument of a nonzero complex number, reduced to [0, 2*pi).

    Args:
        v: complex value with positive amplitude.

    Returns:
        Counterclockwise angle in radians from the positive real axis.

    Raises:
        ValueError: if v has zero amplitude.
    """
    v = complex(v)
    if v.real == 0.0 and v.imag == 0.0:
        raise ValueError("argument of zero vector undefined")
    return wrap_angle(math.atan2(v.imag, v.real))


def unit_from_arg(theta: float) -> complex:
    """Unit-amplitude complex number with argument theta mod 2*pi."""
    return complex(math.cos(theta), math.sin(theta))


def circular_distance(a: float, b: float) -> float:
    """Angular distance between two directions (radians), in [0, pi]."""
    d = abs(wrap_angle(a) - wrap_angle(b))
    return min(d, TWO_PI - d)
