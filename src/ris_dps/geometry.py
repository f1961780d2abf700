"""Complex-plane primitives shared by the channel model and the solvers.

Channel coefficients are plain Python/numpy complex numbers; this module
collects the angle utilities everything else is phrased in: arguments
reduced to [0, 2*pi) and the (unsigned, <= pi) distance between two
directions.
"""

import math

import numpy as np

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
    """wrap_angle applied elementwise to an array, with the same bits.

    Every angle the solvers wrap lies in (-2*pi, 6*pi): np.angle gives
    [-pi, pi], a line argument is a wrapped element angle plus a column
    offset of at most 3.5*pi, and CPP's angle differences lie in
    (-2*pi, 4*pi).  On that range the wrap adds (1 - k)*2*pi, k the
    count of 0, 2*pi and 4*pi that the angle reaches, with no float
    modulo, and keeps the modulo's bits: subtracting 2*pi from
    [2*pi, 4*pi), or 4*pi from [4*pi, 6*pi), is exact (Sterbenz lemma),
    as fmod is; adding 2*pi to (-2*pi, 0) rounds as NumPy's remainder
    does; and adding 0.0 to [0, 2*pi) turns -0.0 into +0.0, as the
    remainder does.  An array with a value outside the range, or a NaN,
    takes theta % TWO_PI instead.
    """
    if (theta.min(initial=0.0) > -TWO_PI
            and theta.max(initial=0.0) < 3.0 * TWO_PI):
        k = (theta >= 0.0).view(np.int8)
        k += theta >= TWO_PI
        k += theta >= 2.0 * TWO_PI
        # The shift, 2*pi times 1 - k of 1, 0, -1 or -2: an exact float.
        np.subtract(1, k, out=k)
        t = np.multiply(k, TWO_PI)
        t += theta
    else:
        t = theta % TWO_PI
    # Either path rounds a tiny negative input up to exactly 2*pi.
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


def circular_distance(a: float, b: float) -> float:
    """Angular distance between two directions (radians), in [0, pi]."""
    d = abs(wrap_angle(a) - wrap_angle(b))
    return min(d, TWO_PI - d)
