"""Channel model: phase-shift sets, link budgets, random realizations.

An RIS element either reflects with unit amplitude at one of K discrete
phase shifts or is switched off.  Per-element choices are plain ints:
``OFF`` (0) or the 1-based index of the applied phase shift.  The overall
channel is the direct path plus the per-element contributions, all carried
as complex numbers.
"""

import cmath
import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .geometry import TWO_PI, unit_from_arg, wrap_angles

SCHEMA_VERSION = 1

# Element choice encoding: 0 = element off, i >= 1 = phase index i applied.
OFF = 0

SeedLike = Union[int, Sequence[int]]


@dataclass(frozen=True)
class PhaseShiftSet:
    """The K candidate phase shifts shared by all RIS elements.

    Phases are radians, strictly increasing within [0, 2*pi).
    """

    phases: tuple

    def __init__(self, phases: Sequence[float]):
        phases = tuple(float(p) for p in phases)
        if len(phases) == 0:
            raise ValueError("phase-shift set needs at least one phase")
        if not all(math.isfinite(p) for p in phases):
            raise ValueError(f"phases must be finite, got {phases}")
        if phases[0] < 0.0 or phases[-1] >= TWO_PI:
            raise ValueError("phases must lie within [0, 2*pi)")
        for lo, hi in zip(phases, phases[1:]):
            if not lo < hi:
                raise ValueError("phases must be strictly increasing")
        object.__setattr__(self, "phases", phases)

    @property
    def k(self) -> int:
        return len(self.phases)

    def phase_of(self, index: int) -> float:
        """Phase shift for a 1-based index."""
        if not 1 <= index <= self.k:
            raise IndexError(f"phase index {index} out of range 1..{self.k}")
        return self.phases[index - 1]

    def cyclic_gaps(self) -> np.ndarray:
        """Counterclockwise gap after each phase; the last wraps past 2*pi.

        Gaps are positive and sum to 2*pi.
        """
        p = np.asarray(self.phases)
        gaps = np.empty(self.k)
        gaps[:-1] = np.diff(p)
        gaps[-1] = TWO_PI - p[-1] + p[0]
        return gaps

    @classmethod
    def uniform(cls, k: int) -> "PhaseShiftSet":
        """Evenly spaced set {0, 2*pi/k, ..., (k-1)*2*pi/k}."""
        return cls(tuple(i * TWO_PI / k for i in range(k)))

    @classmethod
    def from_gaps(cls, gaps: Sequence[float]) -> "PhaseShiftSet":
        """Set {0, g1, g1+g2, ...} built from consecutive phase gaps."""
        phases = [0.0]
        for g in gaps:
            phases.append(phases[-1] + float(g))
        return cls(phases)

    def to_json(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "phases": list(self.phases)}

    @classmethod
    def from_json(cls, doc: dict) -> "PhaseShiftSet":
        check_schema(doc, "phase set")
        return cls(json_numbers(doc.get("phases"), "phases"))


@dataclass(frozen=True)
class LinkBudget:
    """Scalar link budget; dB values denote power gains (amplitude 10^(dB/20)).

    Attributes:
        gain_tx_ris_db: transmitter -> element channel gain.
        gain_ris_rx_db: element -> receiver channel gain.
        gain_direct_db: direct-path gain.
        snr_budget_db: transmit power over noise, P/(B*N0).
        bandwidth_hz: bandwidth B multiplying the spectral efficiency.
    """

    gain_tx_ris_db: float
    gain_ris_rx_db: float
    gain_direct_db: float
    snr_budget_db: float
    bandwidth_hz: float = 1.0

    def __post_init__(self):
        for name in ("gain_tx_ris_db", "gain_ris_rx_db", "gain_direct_db",
                     "snr_budget_db", "bandwidth_hz"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")

    @property
    def element_amplitude(self) -> float:
        """|v_n| implied by the two hop gains."""
        return 10.0 ** ((self.gain_tx_ris_db + self.gain_ris_rx_db) / 20.0)

    @property
    def direct_amplitude(self) -> float:
        """|h_d| implied by the direct-path gain."""
        return 10.0 ** (self.gain_direct_db / 20.0)

    def to_json(self) -> dict:
        return {
            "gain_tx_ris_db": self.gain_tx_ris_db,
            "gain_ris_rx_db": self.gain_ris_rx_db,
            "gain_direct_db": self.gain_direct_db,
            "snr_budget_db": self.snr_budget_db,
            "bandwidth_hz": self.bandwidth_hz,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LinkBudget":
        keys = ("gain_tx_ris_db", "gain_ris_rx_db", "gain_direct_db",
                "snr_budget_db", "bandwidth_hz")
        check_json_keys(doc, "budget", keys)
        return cls(**{k: json_number(doc[k], f"budget.{k}") for k in keys})


class ChannelRealization:
    """One draw of the channel: direct path plus per-element coefficients.

    Elements with zero amplitude contribute nothing and have no argument,
    so they are dropped at construction (with a warning) rather than
    carried along.  Non-finite values are rejected with ValueError.
    """

    def __init__(self, h_d: complex, v: Sequence[complex]):
        h_d = complex(h_d)
        if not cmath.isfinite(h_d):
            raise ValueError(f"direct path h_d must be finite, got {h_d}")
        v = np.asarray(v, dtype=complex)
        if v.ndim == 0:
            v = v.reshape(1)
        amp = np.abs(v)  # NaN or infinite for a NaN or infinite part
        finite = np.isfinite(amp)
        if not finite.all():
            bad = np.flatnonzero(~finite)
            raise ValueError(
                f"element coefficients must be finite: {bad.size} non-finite, "
                f"the first at index {int(bad[0])} ({v[bad[0]]})")
        nonzero = amp > 0.0
        self.n_dropped = int(v.size - np.count_nonzero(nonzero))
        if self.n_dropped:
            warnings.warn(
                f"dropped {self.n_dropped} zero-amplitude element(s) from realization",
                stacklevel=2,
            )
        self.h_d = h_d
        self.v = v[nonzero]
        self.v.flags.writeable = False

    @property
    def n(self) -> int:
        return int(self.v.size)

    def element_angles(self) -> np.ndarray:
        """Arguments of the v_n, reduced to [0, 2*pi)."""
        return wrap_angles(np.angle(self.v))

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "h_d": {"re": self.h_d.real, "im": self.h_d.imag},
            "v": [{"re": z.real, "im": z.imag} for z in self.v],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ChannelRealization":
        check_schema(doc, "realization")
        check_json_keys(doc, "realization", ("schema_version", "h_d", "v"))
        h_d = _complex_from_json(doc["h_d"], "h_d")
        v = [_complex_from_json(e, f"v[{i}]")
             for i, e in enumerate(json_list(doc["v"], "v"))]
        return cls(h_d, v)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "ChannelRealization":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def check_schema(doc, what: str, version: int = SCHEMA_VERSION) -> None:
    """Raise ValueError unless doc is a JSON object of the schema version."""
    found = json_object(doc, what).get("schema_version")
    if found != version:
        raise ValueError(f"unsupported {what} schema_version {found!r}")


def check_json_keys(doc, what: str, required: Sequence[str],
                    optional: Sequence[str] = ()) -> None:
    """Raise ValueError naming any unknown or missing key of a JSON object."""
    unknown = sorted(set(json_object(doc, what)) - set(required)
                     - set(optional))
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"expected a subset of {', '.join((*required, *optional))}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")


def json_number(value, what: str) -> float:
    """A JSON number as a float; anything else raises ValueError naming it."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def json_int(value, what: str) -> int:
    """A JSON integer; a bool or any other number raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_object(value, what: str) -> dict:
    """A JSON object; anything else raises ValueError naming it."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def json_list(value, what: str) -> list:
    """A JSON array; anything else raises ValueError naming it."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return value


def json_numbers(value, what: str) -> list:
    """A JSON array of numbers as floats; ValueError names a bad entry."""
    return [json_number(x, f"{what}[{i}]")
            for i, x in enumerate(json_list(value, what))]


def _complex_from_json(doc, what: str) -> complex:
    check_json_keys(doc, what, ("re", "im"))
    return complex(json_number(doc["re"], f"{what}.re"),
                   json_number(doc["im"], f"{what}.im"))


def f_vector(v_n: complex, phase_set: PhaseShiftSet, i: int) -> complex:
    """Candidate contribution of an element applying phase index i.

    Rotates v_n counterclockwise by the i-th phase shift; the amplitude is
    preserved.

    Args:
        v_n: concatenated channel coefficient of the element.
        phase_set: available phase shifts.
        i: 1-based phase index.

    Raises:
        IndexError: if i is outside 1..K.
    """
    return complex(v_n) * unit_from_arg(phase_set.phase_of(i))


def realize_g(v_n: complex, phase_set: PhaseShiftSet, choice: int) -> complex:
    """Contribution of one element under a choice: 0j if off, else f_vector."""
    if choice == OFF:
        return 0j
    return f_vector(v_n, phase_set, choice)


def overall_h(real: ChannelRealization, phase_set: PhaseShiftSet,
              config: Sequence[int]) -> complex:
    """Overall channel: direct path plus every element's contribution.

    Bit-identical to adding realize_g of each element in turn: the
    products are formed in the same real arithmetic as Python's complex
    multiply, and a cumulative sum adds them in element order.

    Args:
        config: per-element choices, length real.n.

    Raises:
        ValueError: on a length mismatch.
        IndexError: on a choice outside 0..K.
    """
    config = np.asarray(config, dtype=int)
    if config.shape != (real.n,):
        raise ValueError(f"config length {config.size} != {real.n} elements")
    if real.n == 0:
        return real.h_d
    bad = config[(config < OFF) | (config > phase_set.k)]
    if bad.size:
        raise IndexError(
            f"phase index {int(bad[0])} out of range 1..{phase_set.k}")
    units = np.array([0j] + [unit_from_arg(p) for p in phase_set.phases])
    u = units[config]
    a, b = real.v.real, real.v.imag
    c, d = u.real, u.imag
    on = config != OFF
    terms = np.empty(real.n + 1, dtype=complex)
    terms[0] = real.h_d
    terms[1:].real = np.where(on, a * c - b * d, 0.0)
    terms[1:].imag = np.where(on, a * d + b * c, 0.0)
    return complex(np.cumsum(terms)[-1])


def sample_realization(budget: LinkBudget, n: int, rng_seed: SeedLike) -> ChannelRealization:
    """Draw a random channel realization.

    Every |v_n| equals the budget's element amplitude, with arguments
    i.i.d. uniform on [0, 2*pi); the direct path has the budget's direct
    amplitude and argument 0.  Deterministic given (budget, n, rng_seed);
    pass a (master_seed, trial_index) tuple to derive independent
    per-trial streams.
    """
    if n < 0:
        raise ValueError("element count must be non-negative")
    rng = np.random.default_rng(rng_seed)
    angles = rng.uniform(0.0, TWO_PI, size=n)
    v = budget.element_amplitude * np.exp(1j * angles)
    return ChannelRealization(complex(budget.direct_amplitude, 0.0), v)
