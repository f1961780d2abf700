"""Channel model: phase-shift sets, link budgets, random realizations.

An RIS element either reflects with unit amplitude at one of K discrete
phase shifts or is switched off.  Per-element choices are plain ints:
``OFF`` (0) or the 1-based index of the applied phase shift.  The overall
channel is the direct path plus the per-element contributions, all carried
as complex numbers.
"""

import functools
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Sequence, Tuple, Union

import numpy as np

from .geometry import TWO_PI, unit_from_arg, wrap_angles

SCHEMA_VERSION = 1

# Element choice encoding: 0 = element off, i >= 1 = phase index i applied.
OFF = 0

SeedLike = Union[int, Sequence[int], Tuple[int, range]]


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
        for field in fields(self):
            if not np.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        # Each dB value, and the two hops together, must have a linear
        # value that neither rounds to 0 nor overflows.
        for name, db, per in (
                ("gain_tx_ris_db", self.gain_tx_ris_db, 20.0),
                ("gain_ris_rx_db", self.gain_ris_rx_db, 20.0),
                ("gain_tx_ris_db + gain_ris_rx_db",
                 self.gain_tx_ris_db + self.gain_ris_rx_db, 20.0),
                ("gain_direct_db", self.gain_direct_db, 20.0),
                ("snr_budget_db", self.snr_budget_db, 10.0)):
            try:
                linear = 10.0 ** (db / per)
            except OverflowError:
                linear = math.inf
            if not 0.0 < linear < math.inf:
                raise ValueError(f"{name} = {db!r} dB is out of range: "
                                 f"10^(dB/{per:g}) is {linear!r}")

    @property
    def element_amplitude(self) -> float:
        """|v_n| implied by the two hop gains."""
        return 10.0 ** ((self.gain_tx_ris_db + self.gain_ris_rx_db) / 20.0)

    @property
    def direct_amplitude(self) -> float:
        """|h_d| implied by the direct-path gain."""
        return 10.0 ** (self.gain_direct_db / 20.0)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "LinkBudget":
        keys = [field.name for field in fields(cls)]
        check_json_keys(doc, "budget", keys)
        return cls(**{k: json_number(doc[k], f"budget.{k}") for k in keys})


class ChannelRealization:
    """One draw of the channel: direct path plus per-element coefficients.

    Kept as the one-row RealizationBatch, which checks the values; h_d is
    a complex and v a read-only view of the row.
    """

    def __init__(self, h_d: complex, v: Sequence[complex]):
        self._batch = RealizationBatch(
            np.array([complex(h_d)]),
            np.atleast_1d(np.asarray(v, dtype=complex))[None])
        self.h_d = complex(self._batch.h_d[0])
        self.v = self._batch.v[0]

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


@dataclass(frozen=True)
class RealizationBatch:
    """T realizations of N elements each, solved as one block.

    Row t is one realization: direct path h_d[t], elements v[t].  Both
    arrays are read-only copies.  The solvers, overall_h and the analysis
    take a batch wherever they take a ChannelRealization and return their
    fields with a leading trials axis; each row equals the single call bit
    for bit.  A fault raises ValueError, naming the row when T > 1.

    Attributes:
        h_d: (T,) direct paths, finite.
        v: (T, N) element coefficients, finite and nonzero (a zero one has
            no argument); each row's bound |h_d| + sum |v_n|, above every
            candidate |h|, is finite.
    """

    h_d: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        h_d = np.array(self.h_d, dtype=complex)
        v = np.array(self.v, dtype=complex)
        if h_d.ndim != 1 or v.ndim != 2 or v.shape[0] != h_d.size:
            raise ValueError(f"need h_d of shape (T,) and v of shape (T, N), "
                             f"got {h_d.shape} and {v.shape}")
        with np.errstate(over="ignore"):
            amp = np.abs(v)  # NaN or infinite for a NaN or infinite part
            bound = np.hypot(h_d.real, h_d.imag) + amp.sum(axis=1)
        if not (np.isfinite(bound).all() and amp.min(initial=np.inf) > 0.0):
            t = int(np.flatnonzero(~np.isfinite(bound) | ~amp.all(axis=1))[0])
            row = f"row {t}: " if h_d.size > 1 else ""
            if not np.isfinite(h_d[t]):
                raise ValueError(f"{row}direct path h_d must be finite, "
                                 f"got {complex(h_d[t])}")
            bad = np.flatnonzero(~np.isfinite(v[t]))
            if bad.size:
                raise ValueError(
                    f"{row}element coefficients must be finite: {bad.size} "
                    f"non-finite, the first at index {int(bad[0])} "
                    f"({v[t, bad[0]]})")
            if not np.isfinite(bound[t]):  # finite parts, an overflowing sum
                raise ValueError(f"{row}the amplitude bound |h_d| + sum "
                                 f"|v_n| must be finite, got {bound[t]}")
            zero = np.flatnonzero(amp[t] == 0.0)
            raise ValueError(f"{row}element coefficients must be nonzero: "
                             f"{zero.size} zero, the first at index {zero[0]}")
        h_d.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "h_d", h_d)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        """Elements per trial."""
        return int(self.v.shape[1])

    @property
    def trials(self) -> int:
        return int(self.v.shape[0])

    def element_angles(self) -> np.ndarray:
        """Arguments of the v, reduced to [0, 2*pi); shape (T, N)."""
        return wrap_angles(np.angle(self.v))


def as_batch(real) -> Tuple[RealizationBatch, bool]:
    """(batch, single): a realization's one-row batch, a batch as is."""
    if isinstance(real, RealizationBatch):
        return real, False
    return real._batch, True


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


def json_bool(value, what: str) -> bool:
    """A JSON true/false; anything else raises ValueError naming it."""
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def json_str(value, what: str) -> str:
    """A JSON string; anything else raises ValueError naming it."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
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


def overall_h(real, phase_set: PhaseShiftSet, config):
    """Overall channel: direct path plus every element's contribution.

    Bit-identical to adding each element's scalar contribution in turn
    (realize_g in tests/scalar_reference.py): the products are formed in
    the same real arithmetic as Python's complex multiply, and a
    cumulative sum adds them in element order.

    Args:
        real: a ChannelRealization, or a RealizationBatch (then config
            has shape (T, N) and the result is a (T,) array).
        config: per-element choices, length real.n.

    Raises:
        ValueError: on a length mismatch.
        IndexError: on a choice outside 0..K.
    """
    batch, single = as_batch(real)
    config = np.asarray(config, dtype=int)
    shape = batch.v.shape[1:] if single else batch.v.shape
    if config.shape != shape:
        raise ValueError(f"config shape {config.shape} != {shape}: "
                         f"{batch.n} elements per trial")
    bad = config[(config < OFF) | (config > phase_set.k)]
    if bad.size:
        raise IndexError(
            f"phase index {int(bad[0])} out of range 1..{phase_set.k}")
    units = np.array([0j] + [unit_from_arg(p) for p in phase_set.phases])
    config = config.reshape(batch.v.shape)
    u = units[config]
    a, b = batch.v.real, batch.v.imag
    c, d = u.real, u.imag
    on = config != OFF
    terms = np.empty((batch.trials, batch.n + 1), dtype=complex)
    terms[:, 0] = batch.h_d
    terms[:, 1:].real = np.where(on, a * c - b * d, 0.0)
    terms[:, 1:].imag = np.where(on, a * d + b * c, 0.0)
    h = np.cumsum(terms, axis=1)[:, -1]
    return complex(h[0]) if single else h


def sample_realization(budget: LinkBudget, n: int, rng_seed: SeedLike
                       ) -> Union[ChannelRealization, RealizationBatch]:
    """Draw a random channel realization, or a block of them.

    Every |v_n| equals the budget's element amplitude, with arguments
    i.i.d. uniform on [0, 2*pi); the direct path has the budget's direct
    amplitude and argument 0.  Deterministic given (budget, n, rng_seed);
    pass a (master_seed, trial_index) tuple to derive independent
    per-trial streams.

    With rng_seed = (master_seed, trials) and trials a range, the result
    is a RealizationBatch whose row i is bit-identical to
    sample_realization(budget, n, (master_seed, trials[i])).  The block
    replays NumPy's SeedSequence and PCG64 for all its trials at once.

    Raises:
        ValueError: for a negative n; for a block, for a negative seed or
            a trial index outside 0..2**32 - 1.
    """
    if n < 0:
        raise ValueError("element count must be non-negative")
    block = (isinstance(rng_seed, tuple) and len(rng_seed) == 2
             and isinstance(rng_seed[1], range))
    if block:
        angles = _uniform_angles(*rng_seed, n)
    else:
        angles = np.random.default_rng(rng_seed).uniform(0.0, TWO_PI, size=n)
    v = budget.element_amplitude * np.exp(1j * angles)
    h_d = complex(budget.direct_amplitude, 0.0)
    if block:
        return RealizationBatch(np.full(len(v), h_d), v)
    return ChannelRealization(h_d, v)


# --- the block sampler ----------------------------------------------------
#
# default_rng((seed, t)) seeds PCG64 from SeedSequence((seed, t)); the
# helpers below replay both for a whole vector of trial indices t, in
# uint32 (SeedSequence) and uint64 hi/lo pairs (the 128-bit PCG64 state).
# Every op acts on arrays, which wrap modulo 2**32 or 2**64 silently.
# The draws use PCG's XSL-RR output (O'Neill, "PCG: A Family of Simple
# Fast Space-Efficient Statistically Good Algorithms for Random Number
# Generation", 2014), and every stream jumps straight to its n states by
# the closed form of the LCG (F. B. Brown, "Random Number Generation with
# Arbitrary Strides", 1994).

_U32 = np.uint32
_U64 = np.uint64
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL = 4  # SeedSequence pool words
# SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
# PCG64's LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _hash_consts(init: int, mult: int, calls: int):
    """(xor, mul) constants of `calls` successive hash steps, as (calls, 1).

    Step k xors with init * mult**k and multiplies by init * mult**(k+1);
    the constants do not depend on the hashed data.
    """
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=_U32)[:, None]
    h.flags.writeable = False
    return h[:-1], h[1:]


def _hash(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ (value >> _U32(16))


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _U32(16))


@functools.lru_cache(maxsize=16)
def _entropy_consts(words: int):
    """mix_entropy's hash constants for an entropy of `words` uint32 words."""
    calls = _POOL * _POOL + _POOL * max(0, words - _POOL)
    return _hash_consts(_INIT_A, _MULT_A, calls)


_STATE_XOR, _STATE_MUL = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
_STATE_SRC = np.arange(2 * _POOL) % _POOL  # generate_state cycles the pool
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]


def _seed_words(seed) -> list:
    """SeedSequence's uint32 words of a non-negative int, low word first."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or (
            seed < 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def _trial_words(trials: range) -> np.ndarray:
    """The trial indices as uint32; each must fit one SeedSequence word."""
    if not trials:
        return np.empty(0, dtype=_U32)
    first, last = trials[0], trials[-1]
    for t in (first, last):
        if not 0 <= t <= _MASK32:
            raise ValueError(f"trials must lie in 0..{_MASK32}, got index {t}")
    step = trials.step if len(trials) > 1 else 1
    return np.arange(first, last + (1 if step > 0 else -1), step,
                     dtype=np.int64).astype(_U32)


def _pcg_seeds(seed, trials: range):
    """(a_hi, a_lo, inc_hi, inc_lo): each trial's PCG64 stream, as (T, 1).

    inc is the stream's odd increment and a = initstate + inc, so that
    PCG64's seeded state is a * M + inc and its j-th state (the one the
    j-th draw outputs) is M**(j+1) * a + C_(j+1) * inc, with
    C_j = sum of M**i over i < j.
    """
    seed_words = _seed_words(seed)
    t = _trial_words(trials)
    words = len(seed_words) + 1
    entropy = np.empty((words, t.size), dtype=_U32)
    entropy[:-1] = np.array(seed_words, dtype=_U32)[:, None]
    entropy[-1] = t
    xor, mul = _entropy_consts(words)
    # SeedSequence.mix_entropy: hash the entropy into the pool, zeros past it
    pool = np.zeros((_POOL, t.size), dtype=_U32)
    pool[:min(words, _POOL)] = entropy[:_POOL]
    pool = _hash(pool, xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src in range(_POOL):  # every word into the three others
        dst = _OTHERS[src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k:k + 3],
                                          mul[k:k + 3]))
        k += 3
    for src in range(_POOL, words):  # entropy beyond the pool, into each word
        pool = _mix(pool, _hash(entropy[src], xor[k:k + _POOL],
                                mul[k:k + _POOL]))
        k += _POOL
    # generate_state(4, uint64): eight hashed words, paired low word first
    state = _hash(pool[_STATE_SRC], _STATE_XOR, _STATE_MUL).astype(_U64)
    seed_hi, seed_lo, seq_hi, seq_lo = state[0::2] | (state[1::2] << _U64(32))
    # pcg64_set_seed: the first word is the high half; inc = (seq << 1) | 1
    inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
    inc_lo = (seq_lo << _U64(1)) | _U64(1)
    a_hi, a_lo = _add128(seed_hi, seed_lo, inc_hi, inc_lo)
    return a_hi[:, None], a_lo[:, None], inc_hi[:, None], inc_lo[:, None]


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _limbs(x):
    return x & _U64(_MASK32), x >> _U64(32)


def _mul128(x_hi, x_lo, k):
    """x * K modulo 2**128, K a _jump_table entry: (hi, lo, lo limbs)."""
    k_hi, k_lo, (k0, k1) = k
    x0, x1 = _limbs(x_lo)
    # the high word of x_lo * k_lo, from 32-bit limbs
    p01, p10 = x0 * k1, x1 * k0
    mid = ((x0 * k0) >> _U64(32)) + (p01 & _U64(_MASK32)) + (
        p10 & _U64(_MASK32))
    carry = x1 * k1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    return carry + x_lo * k_hi + x_hi * k_lo, x_lo * k_lo


@functools.lru_cache(maxsize=16)
def _jump_table(n: int):
    """M**j and C_j for j = 2..n+1, each as (hi, lo, lo limbs) of shape (n,)."""
    m_pows, c_sums = [], []
    m, c = _PCG_MULT, 1  # M**1 and C_1
    for _ in range(n):
        c = (c + m) & _MASK128
        m = m * _PCG_MULT & _MASK128
        m_pows.append(m)
        c_sums.append(c)

    def split(xs):  # read-only: the cache hands them to every caller
        hi = np.array([x >> 64 for x in xs], dtype=_U64)
        lo = np.array([x & _MASK64 for x in xs], dtype=_U64)
        parts = (hi, lo, *_limbs(lo))
        for part in parts:
            part.flags.writeable = False
        return parts[:2] + (parts[2:],)

    return split(m_pows), split(c_sums)


def _uniform_angles(seed, trials: range, n: int) -> np.ndarray:
    """(T, n) angles; row i is default_rng((seed, trials[i])).uniform(0, 2*pi, n)."""
    a_hi, a_lo, inc_hi, inc_lo = _pcg_seeds(seed, trials)
    m, c = _jump_table(n)
    hi, lo = _add128(*_mul128(a_hi, a_lo, m), *_mul128(inc_hi, inc_lo, c))
    # PCG64's XSL-RR output: hi ^ lo rotated right by the top six bits
    x, rot = hi ^ lo, hi >> _U64(58)
    x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    # random_uniform: low + (high - low) * next_double, with low = 0
    return TWO_PI * ((x >> _U64(11)) * (1.0 / 9007199254740992.0))
