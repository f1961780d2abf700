"""The block sampler: a range of trials drawn at once, bit for bit.

sample_realization(budget, n, (seed, trials)) draws the range's angles
either by replaying NumPy's SeedSequence and PCG64 for every trial of the
range together or by one default_rng((seed, t)) per trial, whichever its
trial count makes cheaper.  These tests pin the replay kernel and both
paths to default_rng((seed, t)) and to the one-trial call, over seeds that
take one to five entropy words, pin the choice of path on both sides of
its threshold, pin a draw at n to the first n elements of a larger draw,
and pin every preset's CSV to digests taken from the one-trial sampler.
"""

import hashlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_dps import LinkBudget, RealizationBatch, channel, sample_realization
from ris_dps.channel import (_REPLAY_MIN_TRIALS, _seed_words, _trial_words,
                             _uniform_angles)
from ris_dps.experiments import (builtin_scenarios, run_scenario,
                                 write_rows_csv)

TWO_PI = 2.0 * math.pi
LAST_TRIAL = 2 ** 32 - 1
BUDGET = LinkBudget(-80.0, -60.0, -140.0, 100.0)

#: 0, 1, 2, 3 and 4 seed words; 2**96 + 3 runs SeedSequence's extra mixing.
SEEDS = st.one_of(
    st.sampled_from((0, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32, 2 ** 64,
                     2 ** 96 + 3)),
    st.integers(0, 2 ** 130))


@st.composite
def trial_ranges(draw):
    """A range of trial indices within 0..2**32 - 1, of any step."""
    start = draw(st.one_of(st.integers(0, 30), st.integers(0, LAST_TRIAL),
                           st.integers(LAST_TRIAL - 30, LAST_TRIAL)))
    step = draw(st.one_of(st.integers(-9, 9).filter(bool),
                          st.sampled_from((1000003, -2 ** 31, 2 ** 31))))
    room = (LAST_TRIAL - start) // step if step > 0 else start // -step
    empty = draw(st.integers(0, 9)) == 0
    count = 0 if empty else draw(st.integers(1, min(20, room + 1)))
    sign = 1 if step > 0 else -1
    # any stop past the last index that falls short of the next one
    past = draw(st.integers(0, abs(step) - 1))
    last = start + (count - 1) * step
    stop = last + sign * (1 + past) if count else start - sign * past
    return range(start, stop, step)


#: Element counts up to 300, with a few small ones sampled often.
SIZES = st.one_of(st.sampled_from((0, 1, 2, 50)), st.integers(0, 300))


@settings(max_examples=200, deadline=None)
@given(SEEDS, trial_ranges(), SIZES)
def test_block_replays_default_rng(seed, trials, n):
    angles = _uniform_angles(_seed_words(seed), _trial_words(trials), n)
    assert angles.shape == (len(trials), n)
    for row, t in zip(angles, trials):
        ref = np.random.default_rng((seed, t)).uniform(0.0, TWO_PI, n)
        assert row.tobytes() == ref.tobytes()
    batch = sample_realization(BUDGET, n, (seed, trials))
    assert isinstance(batch, RealizationBatch)
    assert batch.v.shape == (len(trials), n)
    for h_d, v, t in zip(batch.h_d, batch.v, trials):
        one = sample_realization(BUDGET, n, (seed, t))
        assert np.asarray(one.h_d).tobytes() == h_d.tobytes()
        assert one.v.tobytes() == v.tobytes()


@pytest.mark.parametrize("count, n", [
    (_REPLAY_MIN_TRIALS - 1, 0), (_REPLAY_MIN_TRIALS, 0),
    (_REPLAY_MIN_TRIALS - 1, 50), (_REPLAY_MIN_TRIALS, 50),
    (_REPLAY_MIN_TRIALS - 1, 300), (_REPLAY_MIN_TRIALS, 300), (100, 300)])
def test_each_path_draws_default_rng_rows(count, n, monkeypatch):
    replays = []

    def replay(*args):
        replays.append(args[2])
        return _uniform_angles(*args)

    monkeypatch.setattr(channel, "_uniform_angles", replay)
    seed, trials = 2 ** 64 + 9, range(2 ** 32 - 1, 2 ** 32 - 1 - 3 * count, -3)
    batch = sample_realization(BUDGET, n, (seed, trials))
    assert replays == ([n] if count >= _REPLAY_MIN_TRIALS else [])
    assert batch.v.shape == (count, n)
    ref = [np.random.default_rng((seed, t)).uniform(0.0, TWO_PI, n)
           for t in trials]
    amp = BUDGET.element_amplitude
    assert batch.v.tobytes() == (amp * np.exp(1j * np.array(ref))).tobytes()


@settings(max_examples=100, deadline=None)
@given(SEEDS, trial_ranges(), st.integers(0, 60), st.data())
def test_a_draw_at_n_is_a_prefix_of_a_larger_draw(seed, trials, big, data):
    n = data.draw(st.one_of(st.just(0), st.integers(0, big)))
    block = sample_realization(BUDGET, big, (seed, trials)).v
    assert (sample_realization(BUDGET, n, (seed, trials)).v.tobytes()
            == block[:, :n].tobytes())
    for rng_seed in [seed] + [(seed, t) for t in trials[:2]]:
        one = sample_realization(BUDGET, big, rng_seed).v
        assert (sample_realization(BUDGET, n, rng_seed).v.tobytes()
                == one[:n].tobytes())


def test_block_refuses_what_one_seed_word_cannot_hold():
    # the ranges of 3 or 4 trials take default_rng, those of 20 or more
    # the replay, and range(2 ** 70) is too long for len()
    for trials in (range(LAST_TRIAL - 1, LAST_TRIAL + 2), range(2 ** 40, 0, -1),
                   range(-1, 3), range(LAST_TRIAL - 20, LAST_TRIAL + 2),
                   range(-1, 20), range(2 ** 32 + 40, 2 ** 32, -1),
                   range(2 ** 70)):
        with pytest.raises(ValueError, match=r"trials must lie in "
                                             r"0\.\.4294967295, got index"):
            sample_realization(BUDGET, 4, (7, trials))
    for seed in (-1, True, 2.0):
        for trials in (range(3), range(20)):
            with pytest.raises(ValueError, match="seed must be a "
                                                 "non-negative integer"):
                sample_realization(BUDGET, 4, (seed, trials))
    assert sample_realization(BUDGET, 4, (7, range(0))).v.shape == (0, 4)


#: SHA-256 of each curve preset's CSV at 100 trials (and of fig13 at two
#: seeds of several words), as the one-trial-at-a-time sampler wrote them.
DIGESTS = {
    ("fig9", None): "9959a28f0d1d090c9d5d24d49b9131f2f2e695e512b385c60da5bd04e57bc1f2",
    ("fig10", None): "ddefd37286e8e68d3245b82ccb5d331a701be06ff5bd01ad200cbceb9fecd8cc",
    ("fig11", None): "7f1b29be3a7c784210556935a757cb106776eb7c457422609b689b75e8a3b95d",
    ("fig12", None): "5b2d8c5e900f0d177adf2f80e5d49083323bb8a8193ba5ec9b6efedc2953194e",
    ("fig13", None): "f9468b3ba0fe384ae83d04c9c0977cd45f868ad363a98000920d16275894b873",
    ("fig15_k2", None): "f50bc456832fbc8a68c928d8fc55e8d361b274fe13e9b089c6c4be76add3e588",
    ("fig15_k3", None): "ce853eb5196152ed084e2d01167abcd2a5af76b56cad0854f334202ee581db38",
    ("fig13", 2 ** 32): "d0f508c0a6a6e597f5f2d9c84011c49f31ff42765acc050fc16ee4ea3faebb93",
    ("fig13", 2 ** 64): "8153a1361e51141fff7fa23f0cf2d656c0be27564e1fd5b9311ed7d75e06b937",
}


def test_preset_csv_digests():
    presets = {s.name: s for s in builtin_scenarios()}
    assert {name for name, _ in DIGESTS} == {
        s.name for s in presets.values() if s.mode == "curve"}
    for (name, seed), digest in DIGESTS.items():
        scenario = replace(presets[name], trials=100)
        if seed is not None:
            scenario = replace(scenario, seed=seed)
        buf = io.StringIO()
        write_rows_csv(scenario, run_scenario(scenario), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, (
            name, seed)
