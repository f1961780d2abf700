import json
import math

import numpy as np
import pytest

from scalar_reference import f_vector, phase_of, realize_g
from ris_dps import (OFF, ChannelRealization, LinkBudget, PhaseShiftSet,
                     overall_h, sample_realization)

PI = math.pi


def test_phase_set_validation():
    with pytest.raises(ValueError):
        PhaseShiftSet(())
    with pytest.raises(ValueError):
        PhaseShiftSet((0.0, 0.0))
    with pytest.raises(ValueError):
        PhaseShiftSet((1.0, 0.5))
    with pytest.raises(ValueError):
        PhaseShiftSet((0.0, 2 * PI))
    with pytest.raises(ValueError):
        PhaseShiftSet((-0.1, 1.0))
    ps = PhaseShiftSet((0.0, PI / 2))
    assert ps.k == 2


def test_phase_set_gaps_sum_to_circle():
    ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
    gaps = ps.cyclic_gaps()
    assert gaps == pytest.approx([2 * PI / 3, 4 * PI / 3])
    assert gaps.sum() == pytest.approx(2 * PI)


def test_phase_set_builders():
    assert PhaseShiftSet.uniform(3).phases == pytest.approx(
        (0.0, 2 * PI / 3, 4 * PI / 3))
    assert PhaseShiftSet.from_gaps((PI / 2, PI / 2)).phases == pytest.approx(
        (0.0, PI / 2, PI))


def test_phase_of_bounds():
    ps = PhaseShiftSet((0.1, 0.2))
    assert phase_of(ps, 2) == 0.2
    with pytest.raises(IndexError):
        phase_of(ps, 0)
    with pytest.raises(IndexError):
        phase_of(ps, 3)


def test_f_vector_examples():
    ps = PhaseShiftSet((PI / 2, 5 * PI / 6, PI))
    quarter = PhaseShiftSet((PI / 2,))
    assert f_vector(1 + 0j, quarter, 1) == pytest.approx(1j)
    half = PhaseShiftSet((PI,))
    assert f_vector(1j, half, 1) == pytest.approx(-1j)
    z = 2.0 * np.exp(0.3j)
    rot = f_vector(z, PhaseShiftSet((PI / 6,)), 1)
    assert np.angle(rot) == pytest.approx(0.3 + PI / 6)
    assert abs(rot) == pytest.approx(abs(z))
    with pytest.raises(IndexError):
        f_vector(1 + 0j, ps, 4)


def test_rotation_preserves_amplitude_exactly():
    rng = np.random.default_rng(3)
    ps = PhaseShiftSet(np.sort(rng.uniform(0, 2 * PI, 4)))
    for _ in range(50):
        z = rng.uniform(0.1, 5) * np.exp(1j * rng.uniform(0, 2 * PI))
        for i in range(1, 5):
            assert abs(f_vector(z, ps, i)) == pytest.approx(abs(z), rel=1e-15)


def test_realize_g():
    ps = PhaseShiftSet((0.0, 5 * PI / 6))
    assert realize_g(3 - 2j, ps, OFF) == 0j
    assert realize_g(3 - 2j, ps, 1) == pytest.approx(3 - 2j)
    g = realize_g(1 + 0j, ps, 2)
    assert g == pytest.approx(complex(math.cos(5 * PI / 6), math.sin(5 * PI / 6)))


def test_overall_h():
    ps = PhaseShiftSet((0.0, PI / 2))
    empty = ChannelRealization(2 + 1j, [])
    assert overall_h(empty, ps, []) == 2 + 1j
    real = ChannelRealization(0j, [1 + 0j, 1 + 0j])
    assert overall_h(real, ps, [OFF, OFF]) == 0j
    assert overall_h(real, ps, [1, 2]) == pytest.approx(1 + 1j)
    with pytest.raises(ValueError):
        overall_h(real, ps, [1])


def test_overall_h_linear_in_single_flip():
    rng = np.random.default_rng(11)
    ps = PhaseShiftSet((0.3, 2.0, 4.0))
    v = rng.uniform(0.5, 2, 6) * np.exp(1j * rng.uniform(0, 2 * PI, 6))
    real = ChannelRealization(1 - 0.5j, v)
    cfg = rng.integers(0, 4, size=6)
    base = overall_h(real, ps, cfg)
    for n in range(6):
        for i in range(1, 4):
            flipped = cfg.copy()
            flipped[n] = OFF
            h_off = overall_h(real, ps, flipped)
            flipped[n] = i
            h_on = overall_h(real, ps, flipped)
            assert h_on - h_off == pytest.approx(f_vector(v[n], ps, i), rel=1e-12)


def test_link_budget_amplitudes():
    budget = LinkBudget(-80.0, -60.0, -140.0, 100.0)
    assert budget.element_amplitude == pytest.approx(1e-7)
    assert budget.direct_amplitude == pytest.approx(1e-7)
    with pytest.raises(ValueError):
        LinkBudget(0, 0, 0, 0, bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        LinkBudget(float("inf"), 0, 0, 0)


@pytest.mark.parametrize("field,db,linear", [
    ("gain_tx_ris_db", -7000.0, "0.0"),
    ("gain_ris_rx_db", 7000.0, "inf"),
    ("gain_direct_db", 7000.0, "inf"),
    ("gain_direct_db", -7000.0, "0.0"),
    ("snr_budget_db", 4000.0, "inf"),
    ("snr_budget_db", -4000.0, "0.0")])
def test_link_budget_rejects_db_beyond_the_float_range(field, db, linear):
    # amplitude 10^(dB/20) for the gains, power 10^(dB/10) for the SNR
    per = 10 if field == "snr_budget_db" else 20
    values = {"gain_tx_ris_db": -80.0, "gain_ris_rx_db": -60.0,
              "gain_direct_db": -140.0, "snr_budget_db": 100.0, field: db}
    with pytest.raises(ValueError, match=rf"{field} = {db!r} dB is out of "
                                         rf"range: 10\^\(dB/{per}\) is "
                                         rf"{linear}"):
        LinkBudget(**values)


def test_link_budget_rejects_hops_whose_product_underflows():
    # each hop alone is representable, their product is not
    with pytest.raises(ValueError, match="gain_tx_ris_db \\+ gain_ris_rx_db"):
        LinkBudget(-4000.0, -4000.0, 0.0, 0.0)
    assert LinkBudget(-3000.0, -3000.0, 0.0, 0.0).element_amplitude > 0.0


def test_sample_realization_contract():
    budget = LinkBudget(-80.0, -60.0, -140.0, 100.0)
    empty = sample_realization(budget, 0, 42)
    assert empty.n == 0
    assert empty.h_d == pytest.approx(1e-7)

    real = sample_realization(budget, 500, 42)
    assert np.abs(real.v) == pytest.approx(np.full(500, 1e-7))
    assert real.h_d.imag == 0.0
    angles = real.element_angles()
    assert angles.min() >= 0.0 and angles.max() < 2 * PI
    # crude uniformity check: quadrant counts within 5 sigma
    counts = np.histogram(angles, bins=4, range=(0, 2 * PI))[0]
    assert np.all(np.abs(counts - 125) < 5 * np.sqrt(125))


def test_sample_realization_deterministic():
    budget = LinkBudget(-80.0, -60.0, -140.0, 100.0)
    a = sample_realization(budget, 32, (7, 3))
    b = sample_realization(budget, 32, (7, 3))
    assert np.array_equal(a.v, b.v)
    c = sample_realization(budget, 32, (7, 4))
    assert not np.array_equal(a.v, c.v)


def test_zero_amplitude_elements_dropped():
    with pytest.warns(UserWarning, match="dropped 1"):
        real = ChannelRealization(1 + 0j, [1 + 1j, 0j, 2 - 1j])
    assert real.n == 2
    assert real.n_dropped == 1


def test_phase_set_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        PhaseShiftSet((math.nan,))
    with pytest.raises(ValueError, match="finite"):
        PhaseShiftSet((0.0, math.inf))


def test_nan_element_rejected_not_dropped():
    with pytest.raises(ValueError, match="finite.*index 1"):
        ChannelRealization(1, [1, complex(math.nan, 0.0)])


def test_infinite_element_rejected():
    # it used to reach sweep_optimize and come back as h_star = nan+nanj
    with pytest.raises(ValueError, match="finite"):
        ChannelRealization(1, [1 + 0j, complex(0.0, math.inf)])


def test_nan_direct_path_rejected():
    with pytest.raises(ValueError, match="h_d"):
        ChannelRealization(complex(math.nan, 0.0), [1 + 0j])
    doc = ChannelRealization(1 + 0j, [1 + 0j]).to_json()
    doc["h_d"]["im"] = math.inf
    with pytest.raises(ValueError, match="h_d"):
        ChannelRealization.from_json(doc)


def test_overall_h_matches_elementwise_sum_bit_for_bit():
    rng = np.random.default_rng(13)
    ps = PhaseShiftSet((0.3, 2.0, 4.0))
    for n in (1, 7, 50):
        v = rng.uniform(0.1, 2, n) * np.exp(1j * rng.uniform(0, 2 * PI, n))
        real = ChannelRealization(complex(rng.normal(), rng.normal()), v)
        cfg = rng.integers(0, 4, size=n)
        h = real.h_d
        for v_n, c in zip(real.v, cfg):
            h += realize_g(v_n, ps, int(c))
        assert repr(overall_h(real, ps, cfg)) == repr(h)


def test_overall_h_rejects_unknown_choice():
    real = ChannelRealization(1 + 0j, [1 + 0j, 1j])
    ps = PhaseShiftSet((0.0, PI))
    for bad in ([1, 3], [-1, 1]):
        with pytest.raises(IndexError, match="out of range"):
            overall_h(real, ps, bad)


def test_realization_json_roundtrip(tmp_path):
    real = ChannelRealization(0.5 - 0.25j, [1 + 2j, -3j])
    doc = real.to_json()
    assert doc["schema_version"] == 1
    back = ChannelRealization.from_json(json.loads(json.dumps(doc)))
    assert back.h_d == real.h_d
    assert np.array_equal(back.v, real.v)

    path = tmp_path / "real.json"
    real.save(path)
    assert np.array_equal(ChannelRealization.load(path).v, real.v)


def test_realization_json_names_missing_fields():
    doc = ChannelRealization(0.5 - 0.25j, [1 + 2j, -3j]).to_json()
    with pytest.raises(ValueError, match="realization is missing 'h_d'"):
        ChannelRealization.from_json({k: v for k, v in doc.items()
                                      if k != "h_d"})
    doc["v"][1] = {"re": 0.0}
    with pytest.raises(ValueError, match=r"v\[1\] is missing 'im'"):
        ChannelRealization.from_json(doc)


def test_realization_json_rejects_non_numbers():
    doc = ChannelRealization(0.5 - 0.25j, [1 + 2j, -3j]).to_json()
    with pytest.raises(ValueError, match="realization must be a JSON object"):
        ChannelRealization.from_json([1])
    for bad in ("x", "1", None, True, [1.0], 10 ** 400):
        broken = {**doc, "v": [doc["v"][0], {"re": 0.0, "im": bad}]}
        with pytest.raises(ValueError, match=r"v\[1\]\.im must be a number"):
            ChannelRealization.from_json(broken)
    with pytest.raises(ValueError, match="h_d.re must be a number"):
        ChannelRealization.from_json({**doc, "h_d": {"re": "x", "im": 0}})
    with pytest.raises(ValueError, match="v must be a JSON array"):
        ChannelRealization.from_json({**doc, "v": {"re": 1.0, "im": 0.0}})
    back = ChannelRealization.from_json({**doc, "h_d": {"re": 1, "im": 0}})
    assert back.h_d == 1 + 0j


def test_phase_set_json_roundtrip():
    ps = PhaseShiftSet((PI / 6, 5 * PI / 6))
    assert PhaseShiftSet.from_json(ps.to_json()).phases == ps.phases
    with pytest.raises(ValueError, match="schema_version"):
        PhaseShiftSet.from_json({"phases": [0.0]})
    with pytest.raises(ValueError, match="phase set must be a JSON object"):
        PhaseShiftSet.from_json([0.0])
    with pytest.raises(ValueError, match="phases must be a JSON array"):
        PhaseShiftSet.from_json({"schema_version": 1, "phases": 0.5})
