import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from risra import power_metrics as pm
from oracles import energy_efficiency

STATIC_9_DBW = 7.943282347242815


def table_params(**overrides):
    values = dict(
        ap_pa_inverse_eff=1.2,
        ap_tx_power_w=0.1,
        ap_static_w=STATIC_9_DBW,
        mtd_pa_inverse_eff=1.2,
        mtd_static_w=0.04,
        phase_shifter_w=0.0015,
    )
    values.update(overrides)
    return pm.PowerParams(**values)


def timing(slots=20, r=0.2, t_as=1.0):
    return pm.FrameTiming(access_slot_s=t_as, training_ratio=r, slots=slots)


def frame_power(counts, params=None, tx_power_w=0.01):
    """Power of one trained frame on a 100-element surface with these replica counts."""
    power, _g = pm.frame_metrics(
        params or table_params(), timing(), 100, tx_power_w, np.array(counts, dtype=int), 0, True
    )
    return float(power)


class TestPowerParams:
    def test_takes_no_transmit_power(self):
        # a device's PA is charged for the power that sets its SNR, which
        # RadioParams alone holds and frame_metrics is given
        assert "mtd_tx_power_w" not in {field.name for field in dataclasses.fields(pm.PowerParams)}
        with pytest.raises(TypeError):
            table_params(mtd_tx_power_w=0.01)


class TestApPower:
    def test_training_spot_value(self):
        # 20 slots of 100 mW through a 1/1.2 efficient PA plus the 9 dBW floor
        assert pm.ap_power(table_params(), 20, True) == pytest.approx(
            2.4 + STATIC_9_DBW, rel=1e-9
        )

    def test_no_training_is_static_floor(self):
        assert pm.ap_power(table_params(), 20, False) == STATIC_9_DBW

    def test_zero_slots_degenerates_to_static(self):
        assert pm.ap_power(table_params(), 0, True) == STATIC_9_DBW

    def test_increasing_in_slots(self):
        values = [pm.ap_power(table_params(), s, True) for s in range(1, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestRisPower:
    def test_table_spot_value(self):
        assert pm.ris_power(100, 0.0015) == pytest.approx(0.15, rel=1e-12)

    def test_single_element(self):
        assert pm.ris_power(1, 0.0015) == 0.0015

    def test_linear_in_elements(self):
        assert pm.ris_power(200, 0.0015) == pytest.approx(2 * pm.ris_power(100, 0.0015))

    def test_rejects_empty_surface(self):
        with pytest.raises(ValueError):
            pm.ris_power(0, 0.0015)


class TestMtdPower:
    def test_two_replica_spot_value(self):
        assert frame_power([2]) - frame_power([]) == pytest.approx(0.064, rel=1e-12)

    def test_each_replica_adds_one_pa_term(self):
        assert frame_power([2]) - frame_power([1]) == pytest.approx(1.2 * 0.01, rel=1e-9)

    def test_vanishing_tx_power_leaves_static(self):
        replica_and_static = frame_power([1], tx_power_w=1e-12) - frame_power([], tx_power_w=1e-12)
        assert replica_and_static == pytest.approx(0.04, rel=1e-9)

    def test_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            frame_power([2, 0])


class TestTotalPower:
    def test_no_devices(self):
        assert frame_power([]) == pytest.approx(2.4 + STATIC_9_DBW + 0.15, rel=1e-12)

    def test_table_composition(self):
        total = frame_power([2] * 10)
        assert total == pytest.approx(2.4 + STATIC_9_DBW + 0.15 + 0.64, rel=1e-9)

    def test_order_independent(self):
        counts = [2, 1, 3, 2, 5]
        assert frame_power(counts) == frame_power(counts[::-1])


class TestThroughput:
    def test_table_spot_value(self):
        assert pm.throughput(10, timing(), True) == pytest.approx(10 / 24, rel=1e-12)

    def test_zero_successes(self):
        assert pm.throughput(0, timing(), True) == 0.0

    def test_no_training_drops_the_ratio(self):
        assert pm.throughput(10, timing(), False) == pytest.approx(0.5, rel=1e-12)

    def test_upper_bound_in_device_count(self):
        t = timing(slots=15, r=0.2)
        for a in range(0, 12):
            assert pm.throughput(a, t, True) <= pm.throughput(12, t, True)


class TestEnergyEfficiency:
    def test_zero_throughput(self):
        assert energy_efficiency(0.0, 5.0) == 0.0

    def test_table_spot_value(self):
        g = 10 / 24
        p = 2.4 + STATIC_9_DBW + 0.15 + 0.64
        assert energy_efficiency(g, p) == pytest.approx(0.03742532109318643, rel=1e-12)

    def test_linear_in_throughput(self):
        assert energy_efficiency(0.4, 8.0) == pytest.approx(
            2 * energy_efficiency(0.2, 8.0)
        )

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            energy_efficiency(1.0, 0.0)


class TestFrameMetrics:
    def test_matches_individual_operations(self):
        # two frames in one batch, each against the README formula
        params = table_params()
        t = timing()
        counts = np.array([[2, 1, 3, 2], [1, 1, 1, 4]])
        successes = np.array([3, 0])
        power, g = pm.frame_metrics(params, t, 100, 0.01, counts, successes, True)
        for row, a, p_frame, g_frame in zip(counts, successes, power, g):
            expected = pm.ap_power(params, 20, True) + pm.ris_power(100, 0.0015) + sum(
                int(c) * 1.2 * 0.01 + 0.04 for c in row
            )
            assert p_frame == pytest.approx(expected, rel=1e-12)
            assert g_frame == pm.throughput(int(a), t, True)
            assert energy_efficiency(g_frame, p_frame) * p_frame == pytest.approx(
                g_frame, rel=1e-12
            )

    def test_training_charges_power_and_lengthens_the_frame(self):
        # one flag: a frame that runs the training block pays the AP's training
        # transmissions and the block's time; a frame without it pays neither
        params = table_params()
        t = timing()
        counts = np.array([2, 2])
        p_trained, g_trained = pm.frame_metrics(params, t, 100, 0.01, counts, 2, True)
        p_untrained, g_untrained = pm.frame_metrics(params, t, 100, 0.01, counts, 2, False)
        assert p_trained - p_untrained == pytest.approx(2.4, rel=1e-9)
        assert g_trained == pm.throughput(2, t, True)
        assert g_untrained == pm.throughput(2, t, False)

    @given(
        st.integers(1, 40),
        st.integers(0, 12),
        st.floats(0.0, 1.0),
    )
    def test_throughput_bound_and_ee_identity(self, slots, successes, r):
        params = table_params()
        t = timing(slots=slots, r=r)
        power, g = pm.frame_metrics(params, t, 64, 0.01, np.full(12, 2), successes, True)
        bound = 12 / ((1.0 + r) * slots * 1.0)
        assert g <= bound + 1e-15
        assert energy_efficiency(g, power) * power == pytest.approx(g, rel=1e-12)

    def test_power_strictly_increasing_in_replicas(self):
        assert frame_power([2, 1]) > frame_power([1, 1])
