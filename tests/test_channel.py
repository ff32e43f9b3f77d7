import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risra import channel as ch
from oracles import loop_array_factor, where_array_factor_power, where_snr_matrix

# Frozen scalar evaluations (independent calculator runs, 30-digit arithmetic):
# two 5 dB antennas, 0.1 m square elements, hops of 20 m and 25 m, device on boresight
BORESIGHT_PATH_LOSS = 2.5330295910584443e-11
# 10 mW transmit, -94 dBm noise, aligned 10x10 surface (|array factor| = 100)
ALIGNED_SNR = 6362.682660391967
NOISE_MINUS_94_DBM = 3.9810717055349725e-13
STATIC_9_DBW = 7.943282347242815
GAIN_5_DB = 10**0.5


def make_ris(n_x=10, n_z=10, d_x=0.1, d_z=0.1, wavelength=0.1):
    return ch.RisGeometry(n_x, n_z, d_x, d_z, wavelength)


def make_ap():
    return ch.NodePlacement(20.0, GAIN_5_DB)


def make_radio(tx_power=0.01):
    return ch.RadioParams(tx_power, NOISE_MINUS_94_DBM, 1.0)


def device_snr(distance=25.0, angle=0.0, num_slots=5, radio=None, mtd_gain=GAIN_5_DB, ris=None):
    """SNR row of one device over the uniform sweep."""
    return ch.snr_matrix(
        ris or make_ris(), radio or make_radio(), make_ap(), mtd_gain,
        np.array([distance]), np.array([angle]), ch.phase_shift_set(num_slots),
    )[0]


def path_loss(distance, angle, ris=None):
    """The slot-independent factor of the SNR: SNR / (P_tx / N0 * |AF|^2) at slot 0."""
    ris = ris or make_ris()
    radio = make_radio()
    gain_sq = float(ch.array_factor_power(ris, angle, 0.0))
    snr = device_snr(distance, angle, 1, radio, ris=ris)[0]
    return snr / (radio.mtd_tx_power_w / radio.noise_power_w * gain_sq)


def reference_snr(ris, radio, distance, angle, theta_cfg):
    """README formula with the loop oracle for the array factor."""
    loss = GAIN_5_DB**2 / (4 * math.pi) ** 2 * (
        ris.d_x_m * ris.d_z_m / (20.0 * distance)) ** 2 * math.cos(angle) ** 2
    af = loop_array_factor(ris.n_x, ris.n_z, ris.d_x_m, ris.wavelength_m, angle, theta_cfg)
    return radio.mtd_tx_power_w / radio.noise_power_w * loss * abs(af) ** 2


class TestPhaseShiftSet:
    def test_five_slots(self):
        angles = ch.phase_shift_set(5)
        assert angles == pytest.approx(
            (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2), rel=1e-15
        )

    def test_two_slots_endpoints(self):
        assert ch.phase_shift_set(2) == (0.0, math.pi / 2)

    def test_single_slot_is_boresight(self):
        assert ch.phase_shift_set(1) == (0.0,)

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            ch.phase_shift_set(0)

    @given(st.integers(2, 64))
    def test_strictly_increasing_and_spans_quadrant(self, s):
        angles = ch.phase_shift_set(s)
        assert len(angles) == s
        assert angles[0] == 0.0
        assert angles[-1] == math.pi / 2
        assert all(a < b for a, b in zip(angles, angles[1:]))
        for i, a in enumerate(angles):
            assert a == pytest.approx(math.pi * i / (2 * (s - 1)), rel=1e-12, abs=1e-15)


class TestGeometryValidation:
    def test_element_larger_than_wavelength_rejected(self):
        with pytest.raises(ValueError):
            ch.RisGeometry(4, 4, 0.2, 0.1, 0.1)

    def test_zero_elements_rejected(self):
        with pytest.raises(ValueError):
            ch.RisGeometry(0, 4, 0.1, 0.1, 0.1)

    def test_derived_counts(self):
        ris = make_ris(8, 5)
        assert ris.n_elements == 40
        assert ris.wavenumber == pytest.approx(2 * math.pi / 0.1, rel=1e-15)

    def test_placement_validation(self):
        with pytest.raises(ValueError):
            ch.NodePlacement(0.0, 1.0)
        with pytest.raises(ValueError):
            ch.NodePlacement(10.0, 0.0)
        with pytest.raises(TypeError):  # the AP angle is gone: no output read it
            ch.NodePlacement(10.0, 0.1, 1.0)


class TestPathLoss:
    def test_grazing_device_gets_nothing(self):
        # cos(pi/2) in floats is ~6e-17, so the loss is ~1e-44 rather than 0
        assert path_loss(25.0, math.pi / 2) < 1e-40

    def test_inverse_square_in_distance(self):
        assert path_loss(50.0, 0.0) == pytest.approx(path_loss(25.0, 0.0) / 4, rel=1e-12)

    def test_boresight_spot_value(self):
        assert path_loss(25.0, 0.0) == pytest.approx(BORESIGHT_PATH_LOSS, rel=1e-12)

    @given(st.floats(1.0, 500.0), st.floats(0.0, 1.5))
    def test_nonnegative(self, distance, angle):
        assert np.all(device_snr(distance, angle) >= 0.0)


class TestArrayFactor:
    def test_aligned_is_element_count(self):
        for n_x in (1, 2, 5, 10, 20):
            for n_z in (1, 2, 5, 10, 20):
                ris = make_ris(n_x, n_z)
                value = float(ch.array_factor_power(ris, 0.7, 0.7))
                assert value == pytest.approx(ris.n_elements**2, rel=1e-9)

    def test_modulus_symmetric_in_angles(self):
        ris = make_ris()
        a = float(ch.array_factor_power(ris, 0.5, 1.1))
        b = float(ch.array_factor_power(ris, 1.1, 0.5))
        assert a == pytest.approx(b, rel=1e-12)

    def test_against_loop_oracle_off_null(self):
        ours = float(ch.array_factor_power(make_ris(), math.pi / 5, 0.0))
        ref = abs(loop_array_factor(10, 10, 0.1, 0.1, math.pi / 5, 0.0)) ** 2
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_against_loop_oracle_at_null(self):
        # device at pi/6 with half-wave spacing per column sits on a null; the
        # comparison is scale-aware because the true value is ~1e-13
        ris = make_ris()
        ours = math.sqrt(float(ch.array_factor_power(ris, math.pi / 6, 0.0)))
        ref = abs(loop_array_factor(10, 10, 0.1, 0.1, math.pi / 6, 0.0))
        assert abs(ours - ref) <= 1e-12 * ris.n_elements

    @given(
        st.integers(1, 16),
        st.integers(1, 16),
        st.floats(0.0, 1.5),
        st.floats(0.0, 1.5),
    )
    @settings(max_examples=200)
    def test_bounded_by_element_count(self, n_x, n_z, theta_mtd, theta_cfg):
        ris = make_ris(n_x, n_z, d_x=0.05)
        value = float(ch.array_factor_power(ris, theta_mtd, theta_cfg))
        assert value <= (ris.n_elements * (1 + 1e-12)) ** 2

    @given(st.floats(0.0, 1.5), st.floats(0.0, 1.5))
    @settings(max_examples=200)
    def test_peak_only_when_aligned(self, theta_mtd, theta_cfg):
        # half-wave column spacing keeps the phase step inside (-pi, pi), so
        # the peak is attained only with matching sines
        ris = make_ris(d_x=0.05)
        if abs(math.sin(theta_mtd) - math.sin(theta_cfg)) > 1e-4:
            assert float(ch.array_factor_power(ris, theta_mtd, theta_cfg)) < ris.n_elements**2

    @given(
        st.integers(1, 16),
        st.integers(1, 16),
        st.floats(0.01, 0.1),
        st.floats(0.0, 1.5),
        st.floats(0.0, 1.5),
    )
    @settings(max_examples=300)
    def test_closed_form_matches_direct_sum(self, n_x, n_z, d_x, theta_mtd, theta_cfg):
        ris = make_ris(n_x, n_z, d_x=d_x)
        direct = abs(loop_array_factor(n_x, n_z, d_x, 0.1, theta_mtd, theta_cfg)) ** 2
        closed = float(ch.array_factor_power(ris, theta_mtd, theta_cfg))
        scale = float(ris.n_elements) ** 2
        if direct > 1e-12 * scale:
            assert closed == pytest.approx(direct, rel=1e-10)
        else:
            assert abs(closed - direct) <= 1e-10 * scale


class TestChannelCoefficientAndSnr:
    def test_grazing_device_has_zero_coefficient(self):
        assert np.all(device_snr(angle=math.pi / 2) < 1e-20)

    def test_magnitude_factors(self):
        # SNR = P_tx / N0 * path loss * |AF|^2, the path loss the same in every slot
        ris = make_ris()
        phases = ch.phase_shift_set(5)
        row = device_snr(40.0, 0.35)
        gain_sq = ch.array_factor_power(ris, 0.35, np.asarray(phases))
        assert row / gain_sq == pytest.approx(np.full(5, row[0] / gain_sq[0]), rel=1e-12)

    def test_snr_zero_coefficient(self):
        assert np.all(device_snr(mtd_gain=0.0) == 0.0)

    def test_snr_linear_in_tx_power(self):
        double = device_snr(40.0, 0.35, radio=make_radio(0.02))
        assert double == pytest.approx(2 * device_snr(40.0, 0.35), rel=1e-12)

    def test_aligned_snr_spot_value(self):
        assert device_snr()[0] == pytest.approx(ALIGNED_SNR, rel=1e-12)

    def test_snr_matrix_matches_scalar_chain(self):
        # a (2, 3) batch of devices against the per-element formula
        ris = make_ris()
        radio = make_radio()
        phases = ch.phase_shift_set(7)
        words = np.random.default_rng(11).bit_generator.random_raw(12)
        distances, angles = ch.sample_mtd_placements(words, (25.0, 100.0))
        grid = ch.snr_matrix(
            ris, radio, make_ap(), GAIN_5_DB, distances.reshape(2, 3), angles.reshape(2, 3), phases
        )
        assert grid.shape == (2, 3, 7)
        scale = float(ris.n_elements) ** 2 * radio.mtd_tx_power_w / radio.noise_power_w
        for k in range(6):
            for s, theta_cfg in enumerate(phases):
                ref = reference_snr(ris, radio, distances[k], angles[k], theta_cfg)
                assert abs(grid[k // 3, k % 3, s] - ref) <= 1e-10 * max(ref, scale * 1e-9)


ANGLES = st.floats(0.0, math.pi / 2)


class TestKernelsMatchReference:
    """The in-place array factor and the masked SNR grid give the np.where formulas' bits."""

    @given(
        st.integers(1, 16),
        st.integers(1, 16),
        st.sampled_from((0.025, 0.05, 0.1)),
        st.lists(ANGLES, min_size=1, max_size=12),
        st.integers(1, 24),
    )
    @settings(max_examples=200)
    def test_array_factor_bits(self, n_x, n_z, d_x, devices, s):
        ris = make_ris(n_x, n_z, d_x=d_x)
        phases = np.asarray(ch.phase_shift_set(s))
        # the last devices sit on configurations, where sin(x/2) is 0
        theta = np.array(devices + [phases[0], phases[-1]])[:, None]
        got = ch.array_factor_power(ris, theta, phases)
        assert (got == where_array_factor_power(ris, theta, phases)).all()
        assert got[-1, -1] == float(ris.n_elements) ** 2

    @given(ANGLES, ANGLES)
    @example(0.7, 0.7)
    @example(0.0, 0.0)
    @settings(max_examples=200)
    def test_array_factor_scalars(self, theta_mtd, theta_cfg):
        ris = make_ris()
        for wrap in (float, np.float64, np.array):
            got = ch.array_factor_power(ris, wrap(theta_mtd), wrap(theta_cfg))
            expected = where_array_factor_power(ris, wrap(theta_mtd), wrap(theta_cfg))
            assert np.shape(got) == np.shape(expected) == ()
            assert got == expected

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 24),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100)
    def test_masked_grid_is_the_full_grid_where_set(self, seed, k, s, density):
        ris, radio = make_ris(), make_radio()
        phases = ch.phase_shift_set(s)
        rng = np.random.default_rng(seed)
        distances, angles = ch.sample_mtd_placements(
            rng.bit_generator.random_raw((3, 2 * k)), (25.0, 100.0)
        )
        angles[0, 0] = phases[-1]  # aligned: sin(x/2) is 0 in the last slot
        args = (ris, radio, make_ap(), GAIN_5_DB, distances, angles, phases)
        full = ch.snr_matrix(*args)
        assert (full == where_snr_matrix(*args)).all()
        mask = rng.random(full.shape) < density
        assert (ch.snr_matrix(*args, mask=mask) == np.where(mask, full, 0.0)).all()


class TestPlacementSampling:
    """Placements decoded from raw words (two per device: distances, then angles)."""

    def test_degenerate_ranges(self):
        words = np.random.default_rng(0).bit_generator.random_raw(16)
        distances, angles = ch.sample_mtd_placements(words, (50.0, 50.0), (0.3, 0.3))
        assert np.all(distances == 50.0)
        assert np.all(angles == 0.3)

    def test_same_seed_same_placements(self):
        draw = lambda: ch.sample_mtd_placements(
            np.random.default_rng(42).bit_generator.random_raw(40), (25.0, 100.0)
        )
        (d1, a1), (d2, a2) = draw(), draw()
        assert np.array_equal(d1, d2) and np.array_equal(a1, a2)

    def test_uniform_mean_distance(self):
        n = 100_000
        words = np.random.default_rng(7).bit_generator.random_raw(2 * n)
        distances, _angles = ch.sample_mtd_placements(words, (25.0, 100.0))
        se = (100.0 - 25.0) / math.sqrt(12 * n)
        assert abs(distances.mean() - 62.5) <= 3 * se

    def test_invalid_ranges_rejected(self):
        words = np.random.default_rng(0).bit_generator.random_raw(6)
        with pytest.raises(ValueError):
            ch.sample_mtd_placements(words, (0.0, 10.0))
        with pytest.raises(ValueError):
            ch.sample_mtd_placements(words, (30.0, 10.0))
        with pytest.raises(ValueError):
            ch.sample_mtd_placements(words, (10.0, 30.0), (0.5, 0.1))
        with pytest.raises(ValueError):
            ch.sample_mtd_placements(words[:0], (10.0, 30.0))
        with pytest.raises(ValueError):
            ch.sample_mtd_placements(words[:5], (10.0, 30.0))

    @pytest.mark.parametrize("key", [(1, 2), (2**63 + 5, 9), (0, 0)])
    def test_matches_generator_uniform(self, key):
        # a batch of (3, 2k) words decodes as numpy's uniform on each row's stream
        ranges = ((25.0, 100.0), (0.1, ch.HALF_PI))
        words = np.random.Philox(key=key).random_raw((3, 18))
        distances, angles = ch.sample_mtd_placements(words, *ranges)
        rng = np.random.Generator(np.random.Philox(key=key))
        for row in range(3):
            assert np.array_equal(distances[row], rng.uniform(*ranges[0], 9))
            assert np.array_equal(angles[row], rng.uniform(*ranges[1], 9))

    def test_unit_doubles_match_generator_random(self):
        words = np.random.Philox(key=11).random_raw((4, 25))
        want = np.random.Generator(np.random.Philox(key=11)).random((4, 25))
        assert np.array_equal(ch.unit_doubles(words), want)


class TestDecibelHelpers:
    def test_zero_db_is_unity(self):
        assert ch.db_to_linear(0.0) == 1.0

    def test_noise_floor_in_watts(self):
        assert ch.dbm_to_watts(-94.0) == pytest.approx(NOISE_MINUS_94_DBM, rel=1e-12)

    def test_nine_dbw(self):
        assert ch.dbw_to_watts(9.0) == pytest.approx(STATIC_9_DBW, rel=1e-12)

    @given(st.floats(-120.0, 60.0))
    def test_round_trips(self, x):
        assert ch.linear_to_db(ch.db_to_linear(x)) == pytest.approx(x, abs=1e-9)
        assert ch.watts_to_dbm(ch.dbm_to_watts(x)) == pytest.approx(x, abs=1e-9)
        assert ch.watts_to_dbw(ch.dbw_to_watts(x)) == pytest.approx(x, abs=1e-9)
