import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risra import access as ac
from risra import channel, engine
from risra.config import parse_config
from oracles import (
    KEY_SEEDS,
    argsort_sscp_slots,
    double_argsort_irsap_slots,
    generator_trial_draws,
    irsap_mean_degree,
    substream,
    where_carp_probabilities,
)

IRSAP_MEAN_DEGREE_S20 = 3.7344627969933493  # (1 + 1/19) * sum_{s=2..20} 1/(s-1)
DECODE_POINTS = ((1, 20), (7, 2), (7, 3), (10, 5), (10, 20))  # (k, s)
FIRST_TRIAL, STOP_TRIAL = 40, 300


def trial_draws(kind, rng, k, s):
    """One trial's access draws for k devices, decoded from the stream's next raw words."""
    policy = ac.Policy(kind)
    words = rng.bit_generator.random_raw((1, ac.policy_words(policy, k, s)))
    draws, rejected = ac.decode_draws(policy, words, channel.unit_doubles(words), k, s)
    assert not rejected.any()
    return draws


def select(kind, rng, k, s, snr=None):
    """One trial of `kind` for k devices: decode its draws, then choose."""
    snr = np.zeros((1, k, s)) if snr is None else snr[None]
    return ac.choose_slots(ac.Policy(kind), snr, trial_draws(kind, rng, k, s), s)[0]


def slot_set(mask_row):
    return set(np.flatnonzero(mask_row).tolist())


class TestPolicy:
    def test_training_requirements(self):
        assert ac.Policy("carp").requires_training
        assert ac.Policy("sscp").requires_training
        assert not ac.Policy("crdsap").requires_training
        assert not ac.Policy("irsap").requires_training

    # Policy is a plain record: the config checks its rules when it is built
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match=r"^policy\.kind must be one of "):
            parse_config(None, ["policy.kind=aloha"])

    def test_bad_sscp_count_rejected(self):
        with pytest.raises(ValueError, match=r"^policy\.sscp_s must be >= 1$"):
            parse_config(None, ["policy.kind=sscp", "policy.sscp_s=0"])


class TestMeasureQuality:
    def test_perfect_estimation_is_identity(self):
        snr = np.random.default_rng(0).uniform(0.0, 50.0, (4, 6))
        assert np.array_equal(ac.measure_quality(snr), snr)

    def test_zero_snr_gives_zero_quality(self):
        assert np.all(ac.measure_quality(np.zeros((3, 5))) == 0.0)

    def test_noisy_measurements_average_to_scaled_snr(self):
        rng = np.random.default_rng(3)
        n = 100_000
        snr = np.full((n, 1), 10.0)
        noise = rng.standard_normal(snr.shape)
        quality = ac.measure_quality(snr, c=0.7, noise_std=2.0, noise=noise)
        se = 2.0 / math.sqrt(n)
        assert abs(quality.mean() - 7.0) <= 3 * se

    def test_negative_values_clamped(self):
        assert np.all(ac.measure_quality(np.ones((2, 3)), c=-1.0) == 0.0)

    def test_noise_requires_rng(self):
        # the noise is drawn from the trial's stream beforehand and passed in
        with pytest.raises(ValueError):
            ac.measure_quality(np.ones((2, 2)), noise_std=1.0)


class TestCarpProbabilities:
    def test_equal_qualities_are_uniform(self):
        p = ac.carp_probabilities(np.array([3.5, 3.5, 3.5, 3.5]))
        assert np.all(p == p[0])
        assert p[0] == pytest.approx(0.25, rel=1e-15)

    def test_single_nonzero_slot_takes_all(self):
        assert np.array_equal(ac.carp_probabilities(np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0])

    def test_direct_normalization(self):
        p = ac.carp_probabilities(np.array([1.0, 2.0, 3.0]))
        assert p == pytest.approx([1 / 6, 2 / 6, 3 / 6], rel=1e-15)

    def test_all_zero_row_degrades_to_uniform(self):
        assert np.array_equal(ac.carp_probabilities(np.zeros(5)), np.full(5, 0.2))

    @given(
        st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
    )
    def test_valid_distribution(self, q_row):
        p = ac.carp_probabilities(np.array(q_row))
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


class TestCarpSelect:
    def test_certain_slots_all_selected(self):
        # a zero uniform fires every slot of positive probability
        assert ac.carp_slots(np.ones((1, 6)), np.zeros((1, 6))).all()

    def test_fallback_to_best_quality(self):
        chosen = ac.carp_slots(np.array([[1.0, 5.0, 2.0]]), np.ones((1, 3)))
        assert slot_set(chosen[0]) == {1}

    def test_replica_count_matches_enumeration_oracle(self):
        # oracle: exact expectation over all 2^s outcomes of the per-slot
        # Bernoulli trials, counting the forced single replica when nothing fires
        s = 6
        q = np.arange(1.0, s + 1)
        p = q / q.sum()
        expected = 0.0
        for outcome in itertools.product((0, 1), repeat=s):
            prob = math.prod(pj if fired else 1 - pj for pj, fired in zip(p, outcome))
            expected += prob * max(sum(outcome), 1)

        rng = np.random.default_rng(12)
        n = 100_000
        sizes = ac.carp_slots(np.tile(q, (n, 1)), rng.random((n, s))).sum(axis=1)
        se = sizes.std(ddof=1) / math.sqrt(n)
        assert abs(sizes.mean() - expected) <= 3 * se


class TestSscpSelect:
    def test_all_slots_when_count_is_s(self):
        assert ac.sscp_slots(np.array([[5.0, 1.0, 3.0]]), 3).all()

    def test_top_two_by_value(self):
        assert slot_set(ac.sscp_slots(np.array([[3.0, 1.0, 2.0]]), 2)[0]) == {0, 2}

    def test_tie_breaks_to_lower_index(self):
        assert slot_set(ac.sscp_slots(np.array([[2.0, 2.0, 1.0]]), 1)[0]) == {0}

    def test_count_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ac.sscp_slots(np.array([[1.0, 2.0]]), 3)
        with pytest.raises(ValueError):
            ac.sscp_slots(np.array([[1.0, 2.0]]), 0)

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
        st.data(),
    )
    def test_cardinality_and_determinism(self, q_row, data):
        count = data.draw(st.integers(1, len(q_row)))
        first = ac.sscp_slots(np.array([q_row]), count)
        second = ac.sscp_slots(np.array([q_row]), count)
        assert np.array_equal(first, second)
        assert first.sum() == count


class TestCrdsapSelect:
    def test_two_slots_always_both(self):
        assert select("crdsap", np.random.default_rng(0), 50, 2).all()

    def test_cardinality_exactly_two(self):
        assert np.all(select("crdsap", np.random.default_rng(1), 500, 7).sum(axis=1) == 2)

    def test_uniform_over_pairs(self):
        n = 100_000
        chosen = select("crdsap", np.random.default_rng(2), n, 5)
        codes = np.bincount(chosen @ (1 << np.arange(5)), minlength=32)
        se = math.sqrt(0.1 * 0.9 / n)
        for pair in itertools.combinations(range(5), 2):
            count = codes[(1 << pair[0]) | (1 << pair[1])]
            assert abs(count / n - 0.1) <= 3 * se, pair

    def test_single_slot_rejected(self):
        with pytest.raises(ValueError):
            select("crdsap", np.random.default_rng(0), 3, 1)


class TestIrsapDegrees:
    def test_two_slots_pmf_is_point_mass(self):
        assert np.array_equal(ac.irsap_degree_pmf(2), [1.0])

    def test_four_slot_pmf(self):
        assert ac.irsap_degree_pmf(4) == pytest.approx([2 / 3, 2 / 9, 1 / 9], rel=1e-12)

    @given(st.integers(2, 64))
    def test_pmf_normalized_and_positive(self, s):
        pmf = ac.irsap_degree_pmf(s)
        assert abs(pmf.sum() - 1.0) <= 1e-12
        assert np.all(pmf > 0.0)

    def test_mean_degree_values(self):
        assert irsap_mean_degree(2) == pytest.approx(2.0, rel=1e-12)
        assert irsap_mean_degree(4) == pytest.approx(22 / 9, rel=1e-12)
        assert irsap_mean_degree(20) == pytest.approx(IRSAP_MEAN_DEGREE_S20, rel=1e-12)

    @given(st.integers(2, 64))
    def test_mean_degree_matches_pmf_expectation(self, s):
        pmf = ac.irsap_degree_pmf(s)
        degrees = np.arange(2, s + 1)
        assert irsap_mean_degree(s) == pytest.approx(float(degrees @ pmf), rel=1e-12)


class TestIrsapSelect:
    def test_cardinality_bounds(self):
        sizes = select("irsap", np.random.default_rng(0), 2000, 8).sum(axis=1)
        assert np.all((2 <= sizes) & (sizes <= 8))

    def test_two_slots_always_both(self):
        assert select("irsap", np.random.default_rng(1), 100, 2).all()

    def test_mean_replicas_per_device(self):
        n = 50_000
        sizes = select("irsap", np.random.default_rng(5), n, 20).sum(axis=1)
        se = sizes.std(ddof=1) / math.sqrt(n)
        assert abs(sizes.mean() - IRSAP_MEAN_DEGREE_S20) <= 3 * se


class TestDecideAccess:
    """choose_slots over batches of (trial, device, slot) grids."""

    def test_crdsap_total_replicas_exact(self):
        assert select("crdsap", np.random.default_rng(0), 10, 6).sum() == 20

    def test_sscp_total_replicas_exact(self):
        snr = np.random.default_rng(0).uniform(0.0, 100.0, (10, 6))
        assert ac.choose_slots(ac.Policy("sscp", 2), snr, (), 6).sum() == 20

    def test_carp_matches_scalar_ops(self):
        # per-row reference: normalize, one trial per slot, else the best slot
        rng = np.random.default_rng(9)
        q = rng.uniform(0.0, 100.0, (3, 12, 7))
        q[0, 0] = 0.0  # an all-zero row falls back to uniform probabilities
        u = rng.random((3, 12, 7))
        chosen = ac.choose_slots(ac.Policy("carp"), q, (u,), 7)
        for b, k in itertools.product(range(3), range(12)):
            row = q[b, k]
            p = row / row.sum() if row.sum() > 0 else np.full(7, 1 / 7)
            expected = set(np.flatnonzero(u[b, k] < p).tolist()) or {int(np.argmax(row))}
            assert slot_set(chosen[b, k]) == expected

    def test_sscp_matches_scalar_ops(self):
        rng = np.random.default_rng(10)
        q = rng.integers(0, 4, (4, 9, 5)).astype(float)  # small integers: many ties
        chosen = ac.choose_slots(ac.Policy("sscp", 3), q, (), 5)
        for b, k in itertools.product(range(4), range(9)):
            expected = sorted(range(5), key=lambda j: (-q[b, k, j], j))[:3]
            assert slot_set(chosen[b, k]) == set(expected)

    def test_carp_selection_law_with_equal_qualities(self):
        # with all-equal rows each slot fires with p = 1/s, and the fallback
        # (deterministic argmax, hence slot 0) adds (1 - 1/s)^s to slot 0 only;
        # the remaining slots stay exchangeable
        k, s = 20_000, 5
        freq = select("carp", np.random.default_rng(4), k, s, np.ones((k, s))).mean(axis=0)
        p = 1 / s
        p0 = p + (1 - p) ** s
        assert abs(freq[0] - p0) <= 3 * math.sqrt(p0 * (1 - p0) / k)
        for slot in range(1, s):
            assert abs(freq[slot] - p) <= 3 * math.sqrt(p * (1 - p) / k)

    def test_every_selection_nonempty(self):
        rng = np.random.default_rng(2)
        for kind in ("carp", "sscp", "crdsap", "irsap"):
            chosen = select(kind, rng, 15, 4, rng.uniform(0.0, 100.0, (15, 4)))
            assert chosen.any(axis=1).all()

    def test_untrained_policies_ignore_channel(self):
        # same draws, wildly different channels: identical decisions
        for kind in ("crdsap", "irsap"):
            policy = ac.Policy(kind)
            draws = trial_draws(kind, np.random.default_rng(6), 10, 8)
            blind = ac.choose_slots(policy, None, draws, 8)
            for grid in (np.zeros((1, 10, 8)), np.full((1, 10, 8), 1e9)):
                assert np.array_equal(ac.choose_slots(policy, grid, draws, 8), blind)


# a few values, so that ties within a row are common, and all-zero rows
TIED = (0.0, 0.5, 1.0, 2.0, 7.25)


@st.composite
def quality_grids(draw, values=st.one_of(st.sampled_from(TIED), st.floats(0.0, 1e6))):
    """A (rows, S) grid of nonnegative qualities; some rows all zero."""
    rows, s = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    grid = np.array(draw(st.lists(st.lists(values, min_size=s, max_size=s),
                                  min_size=rows, max_size=rows)))
    zero = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    grid[np.array(zero)] = 0.0
    return grid


class TestReferenceKernels:
    """The slot choices give exactly the bits of the sort- and where-based references."""

    @given(quality_grids())
    @example(np.array([[2.0, 2.0, 1.0, 2.0], [0.0, 0.0, 0.0, 0.0]]))
    @settings(max_examples=200)
    def test_sscp_equals_stable_argsort(self, quality):
        for count in range(1, quality.shape[-1] + 1):
            expected = argsort_sscp_slots(quality, count)
            assert (ac.sscp_slots(quality, count) == expected).all()

    def test_sscp_every_count_up_to_s(self):
        quality = np.random.default_rng(3).integers(0, 3, (50, 6, 40)).astype(float)
        for count in range(1, 41):
            assert (ac.sscp_slots(quality, count) == argsort_sscp_slots(quality, count)).all()

    @given(quality_grids(st.sampled_from((0.0, 0.25, 0.5, 0.75))), st.data())
    @settings(max_examples=200)
    def test_irsap_equals_double_argsort(self, u, data):
        # tied uniforms: both rank with the same first argsort
        s = u.shape[-1]
        degrees = np.array(data.draw(st.lists(st.integers(0, s), min_size=len(u), max_size=len(u))))
        assert (ac.irsap_slots(degrees, u) == double_argsort_irsap_slots(degrees, u)).all()

    def test_irsap_on_decoded_draws(self):
        draws = trial_draws("irsap", np.random.default_rng(8), 500, 20)
        assert (ac.irsap_slots(*draws) == double_argsort_irsap_slots(*draws)).all()

    @given(quality_grids())
    @settings(max_examples=200)
    def test_carp_probabilities_equal_where_pair(self, quality):
        expected = where_carp_probabilities(quality)
        got = ac.carp_probabilities(quality)
        assert (got == expected).all()
        assert (got[~quality.any(axis=-1)] == 1.0 / quality.shape[-1]).all()


def decode_cfg(kind, k, s, noise_std):
    cfg, _ = parse_config(None, [f"policy.kind={kind}", f"sim.k={k}", f"sim.s={s}",
                                 f"estimation.noise_std={noise_std}"])
    return cfg


def group_draws(cfgs, seed):
    """Trials FIRST_TRIAL..STOP_TRIAL-1 of `seed` through the engine's batch decode of a
    group: per member, its placement, the group's normals if it draws them, and its draws,
    in stream order; and the trials' keys."""
    keys = engine._trial_keys(seed, FIRST_TRIAL, STOP_TRIAL)
    distances, angles, members = engine._batch_draws(cfgs, keys)
    got = []
    for cfg, (normals, draws) in zip(cfgs, members, strict=True):
        # a member draws normals exactly when it is trained and the noise is on
        noisy = cfg.policy.requires_training and cfg.estimation_noise_std > 0
        assert (normals is not None) == noisy
        got.append([distances, angles, *([] if normals is None else [normals]), *draws])
    return got, keys


def batch_draws(cfg, seed):
    """batch_draws of a group of one cell."""
    [got], keys = group_draws([cfg], seed)
    return got, keys


def assert_matches_generator(cfg, seed, got):
    for row, trial in enumerate(range(FIRST_TRIAL, STOP_TRIAL)):
        want = generator_trial_draws(
            substream(seed, trial), cfg.policy.kind, cfg.estimation_noise_std, cfg.k, cfg.s,
            (cfg.mtd_d_min_m, cfg.mtd_d_max_m), (cfg.mtd_angle_min_rad, cfg.mtd_angle_max_rad),
        )
        assert len(got) == len(want)
        for decoded, drawn in zip(got, want):
            assert decoded[row].dtype.kind == drawn.dtype.kind
            assert np.array_equal(decoded[row], drawn), (seed, trial)


class TestDecodeDraws:
    """Draws decoded from raw words against numpy's Generator on the same streams."""

    @pytest.mark.parametrize("noise_std", [0.0, 2.0])
    @pytest.mark.parametrize("kind", ac.POLICY_KINDS)
    def test_batch_decode_equals_generator_draws(self, kind, noise_std):
        for (k, s), seed in itertools.product(DECODE_POINTS, KEY_SEEDS):
            if kind == "sscp" and s < 2:
                continue
            cfg = decode_cfg(kind, k, s, noise_std)
            got, _keys = batch_draws(cfg, seed)
            assert_matches_generator(cfg, seed, got)

    @pytest.mark.parametrize("noise_std", [0.0, 2.0])
    def test_group_decode_equals_generator_draws(self, noise_std):
        # every member of a group decodes its own prefix of the words of its
        # layout (with noise, trained members share one read of the normals)
        # into its own Generator draws
        for (k, s), seed in itertools.product(DECODE_POINTS, KEY_SEEDS[:3]):
            kinds = ac.POLICY_KINDS if s >= 2 else ("carp", "sscp")
            cfgs = [decode_cfg(kind, k, s, noise_std) for kind in kinds]
            members, _keys = group_draws(cfgs, seed)
            for cfg, got in zip(cfgs, members):
                assert_matches_generator(cfg, seed, got)

    def test_word_counts(self):
        counts = {kind: ac.policy_words(ac.Policy(kind), 7, 3) for kind in ac.POLICY_KINDS}
        assert counts == {"carp": 21, "sscp": 0, "crdsap": 7, "irsap": 28}
        assert ac.policy_words(ac.Policy("crdsap"), 7, 2) == 4  # second index is free at s = 2
        assert ac.policy_words(ac.Policy("crdsap"), 10, 20) == 10

    def test_forced_rejections_match_numpy(self):
        # n = 3 * 2**30: numpy rejects a half word h exactly when h % 4 == 0
        n, m = 3 * 2**30, 4000
        for key in ((1, 2), (2**63 + 5, 7), (0, 0)):
            words = np.random.Philox(key=key).random_raw(m // 2)
            halves = words.astype("<u8").view("<u4")
            values, rejected = ac.bounded_integers(halves, n)
            assert np.array_equal(rejected, halves % 4 == 0)
            assert 0.2 < rejected.mean() < 0.3
            accepted = values[~rejected]
            want = np.random.Generator(np.random.Philox(key=key)).integers(0, n, accepted.size)
            assert np.array_equal(accepted, want)

    def test_no_rejection_below_threshold_power_of_two(self):
        # a power-of-two range never rejects: (2**32 - n) % n == 0
        halves = np.random.Philox(key=3).random_raw(500).view("<u4")
        assert not ac.bounded_integers(halves, 16)[1].any()

    def test_redraw_reproduces_numpy_on_any_row(self):
        for (k, s), seed in itertools.product(((7, 3), (10, 20), (1, 20)), KEY_SEEDS[:3]):
            cfg = decode_cfg("crdsap", k, s, 0.0)
            got, keys = batch_draws(cfg, seed)
            decoded = [draw.copy() for draw in got[2:]]
            redrawn = [np.full_like(draw, -1) for draw in decoded]
            engine._redraw_rows(cfg, redrawn, keys, list(range(STOP_TRIAL - FIRST_TRIAL)))
            assert all(np.array_equal(a, b) for a, b in zip(redrawn, decoded))

    def test_rejected_rows_are_drawn_again(self, monkeypatch):
        # flag every row: each is redrawn through numpy and must still equal the oracle
        exact = ac.bounded_integers
        monkeypatch.setattr(
            ac, "bounded_integers", lambda halves, n: (exact(halves, n)[0] * 0, halves >= 0)
        )
        for k, s in ((7, 2), (7, 3), (10, 20)):
            cfg = decode_cfg("crdsap", k, s, 0.0)
            got, _keys = batch_draws(cfg, KEY_SEEDS[2])
            assert_matches_generator(cfg, KEY_SEEDS[2], got)

    def test_crdsap_needs_two_slots(self):
        with pytest.raises(ValueError):
            words = np.zeros((1, 3), np.uint64)
            ac.decode_draws(ac.Policy("crdsap"), words, channel.unit_doubles(words), 3, 1)
