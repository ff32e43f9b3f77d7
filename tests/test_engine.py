import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risra import access, channel
from risra import receiver as rx
from risra.config import cell_configs, parse_config, resolve_config
from risra.engine import (
    _batch_draws,
    _groups,
    _simulate_batch,
    _simulate_range,
    optimal_over_s,
    run_groups,
    run_monte_carlo,
    run_monte_carlo_with_traces,
    simulate_frame,
    trial_rng,
    trial_streams,
)
from oracles import KEY_SEEDS, substream


def make_cfg(*overrides):
    cfg, _resolved = parse_config(None, list(overrides))
    return cfg


def make_resolved(*overrides):
    return resolve_config(None, list(overrides))


def policy_k(cfgs):
    return [(cfg.policy.label, cfg.k) for cfg in cfgs]


# single device parked on the boresight configuration; every slot of the
# 5-slot sweep clears the 0 dB threshold there
ALIGNED = (
    "sim.k=1",
    "sim.s=5",
    "mtd.d_min_m=25",
    "mtd.d_max_m=25",
    "mtd.angle_min_rad=0",
    "mtd.angle_max_rad=0",
)


def aligned_cfg(*overrides):
    return make_cfg(*ALIGNED, *overrides)


def draw_sequence(rng):
    """Every draw kind the frame pipeline uses; the odd integer count leaves
    a buffered 32-bit half word behind, which the next trial must not see."""
    return [
        rng.integers(0, 19, 3),
        rng.uniform(25.0, 100.0, 4),
        rng.standard_normal((2, 3)),
        rng.integers(0, 19, 5),
        rng.random(3),
        rng.integers(0, 19, 1),
    ]


class TestSubstreams:
    def test_same_path_same_draws(self):
        a = substream(123, 7).random(5)
        b = substream(123, 7).random(5)
        assert np.array_equal(a, b)

    def test_trial_rng_is_the_seed_sequence_stream(self):
        for seed, trial in ((123, 7), (1, 0), (2**70 + 123, 4)):
            got = draw_sequence(trial_rng(seed, trial))
            want = draw_sequence(substream(seed, trial))
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_different_trials_different_draws(self):
        a = trial_rng(123, 0).random(5)
        b = trial_rng(123, 1).random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_different_draws(self):
        a = trial_rng(1, 0).random(5)
        b = trial_rng(2, 0).random(5)
        assert not np.array_equal(a, b)


class TestTrialStreams:
    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_keys_match_seed_sequence(self, seed):
        keys = [rng.bit_generator.state["state"]["key"] for rng in trial_streams(seed, 0, 3000)]
        for trial, key in enumerate(keys):
            spawned = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
            assert np.array_equal(key, spawned.generate_state(2, np.uint64)), trial

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_last_trial_index_matches_seed_sequence(self, seed):
        last = 2**32 - 1
        [rng] = trial_streams(seed, last, last + 1)
        key = rng.bit_generator.state["state"]["key"]
        spawned = np.random.SeedSequence(entropy=seed, spawn_key=(last,))
        assert np.array_equal(key, spawned.generate_state(2, np.uint64))

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_rekeyed_draws_match_oracle(self, seed):
        # one reused generator, drawn from in every way, must equal a fresh
        # SeedSequence-keyed generator per trial
        for trial, rng in enumerate(trial_streams(seed, 40, 300), start=40):
            got, want = draw_sequence(rng), draw_sequence(substream(seed, trial))
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), trial

    def test_streams_depend_only_on_the_trial_index(self):
        whole = [rng.random(2) for rng in trial_streams(5, 0, 20)]
        chunks = ((0, 7), (7, 8), (8, 20))
        parts = [rng.random(2) for lo, hi in chunks for rng in trial_streams(5, lo, hi)]
        assert np.array_equal(whole, parts)

    def test_empty_range_yields_nothing(self):
        assert list(trial_streams(1, 9, 9)) == []


class TestSimulateFrame:
    def test_single_aligned_device_always_decodes(self):
        cfg = aligned_cfg("policy.kind=sscp", "policy.sscp_s=1")
        for trial in range(60):
            frame = simulate_frame(cfg, trial_rng(cfg.seed, trial))
            assert frame.successes == 1

    def test_two_devices_sharing_both_slots_never_decode(self):
        cfg = make_cfg("sim.k=2", "sim.s=2", "policy.kind=sscp", "policy.sscp_s=2")
        for trial in range(40):
            frame = simulate_frame(cfg, trial_rng(cfg.seed, trial))
            assert frame.successes == 0

    def test_baseline_config_stays_in_range(self):
        cfg = make_cfg()
        frame = simulate_frame(cfg, trial_rng(cfg.seed, 0))
        assert 0 <= frame.successes <= cfg.k
        assert frame.replica_counts.sum() >= cfg.k

    def test_deterministic_in_rng_state(self):
        cfg = make_cfg()
        a = simulate_frame(cfg, trial_rng(9, 4))
        b = simulate_frame(cfg, trial_rng(9, 4))
        assert a.successes == b.successes
        assert a.power_w == b.power_w
        assert np.array_equal(a.replica_counts, b.replica_counts)


class TestRunMonteCarlo:
    def test_single_trial_degenerates_to_the_frame(self):
        cfg = make_cfg("sim.trials=1")
        agg = run_monte_carlo(cfg)
        frame = simulate_frame(cfg, trial_rng(cfg.seed, 0))
        assert agg.mean_a == frame.successes
        assert agg.mean_throughput == frame.throughput_pps
        assert agg.mean_power_w == frame.power_w
        assert agg.ci95_throughput == 0.0
        assert agg.ci95_power_w == 0.0

    def test_batched_runner_equals_frame_reference(self):
        # simulate_frame is the pipeline on a batch of one: each trial's row
        # must not depend on the batch it is evaluated in
        for kind in ("carp", "sscp", "crdsap", "irsap"):
            for extra in ((), ("estimation.noise_std=2.0",), ("estimation.c=0.5",)):
                cfg = make_cfg(
                    "sim.trials=50", "sim.k=7", "sim.s=9", f"policy.kind={kind}", *extra
                )
                [(a, g, p, _)] = _simulate_range([cfg], 0, cfg.trials)
                for trial in range(cfg.trials):
                    frame = simulate_frame(cfg, trial_rng(cfg.seed, trial))
                    assert frame.successes == a[trial]
                    assert frame.throughput_pps == g[trial]
                    assert frame.power_w == p[trial]

    def test_worker_count_does_not_change_results(self):
        cfg = make_cfg("sim.trials=300")
        serial = run_monte_carlo(cfg)
        parallel = run_monte_carlo(dataclasses.replace(cfg, workers=2))
        assert serial == dataclasses.replace(parallel)

    def test_trial_order_is_immaterial(self):
        cfg = make_cfg("sim.trials=40")
        [(a, g, p, _)] = _simulate_range([cfg], 0, 40)
        for trial in (31, 7, 18):
            frame = simulate_frame(cfg, trial_rng(cfg.seed, trial))
            assert (frame.successes, frame.power_w) == (a[trial], p[trial])

    def test_ratio_of_means_identity(self):
        agg = run_monte_carlo(make_cfg("sim.trials=200"))
        assert agg.ee_ratio_of_means == agg.mean_throughput / agg.mean_power_w

    def test_crdsap_replica_total_every_trial(self):
        cfg = make_cfg("policy.kind=crdsap", "sim.k=10")
        for trial in range(200):
            frame = simulate_frame(cfg, trial_rng(cfg.seed, trial))
            assert frame.replica_counts.sum() == 2 * cfg.k

    def test_traces_variant_matches_plain_run(self):
        cfg = make_cfg("sim.trials=50")
        agg, traces = run_monte_carlo_with_traces(cfg)
        assert agg == run_monte_carlo(cfg)
        assert len(traces) == 50
        # the pooled path returns the same aggregate and the traces in trial order
        assert run_monte_carlo_with_traces(dataclasses.replace(cfg, workers=2)) == (agg, traces)


class TestSscpSingleReplica:
    def test_sic_never_helps_degree_one_devices(self):
        # with one replica per device, the decoded set is exactly the devices
        # whose chosen slot is an initial singleton passing the threshold
        cfg = make_cfg("policy.kind=sscp", "policy.sscp_s=1", "sim.k=12", "sim.s=6")
        phases = channel.phase_shift_set(cfg.s)
        for trial in range(150):
            distances, angles = channel.sample_mtd_placements(
                trial_rng(cfg.seed, trial).bit_generator.random_raw(2 * cfg.k),
                (cfg.mtd_d_min_m, cfg.mtd_d_max_m),
                (cfg.mtd_angle_min_rad, cfg.mtd_angle_max_rad),
            )
            gamma = channel.snr_matrix(
                cfg.ris, cfg.radio, cfg.ap, cfg.mtd_gain, distances, angles, phases
            )
            chosen = access.choose_slots(cfg.policy, gamma, ())
            trace = rx.peel_trace(chosen, gamma, cfg.radio.snr_threshold)

            slots = chosen.argmax(axis=1).tolist()
            direct = {
                k
                for k, slot in enumerate(slots)
                if slots.count(slot) == 1 and gamma[k, slot] >= cfg.radio.snr_threshold
            }
            assert {k for _it, _slot, k in trace} == direct


def masks_and_decoded(cfg):
    """Every trial's replica mask, composed from the pipeline's stages, and its
    decoded count from the pipeline itself."""
    restart = lambda row: trial_rng(cfg.seed, row)
    distances, angles, [draws] = _batch_draws(
        [cfg], lambda: trial_streams(cfg.seed, 0, cfg.trials), restart
    )
    gamma = channel.snr_matrix(
        cfg.ris, cfg.radio, cfg.ap, cfg.mtd_gain, distances, angles,
        channel.phase_shift_set(cfg.s),
    )
    chosen = access.choose_slots(
        cfg.policy, gamma, draws, cfg.estimation_c, cfg.estimation_noise_std
    )
    [(a, _g, _p, _traces)] = _simulate_range([cfg], 0, cfg.trials)
    assert np.array_equal(rx.peel_batch(chosen, gamma, cfg.radio.snr_threshold)[0], a)
    return chosen, a


class TestPowerScaling:
    """Metamorphic: scaling the device transmit power by 2**m scales every SNR exactly."""

    @given(
        st.integers(0, 2**64),
        st.sampled_from([(10, 20), (20, 20), (10, 5)]),
        st.sampled_from(access.POLICY_KINDS),
    )
    @settings(max_examples=24, deadline=None)
    def test_masks_fixed_and_decodes_never_fall(self, seed, point, kind):
        # every policy's choice is invariant under an exact scale of the grid,
        # and a stronger signal can only pass the threshold more often
        k, s = point
        cfg = make_cfg(f"sim.k={k}", f"sim.s={s}", f"policy.kind={kind}", "sim.trials=48",
                       f"sim.seed={seed}")
        runs = [
            masks_and_decoded(dataclasses.replace(cfg, radio=dataclasses.replace(
                cfg.radio, mtd_tx_power_w=cfg.radio.mtd_tx_power_w * 2.0**m)))
            for m in range(-3, 4)
        ]
        masks, decoded = zip(*runs)
        assert all(np.array_equal(mask, masks[0]) for mask in masks[1:])
        assert np.all(np.diff(np.stack(decoded), axis=0) >= 0)


class TestSweep:
    def test_cell_count_and_ordering(self):
        base = make_resolved("sim.trials=5", "sim.s=6")
        cfgs = cell_configs(base, ["crdsap", "carp"], "K", [4, 2, 6])
        assert policy_k(cfgs) == [
            ("carp", 2), ("carp", 4), ("carp", 6), ("crdsap", 2), ("crdsap", 4), ("crdsap", 6)
        ]
        assert [agg for agg, _traces in run_groups(cfgs)] == [run_monte_carlo(cfg) for cfg in cfgs]

    def test_duplicate_cells_dropped(self):
        cfgs = cell_configs(make_resolved(), ["carp", "sscp", "carp"], "K", [4, 2, 4])
        assert policy_k(cfgs) == [("carp", 2), ("carp", 4), ("sscp", 2), ("sscp", 4)]
        cfgs = cell_configs(make_resolved("sim.k=3"), ["irsap", "carp", "irsap"])
        assert policy_k(cfgs) == [("carp", 3), ("irsap", 3)]

    def test_axis_n_keeps_square_surface(self):
        [cfg] = cell_configs(make_resolved(), ["carp"], "N", [225])
        assert (cfg.ris.n_x, cfg.ris.n_z) == (15, 15)

    def test_axis_n_rejects_non_square(self):
        with pytest.raises(ValueError, match="perfect square"):
            cell_configs(make_resolved(), ["carp"], "N", [10])

    def test_axis_rho_updates_both_radio_and_power(self):
        [cfg] = cell_configs(make_resolved(), ["carp"], "rho_mtd", [0.05])
        assert cfg.radio.mtd_tx_power_w == 0.05
        assert cfg.power.mtd_tx_power_w == 0.05

    def test_axis_s_revalidates_policy(self):
        with pytest.raises(ValueError):
            cell_configs(make_resolved(), ["crdsap"], "S", [1])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            cell_configs(make_resolved(), ["carp"], "Q", [1])

    def test_bad_value_fails_before_any_cell_is_built(self):
        with pytest.raises(ValueError, match="sim.k"):
            cell_configs(make_resolved(), ["carp"], "K", [2, 2.5])
        with pytest.raises(ValueError, match="policy.kind"):
            cell_configs(make_resolved(), ["carp", "aloha"])


# (K, S) points of the group tests: S = 1 admits only the trained policies
GROUP_POINTS = ((3, 1), (4, 2), (5, 3), (10, 20))


@st.composite
def group_cases(draw):
    """A group's flat overrides and its policy subset."""
    k, s = draw(st.sampled_from(GROUP_POINTS))
    kinds = access.POLICY_KINDS if s >= 2 else ("carp", "sscp")
    overrides = (
        f"sim.k={k}", f"sim.s={s}",
        f"policy.sscp_s={draw(st.integers(1, min(s, 3)))}",
        f"estimation.noise_std={draw(st.sampled_from((0.0, 2.0)))}",
        f"sim.trials={draw(st.sampled_from((1, 255, 257, 300)))}",
        f"sim.workers={draw(st.sampled_from((1, 2)))}",
        f"sim.seed={draw(st.integers(0, 2**64))}",
    )
    return overrides, draw(st.lists(st.sampled_from(kinds), min_size=1, unique=True))


class TestCellGroups:
    """A group of cells that differ only in policy equals its cells run one by one."""

    @given(group_cases())
    @example((("sim.k=10", "sim.s=20", "policy.sscp_s=3", "estimation.noise_std=2.0",
               "sim.trials=257", "sim.workers=2", "sim.seed=1"), list(access.POLICY_KINDS)))
    @example((("sim.k=3", "sim.s=1", "policy.sscp_s=1", "estimation.noise_std=2.0",
               "sim.trials=255", "sim.workers=1", "sim.seed=7"), ["carp", "sscp"]))
    @settings(max_examples=30, deadline=None)
    def test_group_equals_its_cells_alone(self, case):
        overrides, kinds = case
        cfgs = cell_configs(make_resolved(*overrides), kinds)
        assert _groups(cfgs) == [list(range(len(cfgs)))]
        grouped = run_groups(cfgs, keep_traces=True)
        for cfg, run in zip(cfgs, grouped):
            assert run == run_monte_carlo_with_traces(dataclasses.replace(cfg, workers=1))

    def test_groups_follow_the_axis_and_keep_the_cell_order(self):
        cfgs = cell_configs(make_resolved("sim.trials=30", "sim.s=6"), ["sscp", "crdsap", "carp"],
                            "K", [2, 5])
        assert policy_k(cfgs) == [
            ("carp", 2), ("carp", 5), ("crdsap", 2), ("crdsap", 5), ("sscp", 2), ("sscp", 5)
        ]
        assert _groups(cfgs) == [[0, 2, 4], [1, 3, 5]]
        seen = []
        runs = run_groups(cfgs, finished=lambda indices, seconds: seen.append(indices))
        assert seen == _groups(cfgs)
        assert [agg for agg, _traces in runs] == [run_monte_carlo(cfg) for cfg in cfgs]

    def test_group_redraws_a_rejected_crdsap_row(self, monkeypatch):
        # flag every fifth crdsap row as a Lemire rejection: numpy's own redraw
        # from a fresh copy of the row's stream must give back the same draws
        cfgs = cell_configs(make_resolved("sim.trials=300", "sim.k=6", "sim.s=7",
                                          "estimation.noise_std=2.0"), access.POLICY_KINDS)
        alone = [run_monte_carlo_with_traces(cfg) for cfg in cfgs]
        decode, indices = access.decode_draws, access.crdsap_indices
        redrawn = []

        def forced(policy, words, k, s):
            draws, rejected = decode(policy, words, k, s)
            if policy.kind == "crdsap":
                rejected = rejected.copy()
                rejected[::5] = True
            return draws, rejected

        def counted(rng, k, s):
            redrawn.append(k)
            return indices(rng, k, s)

        monkeypatch.setattr(access, "decode_draws", forced)
        monkeypatch.setattr(access, "crdsap_indices", counted)
        assert run_groups(cfgs, keep_traces=True) == alone
        assert len(redrawn) == len(range(0, 256, 5)) + len(range(0, 44, 5))


def batch_runs(cfgs, trials):
    """Each member's per-trial (a, g, p, counts, traces) over one batch of trials 0..trials-1,
    and the number of array-factor entries computed."""
    seed, afp = cfgs[0].seed, channel.array_factor_power
    sizes = []

    def counted(*args):
        out = afp(*args)
        sizes.append(out.size)
        return out

    with mock.patch.object(channel, "array_factor_power", counted):
        runs = _simulate_batch(
            cfgs,
            lambda: trial_streams(seed, 0, trials),
            lambda row: trial_rng(seed, row),
            channel.phase_shift_set(cfgs[0].s),
            True,
        )
    return runs, sum(sizes)


def full_grid_runs(cfgs, trials):
    """batch_runs with the mask dropped: every member peels the full grid."""
    full = channel.snr_matrix
    with mock.patch.object(channel, "snr_matrix", lambda *args, mask=None: full(*args)):
        return batch_runs(cfgs, trials)


def assert_runs_equal(got, expected):
    for ours, theirs in zip(got, expected, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(ours[:4], theirs[:4], strict=True))
        assert ours[4] == theirs[4]


class TestMaskedGrid:
    """A group with no trained member computes the grid only at its replicas,
    and each member's every trial equals its run on the full grid."""

    @given(
        st.sampled_from(((4, 2), (5, 3), (10, 5), (10, 20), (20, 20))),
        st.sampled_from((["crdsap"], ["irsap"], ["crdsap", "irsap"])),
        st.sampled_from((1, 37, 256)),
        st.integers(0, 2**64),
    )
    @settings(max_examples=30, deadline=None)
    def test_masked_grid_equals_full_grid(self, point, kinds, trials, seed):
        k, s = point
        cfgs = cell_configs(make_resolved(f"sim.k={k}", f"sim.s={s}", f"sim.seed={seed}"), kinds)
        masked, computed = batch_runs(cfgs, trials)
        full, every = full_grid_runs(cfgs, trials)
        assert_runs_equal(masked, full)
        assert every == trials * k * s
        # the union of the members' replicas; crdsap alone places exactly two per device
        replicas = [counts.sum() for _a, _g, _p, counts, _traces in masked]
        assert max(replicas) <= computed <= sum(replicas)
        if kinds == ["crdsap"]:
            assert computed == 2 * trials * k

    def test_a_trained_member_keeps_the_full_grid(self):
        # the sweep's groups hold all four policies: the grid stays whole
        cfgs = cell_configs(make_resolved("sim.k=10", "sim.s=20"), access.POLICY_KINDS)
        runs, computed = batch_runs(cfgs, 100)
        assert computed == 100 * 10 * 20
        alone = [batch_runs([cfg], 100)[0][0] for cfg in cfgs]
        assert_runs_equal(runs, alone)


def s_curve(cfgs):
    """One policy's (S, aggregate) curve over its cells."""
    return [(cfg.s, agg) for cfg, (agg, _traces) in zip(cfgs, run_groups(cfgs))]


class TestOptimalOverS:
    def test_single_value_is_trivially_optimal(self):
        cfgs = cell_configs(make_resolved("sim.trials=20"), ["carp"], "S", [8])
        report = optimal_over_s(s_curve(cfgs))
        assert report.best_throughput[0] == 8
        assert report.best_ee[0] == 8

    def test_argmax_contract(self):
        resolved = make_resolved("sim.trials=60", "sim.k=4")
        report = optimal_over_s(s_curve(cell_configs(resolved, ["carp"], "S", [2, 5, 9])))
        best_g = report.best_throughput[1]
        best_ee = report.best_ee[1]
        for _s, agg in report.curve:
            assert agg.mean_throughput <= best_g
            assert agg.ee_ratio_of_means <= best_ee

    def test_always_decodable_device_prefers_fewest_slots(self):
        # one aligned always-decoded device: throughput is 1/((1+r) S), so the
        # smallest S must win and every curve point matches the closed form
        resolved = make_resolved(*ALIGNED, "policy.sscp_s=1", "sim.trials=40")
        report = optimal_over_s(s_curve(cell_configs(resolved, ["sscp"], "S", [2, 4, 8])))
        for s, agg in report.curve:
            assert agg.mean_a == 1.0
            assert agg.mean_throughput == 1.0 / ((1.0 + 0.2) * s * 1.0)
        assert report.best_throughput[0] == 2
        assert report.best_ee[0] == 2

    def test_ties_go_to_the_smaller_s(self):
        # nothing clears a 200 dB threshold: every S ties at zero, in any cell order
        resolved = make_resolved("radio.snr_threshold_db=200", "sim.trials=5")
        cfgs = cell_configs(resolved, ["carp"], "S", [5, 3, 4])
        report = optimal_over_s(s_curve(cfgs)[::-1])
        assert report.best_throughput == (3, 0.0)
        assert report.best_ee == (3, 0.0)


class TestAggregateBounds:
    def test_mean_throughput_bounded_by_load(self):
        for kind, r_eff in (("carp", 0.2), ("crdsap", 0.0)):
            cfg = make_cfg(f"policy.kind={kind}", "sim.trials=150", "sim.k=6", "sim.s=7")
            agg = run_monte_carlo(cfg)
            assert agg.mean_a <= cfg.k
            assert agg.mean_throughput <= cfg.k / ((1.0 + r_eff) * cfg.s * 1.0) + 1e-12
