import dataclasses

import numpy as np
import pytest

from risra import receiver as rx
from risra.config import cell_configs, parse_config, resolve_config
from risra.engine import (
    _simulate_range,
    optimal_over_s,
    run_monte_carlo,
    run_monte_carlo_with_traces,
    simulate_frame,
    substream,
    sweep,
    trial_rng,
)


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


class TestSubstreams:
    def test_same_path_same_draws(self):
        a = substream(123, 7).random(5)
        b = substream(123, 7).random(5)
        assert np.array_equal(a, b)

    def test_different_trials_different_draws(self):
        a = trial_rng(123, 0).random(5)
        b = trial_rng(123, 1).random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_different_draws(self):
        a = trial_rng(1, 0).random(5)
        b = trial_rng(2, 0).random(5)
        assert not np.array_equal(a, b)


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
                a, g, p, _ = _simulate_range(cfg, 0, cfg.trials)
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
        a, g, p, _ = _simulate_range(cfg, 0, 40)
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
        from risra import access, channel

        phases = channel.phase_shift_set(cfg.s)
        for trial in range(150):
            distances, angles = channel.sample_mtd_placements(
                trial_rng(cfg.seed, trial),
                cfg.k,
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


class TestSweep:
    def test_cell_count_and_ordering(self):
        base = make_resolved("sim.trials=5", "sim.s=6")
        cfgs = cell_configs(base, ["crdsap", "carp"], "K", [4, 2, 6])
        assert policy_k(cfgs) == [
            ("carp", 2), ("carp", 4), ("carp", 6), ("crdsap", 2), ("crdsap", 4), ("crdsap", 6)
        ]
        assert sweep(cfgs) == [run_monte_carlo(cfg) for cfg in cfgs]

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


class TestOptimalOverS:
    def test_single_value_is_trivially_optimal(self):
        report = optimal_over_s(cell_configs(make_resolved("sim.trials=20"), ["carp"], "S", [8]))
        assert report.best_throughput[0] == 8
        assert report.best_ee[0] == 8

    def test_argmax_contract(self):
        resolved = make_resolved("sim.trials=60", "sim.k=4")
        report = optimal_over_s(cell_configs(resolved, ["carp"], "S", [2, 5, 9]))
        best_g = report.best_throughput[1]
        best_ee = report.best_ee[1]
        for _s, agg in report.curve:
            assert agg.mean_throughput <= best_g
            assert agg.ee_ratio_of_means <= best_ee

    def test_always_decodable_device_prefers_fewest_slots(self):
        # one aligned always-decoded device: throughput is 1/((1+r) S), so the
        # smallest S must win and every curve point matches the closed form
        resolved = make_resolved(*ALIGNED, "policy.sscp_s=1", "sim.trials=40")
        report = optimal_over_s(cell_configs(resolved, ["sscp"], "S", [2, 4, 8]))
        for s, agg in report.curve:
            assert agg.mean_a == 1.0
            assert agg.mean_throughput == 1.0 / ((1.0 + 0.2) * s * 1.0)
        assert report.best_throughput[0] == 2
        assert report.best_ee[0] == 2

    def test_ties_go_to_the_smaller_s(self):
        # nothing clears a 200 dB threshold: every S ties at zero, in any cell order
        resolved = make_resolved("radio.snr_threshold_db=200", "sim.trials=5")
        cfgs = cell_configs(resolved, ["carp"], "S", [5, 3, 4])
        report = optimal_over_s(cfgs[::-1])
        assert report.best_throughput == (3, 0.0)
        assert report.best_ee == (3, 0.0)


class TestAggregateBounds:
    def test_mean_throughput_bounded_by_load(self):
        for kind, r_eff in (("carp", 0.2), ("crdsap", 0.0)):
            cfg = make_cfg(f"policy.kind={kind}", "sim.trials=150", "sim.k=6", "sim.s=7")
            agg = run_monte_carlo(cfg)
            assert agg.mean_a <= cfg.k
            assert agg.mean_throughput <= cfg.k / ((1.0 + r_eff) * cfg.s * 1.0) + 1e-12
