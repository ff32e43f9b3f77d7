import contextlib
import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risra import access, channel, engine
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
    simulate_frame,
    trial_rng,
)
from oracles import KEY_SEEDS, frame_traces, peel_trace, substream


def make_cfg(*overrides):
    cfg, _resolved = parse_config(None, list(overrides))
    return cfg


def make_resolved(*overrides):
    return resolve_config(None, list(overrides))


def policy_k(cfgs):
    return [(cfg.policy.kind, cfg.k) for cfg in cfgs]


def same_runs(got, expected):
    """run_groups results alike: equal aggregates and equal trace arrays, cell by cell."""
    return len(got) == len(expected) and all(
        agg == want and np.array_equal(trace, want_trace)
        for (agg, trace), (want, want_trace) in zip(got, expected)
    )


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


def trial_keys(seed, trials):
    """The (trials, 2) Philox keys of trials 0..trials-1, the frame pipeline's input."""
    return engine._trial_keys(seed, 0, trials)


def key_of(rng):
    return rng.bit_generator.state["state"]["key"].tolist()


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
    """The trial keys (engine._trial_keys), the streams they key (engine._streams) and trial_rng."""

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_keys_match_seed_sequence(self, seed):
        for trial, key in enumerate(engine._trial_keys(seed, 0, 3000)):
            spawned = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
            assert np.array_equal(key, spawned.generate_state(2, np.uint64)), trial

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_last_trial_index_matches_seed_sequence(self, seed):
        last = 2**32 - 1
        [key] = engine._trial_keys(seed, last, last + 1)
        spawned = np.random.SeedSequence(entropy=seed, spawn_key=(last,))
        assert np.array_equal(key, spawned.generate_state(2, np.uint64))
        assert key_of(trial_rng(seed, last)) == key.tolist()

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_rekeyed_draws_match_oracle(self, seed):
        # one reused generator, drawn from in every way, must equal a fresh
        # SeedSequence-keyed generator per trial
        streams = engine._streams(engine._trial_keys(seed, 40, 300))
        for trial, rng in enumerate(streams, start=40):
            got, want = draw_sequence(rng), draw_sequence(substream(seed, trial))
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), trial

    def test_streams_depend_only_on_the_trial_index(self):
        whole = engine._trial_keys(5, 0, 20)
        chunks = ((0, 7), (7, 8), (8, 20))
        parts = [engine._trial_keys(5, lo, hi) for lo, hi in chunks]
        assert np.array_equal(whole, np.concatenate(parts))
        draws = [rng.random(2) for rng in engine._streams(whole)]
        assert np.array_equal(draws, [trial_rng(5, trial).random(2) for trial in range(20)])

    def test_empty_range_yields_nothing(self):
        keys = engine._trial_keys(1, 9, 9)
        assert keys.shape == (0, 2)
        assert list(engine._streams(keys)) == []

    @pytest.mark.parametrize("seed, start, stop", [
        (-1, 0, 1), (1, -1, 2), (1, 0, 2**32 + 1), (1, 2**32 + 1, 2**32 + 2),
    ])
    def test_seed_or_trials_outside_the_key_words_raise(self, seed, start, stop):
        # SeedSequence refuses a negative seed; masking it would alias 2**32 - 1
        with pytest.raises(ValueError):
            engine._trial_keys(seed, start, stop)
        if stop == start + 1:
            with pytest.raises(ValueError):
                trial_rng(seed, start)


class TestSimulateFrame:
    def test_single_aligned_device_always_decodes(self):
        cfg = aligned_cfg("policy.kind=sscp", "policy.sscp_s=1")
        for trial in range(60):
            frame = simulate_frame(cfg, trial)
            assert frame.successes == 1

    def test_two_devices_sharing_both_slots_never_decode(self):
        cfg = make_cfg("sim.k=2", "sim.s=2", "policy.kind=sscp", "policy.sscp_s=2")
        for trial in range(40):
            frame = simulate_frame(cfg, trial)
            assert frame.successes == 0

    def test_baseline_config_stays_in_range(self):
        cfg = make_cfg()
        frame = simulate_frame(cfg, 0)
        assert 0 <= frame.successes <= cfg.k
        assert frame.replica_counts.sum() >= cfg.k

    def test_deterministic_in_rng_state(self):
        cfg = dataclasses.replace(make_cfg(), seed=9)
        a = simulate_frame(cfg, 4)
        b = simulate_frame(cfg, 4)
        assert a.successes == b.successes
        assert a.power_w == b.power_w
        assert np.array_equal(a.replica_counts, b.replica_counts)

    @pytest.mark.parametrize("noise_std", [0.0, 2.0])
    @pytest.mark.parametrize("kind", access.POLICY_KINDS)
    def test_frame_is_its_trial_of_the_run(self, monkeypatch, kind, noise_std):
        # trial t of a run on 1 or 2 workers, every per-trial result and its
        # trace rows, is simulate_frame(cfg, t)
        cfg = make_cfg("sim.trials=40", "sim.k=7", "sim.s=9", f"policy.kind={kind}",
                       f"estimation.noise_std={noise_std}")
        frames = [simulate_frame(cfg, trial, True) for trial in range(cfg.trials)]
        [(_a, _g, _p, counts, _trace)] = _simulate_batch([[cfg]], trial_keys(cfg.seed, 40), False)
        results, parts = engine._results, []

        def recorded(work, workers):
            for part in results(work, workers):
                parts.append(part)
                yield part

        monkeypatch.setattr(engine, "_results", recorded)
        for workers in (1, 2):
            parts.clear()
            [(_agg, trace)] = run_groups([dataclasses.replace(cfg, workers=workers)], True)
            # one member per job: each part is [(a, g, p, trace)] of its trial range
            a, g, p, joined = map(np.concatenate, zip(*[part for [part] in parts]))
            assert len(parts) == min(workers, os.cpu_count()) and np.array_equal(joined, trace)
            for trial, frame in enumerate(frames):
                assert (frame.successes, frame.throughput_pps, frame.power_w) == (
                    a[trial], g[trial], p[trial])
                assert frame.energy_efficiency == g[trial] / p[trial]
                assert np.array_equal(frame.replica_counts, counts[trial])
                rows = trace[trace[:, 0] == trial]
                assert frame.trace.dtype == rows.dtype and np.array_equal(frame.trace, rows)
        assert simulate_frame(cfg, 3).trace.shape == (0, 4)

    @pytest.mark.parametrize("trial", [-1, 2**32, 2**70, pytest.param(10**400, id="10**400")])
    def test_a_trial_outside_the_key_word_raises(self, trial):
        # a trial index is one 32-bit spawn word; 2**70 is wider than an int64,
        # and the 10**400 range was echoed in full, 852 characters
        with pytest.raises(ValueError, match="2\\*\\*32-1") as frame_error:
            simulate_frame(make_cfg(), trial)
        with pytest.raises(ValueError, match="2\\*\\*32-1") as stream_error:
            trial_rng(1, trial)
        assert len(str(frame_error.value)) < 100 and len(str(stream_error.value)) < 100


class TestRunMonteCarlo:
    def test_single_trial_degenerates_to_the_frame(self):
        cfg = make_cfg("sim.trials=1")
        agg = run_monte_carlo(cfg)
        frame = simulate_frame(cfg, 0)
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
                [(a, g, p, _)] = _simulate_range([[cfg]], 0, cfg.trials)
                for trial in range(cfg.trials):
                    frame = simulate_frame(cfg, trial)
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
        [(a, g, p, _)] = _simulate_range([[cfg]], 0, 40)
        for trial in (31, 7, 18):
            frame = simulate_frame(cfg, trial)
            assert (frame.successes, frame.power_w) == (a[trial], p[trial])

    def test_ratio_of_means_identity(self):
        agg = run_monte_carlo(make_cfg("sim.trials=200"))
        assert agg.ee_ratio_of_means == agg.mean_throughput / agg.mean_power_w

    def test_crdsap_replica_total_every_trial(self):
        cfg = make_cfg("policy.kind=crdsap", "sim.k=10")
        for trial in range(200):
            frame = simulate_frame(cfg, trial)
            assert frame.replica_counts.sum() == 2 * cfg.k

    def test_traces_variant_matches_plain_run(self):
        cfg = make_cfg("sim.trials=50")
        [(agg, trace)] = run_groups([cfg], True)
        assert agg == run_monte_carlo(cfg)
        # one trace per trial, each that trial's frame (frame_traces asserts the form)
        frame_traces(trace, 50)
        assert np.array_equal(
            np.concatenate([simulate_frame(cfg, trial, keep_trace=True).trace for trial in range(50)]),
            trace)
        # the pooled path returns the same aggregate and the traces in trial order
        assert same_runs(run_groups([dataclasses.replace(cfg, workers=2)], True), [(agg, trace)])


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
            chosen = access.choose_slots(cfg.policy, gamma, (), cfg.s)
            trace = peel_trace(rx.peel_batch, chosen, gamma, cfg.radio.snr_threshold)

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
    distances, angles, [(normals, draws)] = _batch_draws([cfg], trial_keys(cfg.seed, cfg.trials))
    gamma = channel.snr_matrix(
        cfg.ris, cfg.radio, cfg.ap, cfg.mtd_gain, distances, angles,
        channel.phase_shift_set(cfg.s),
    )
    quality = access.measure_quality(gamma, cfg.estimation_c, cfg.estimation_noise_std, normals)
    chosen = access.choose_slots(cfg.policy, quality, draws, cfg.s)
    [(a, _g, _p, _traces)] = _simulate_range([[cfg]], 0, cfg.trials)
    assert np.array_equal(rx.peel_batch(chosen, gamma, cfg.radio.snr_threshold)[0], a)
    return chosen, a


def louder(cfg, factor):
    """cfg with the device transmit power, RadioParams' one field, scaled by factor."""
    return dataclasses.replace(
        cfg, radio=dataclasses.replace(cfg.radio, mtd_tx_power_w=cfg.radio.mtd_tx_power_w * factor))


class TestPowerScaling:
    """Metamorphic: scaling the device transmit power by 2**m scales every SNR exactly,
    and the devices' PA terms of the frame power with it."""

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
        masks, decoded = zip(*(masks_and_decoded(louder(cfg, 2.0**m)) for m in range(-3, 4)))
        assert all(np.array_equal(mask, masks[0]) for mask in masks[1:])
        assert np.all(np.diff(np.stack(decoded), axis=0) >= 0)

    @pytest.mark.parametrize("kind", access.POLICY_KINDS)
    def test_device_power_follows_the_transmit_power(self, kind):
        # the PA is charged for the power that sets the SNR: doubling it keeps
        # every mask and doubles each frame's replica term, xi * rho per replica
        cfg = make_cfg(f"policy.kind={kind}", "sim.trials=64")
        keys = trial_keys(cfg.seed, cfg.trials)
        [(_a, _g, p, counts, _trace)] = _simulate_batch([[cfg]], keys, False)
        [(_a, _g, p_louder, counts_louder, _trace)] = _simulate_batch([[louder(cfg, 2.0)]], keys, False)
        assert np.array_equal(counts_louder, counts)
        replica_w = cfg.power.mtd_pa_inverse_eff * cfg.radio.mtd_tx_power_w * counts.sum(axis=-1)
        np.testing.assert_allclose(p_louder - p, replica_w, rtol=1e-9)


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

    def test_axis_rho_sets_the_one_transmit_power(self):
        # RadioParams holds the device transmit power, for the SNR and the frame power alike
        [cfg] = cell_configs(make_resolved(), ["carp"], "rho_mtd", [0.05])
        assert cfg.radio.mtd_tx_power_w == 0.05
        holders = [field.name for field in dataclasses.fields(cfg)
                   if hasattr(getattr(cfg, field.name), "mtd_tx_power_w")]
        assert holders == ["radio"]

    @pytest.mark.parametrize("axis, values, keys", [
        ("K", [7, 2], lambda v: [f"sim.k={v}"]),
        ("rho_mtd", [1, 0.05], lambda v: [f"radio.mtd_tx_power_w={v}"]),
        ("N", [100, 4], lambda v: [f"ris.n_x={math.isqrt(v)}", f"ris.n_z={math.isqrt(v)}"]),
        ("S", [20, 3], lambda v: [f"sim.s={v}"]),
    ])
    def test_cells_equal_fully_parsed_configs(self, axis, values, keys):
        # a cell parses only policy.kind and its axis keys; the rest of it is
        # the resolved mapping, as a parse of every key gives it
        base = ("sim.trials=5", "estimation.noise_std=0.5")
        cells = cell_configs(make_resolved(*base), ["sscp", "carp"], axis, values)
        assert cells == [make_cfg(*base, f"policy.kind={kind}", *keys(value))
                         for kind in ("carp", "sscp") for value in sorted(values)]

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
# the axes whose cells draw the same device drops, each with values to sweep
GROUP_AXES = {"S": (1, 2, 3, 7, 20), "rho_mtd": (0.005, 0.01, 0.04), "N": (4, 25, 100)}


def axis_case(draw, s):
    """An axis of GROUP_AXES, one to three of its values, and the least S along it."""
    axis = draw(st.sampled_from(sorted(GROUP_AXES)))
    values = draw(st.lists(st.sampled_from(GROUP_AXES[axis]), min_size=1, max_size=3, unique=True))
    return axis, values, min(values) if axis == "S" else s


def point_indices(kinds, values):
    """A group's points over cells sorted by (policy, value): one per value, in value order."""
    return [[value + kind * len(values) for kind in range(len(kinds))]
            for value in range(len(values))]


@st.composite
def group_cases(draw):
    """A group's flat overrides, its policy subset, its axis and the axis values."""
    k, s = draw(st.sampled_from(GROUP_POINTS))
    axis, values, least = axis_case(draw, s)
    kinds = access.POLICY_KINDS if least >= 2 else ("carp", "sscp")
    overrides = (
        f"sim.k={k}", f"sim.s={s}",
        f"policy.sscp_s={draw(st.integers(1, min(least, 3)))}",
        f"estimation.noise_std={draw(st.sampled_from((0.0, 2.0)))}",
        f"sim.trials={draw(st.sampled_from((1, 255, 257, 300)))}",
        f"sim.workers={draw(st.sampled_from((1, 2)))}",
        f"sim.seed={draw(st.integers(0, 2**64))}",
    )
    return overrides, draw(st.lists(st.sampled_from(kinds), min_size=1, unique=True)), axis, values


class TestCellGroups:
    """A group of cells that draw the same device drops equals its cells run one by one."""

    @given(group_cases())
    @example((("sim.k=10", "sim.s=20", "policy.sscp_s=3", "estimation.noise_std=2.0",
               "sim.trials=257", "sim.workers=2", "sim.seed=1"), list(access.POLICY_KINDS),
              "S", [3, 20]))
    @example((("sim.k=3", "sim.s=1", "policy.sscp_s=1", "estimation.noise_std=2.0",
               "sim.trials=255", "sim.workers=1", "sim.seed=7"), ["carp", "sscp"],
              "rho_mtd", [0.005, 0.01]))
    @settings(max_examples=30, deadline=None)
    def test_group_equals_its_cells_alone(self, case):
        overrides, kinds, axis, values = case
        cfgs = cell_configs(make_resolved(*overrides), kinds, axis, values)
        assert _groups(cfgs) == [point_indices(kinds, values)]
        grouped = run_groups(cfgs, keep_traces=True)
        for cfg, run in zip(cfgs, grouped):
            assert same_runs([run], run_groups([dataclasses.replace(cfg, workers=1)], True))

    def test_groups_follow_the_axis_and_keep_the_cell_order(self):
        cfgs = cell_configs(make_resolved("sim.trials=30", "sim.s=6"), ["sscp", "crdsap", "carp"],
                            "K", [2, 5])
        assert policy_k(cfgs) == [
            ("carp", 2), ("carp", 5), ("crdsap", 2), ("crdsap", 5), ("sscp", 2), ("sscp", 5)
        ]
        assert _groups(cfgs) == [[[0, 2, 4]], [[1, 3, 5]]]
        seen = []
        runs = run_groups(cfgs, finished=lambda indices, seconds: seen.append(indices))
        assert seen == [[0, 2, 4], [1, 3, 5]]
        assert [agg for agg, _traces in runs] == [run_monte_carlo(cfg) for cfg in cfgs]

    def test_group_peels_once_per_batch(self, monkeypatch):
        # a job holds at most 256 * 20 * 20 grid entries, b·k·s: 44 trials past
        # one full job are two batches; each peels the four members' stacked
        # masks in one call, and the results stay those of the cells alone
        batch = 256 * 20 * 20 // (6 * 7)
        cfgs = cell_configs(make_resolved(f"sim.trials={batch + 44}", "sim.workers=1",
                                          "sim.k=6", "sim.s=7"), access.POLICY_KINDS)
        alone = [run_groups([cfg], True)[0] for cfg in cfgs]
        peel, shapes = rx.peel_batch, []

        def counted(chosen, *args):
            shapes.append(chosen.shape)
            return peel(chosen, *args)

        monkeypatch.setattr(rx, "peel_batch", counted)
        assert same_runs(run_groups(cfgs, keep_traces=True), alone)
        assert shapes == [(4, batch, 6, 7), (4, 44, 6, 7)]

    def test_a_noisy_group_measures_once_per_batch(self, monkeypatch):
        # carp and sscp draw the same normals after the placement: one read of
        # the batch's streams and one quality grid serve both members, and
        # each still equals its cell alone
        cfgs = cell_configs(make_resolved("sim.trials=100", "sim.workers=1", "sim.k=6",
                                          "sim.s=7", "estimation.noise_std=2.0"), ["carp", "sscp"])
        alone = [run_groups([cfg], True)[0] for cfg in cfgs]
        calls = []
        for module, name in ((engine, "_streams"), (access, "measure_quality")):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        assert same_runs(run_groups(cfgs, True), alone)
        assert calls == ["_streams", "measure_quality"]

    @pytest.mark.parametrize("noise_std, reads", [(0.0, 1), (2.0, 6)])
    def test_an_s_sweep_reads_each_trial_once(self, monkeypatch, noise_std, reads):
        # an optimal-s cell list over S = 2..6 is one group: a batch re-keys each
        # trial once for all 20 cells and decodes its words to unit doubles once,
        # and each point still builds one grid and makes one peel; with noise,
        # carp and sscp at each S take one more read for their normals
        cfgs = cell_configs(make_resolved("sim.trials=200", "sim.k=6",
                                          f"estimation.noise_std={noise_std}"),
                            access.POLICY_KINDS, "S", range(2, 7))
        assert _groups(cfgs) == [point_indices(access.POLICY_KINDS, range(2, 7))]
        alone = [run_groups([cfg], True)[0] for cfg in cfgs]
        streams, rekeys, redrawn, units, peels = engine._streams, [], [], [], []

        def counted_streams(keys):
            for rng in streams(keys):
                rekeys.append(key_of(rng))
                yield rng

        def counted(calls, fn):
            def call(*args):
                calls.append(args)
                return fn(*args)
            return call

        monkeypatch.setattr(engine, "_streams", counted_streams)
        monkeypatch.setattr(access, "crdsap_indices", counted(redrawn, access.crdsap_indices))
        monkeypatch.setattr(channel, "unit_doubles", counted(units, channel.unit_doubles))
        monkeypatch.setattr(rx, "peel_batch", counted(peels, rx.peel_batch))
        assert same_runs(run_groups(cfgs, keep_traces=True), alone)
        # a rejected crdsap row re-keys its trial once more (none at this seed)
        assert len(rekeys) == reads * 200 + len(redrawn)
        assert redrawn == []
        # the placement's words, then each read's words after it
        assert len(units) == 1 + reads
        assert [chosen.shape for chosen, *_ in peels] == [(4, 200, 6, s) for s in range(2, 7)]

    def test_a_group_holds_a_bounded_number_of_results(self, monkeypatch):
        # a group holds its members' per-trial results until its last job: past
        # _RESULTS member-trials its consecutive points are cut into groups of
        # their own, and every cell still equals its run alone
        cfgs = cell_configs(make_resolved("sim.trials=50", "sim.k=6"), ["carp", "crdsap"], "S",
                            range(2, 7))
        alone = [run_groups([cfg], True)[0] for cfg in cfgs]
        monkeypatch.setattr(engine, "_RESULTS", 2 * 2 * 50)
        assert _groups(cfgs) == [[[0, 5], [1, 6]], [[2, 7], [3, 8]], [[4, 9]]]
        seen = []
        runs = run_groups(cfgs, True, lambda indices, _seconds: seen.append(indices))
        assert same_runs(runs, alone)
        assert seen == [[0, 1, 5, 6], [2, 3, 7, 8], [4, 9]]
        # a point is never cut: each is a group of its own below one point's results
        monkeypatch.setattr(engine, "_RESULTS", 1)
        assert _groups(cfgs) == [[[s, s + 5]] for s in range(5)]

    def test_group_redraws_a_rejected_crdsap_row(self, monkeypatch):
        # flag every fifth crdsap row as a Lemire rejection: numpy's own redraw
        # from a fresh stream of the row's key must give back the same draws
        cfgs = cell_configs(make_resolved("sim.trials=300", "sim.k=6", "sim.s=7",
                                          "estimation.noise_std=2.0"), access.POLICY_KINDS)
        alone = [run_groups([cfg], True)[0] for cfg in cfgs]
        decode, indices = access.decode_draws, access.crdsap_indices
        redrawn = []

        def forced(policy, words, units, k, s):
            draws, rejected = decode(policy, words, units, k, s)
            if policy.kind == "crdsap":
                rejected = rejected.copy()
                rejected[::5] = True
            return draws, rejected

        def counted(rng, k, s):
            redrawn.append(k)
            return indices(rng, k, s)

        monkeypatch.setattr(access, "decode_draws", forced)
        monkeypatch.setattr(access, "crdsap_indices", counted)
        assert same_runs(run_groups(cfgs, keep_traces=True), alone)
        assert len(redrawn) == len(range(0, 300, 5))  # one batch of 300 trials


def forced_rejections(every: int = 3):
    """Patch crdsap's decoder to flag every `every`-th row of each batch as a Lemire
    rejection, so those rows are drawn again from fresh streams of their keys."""
    decode = access.decode_draws

    def forced(policy, words, units, k, s):
        draws, rejected = decode(policy, words, units, k, s)
        if policy.kind == "crdsap":
            rejected = rejected.copy()
            rejected[::every] = True
        return draws, rejected

    return mock.patch.object(access, "decode_draws", forced)


# (K, S) points of the job tests: S = 1 admits only the trained policies
JOB_POINTS = ((3, 1), (4, 2), (10, 5), (10, 20), (20, 20))


@st.composite
def job_cases(draw):
    """A group's flat overrides, policies, axis and axis values, the trials per job, the
    worker count, a shuffler of the job list and whether crdsap rows are forced to redraw."""
    k, s = draw(st.sampled_from(JOB_POINTS))
    axis, values, least = axis_case(draw, s)
    kinds = access.POLICY_KINDS if least >= 2 else ("carp", "sscp")
    size = draw(st.sampled_from((1, 7, 64, 256)))
    # on, just before or just after a job boundary
    trials = max(1, size * draw(st.integers(1, 2)) + draw(st.integers(-1, 1)))
    overrides = (
        f"sim.k={k}", f"sim.s={s}",
        f"policy.sscp_s={draw(st.integers(1, min(least, 3)))}",
        f"estimation.noise_std={draw(st.sampled_from((0.0, 2.0)))}",
        f"sim.trials={trials}",
        f"sim.seed={draw(st.integers(0, 2**64))}",
    )
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, unique=True))
    return (overrides, kinds, axis, values, size, draw(st.sampled_from((1, 2))),
            draw(st.randoms(use_true_random=False)), draw(st.booleans()))


class TestJobs:
    """A command's outputs do not depend on the batch size, the worker count or
    the order its jobs run in."""

    @given(job_cases())
    @example((("sim.k=10", "sim.s=5", "policy.sscp_s=2", "estimation.noise_std=2.0",
               "sim.trials=129", "sim.seed=1"), list(access.POLICY_KINDS), "S", [2, 5], 64, 2,
              random.Random(3), True))
    @settings(max_examples=30, deadline=None)
    def test_outputs_do_not_depend_on_the_jobs(self, case):
        overrides, kinds, axis, values, size, workers, order, force = case
        # two groups: the axis's cells at two seeds
        resolved = make_resolved(*overrides)
        cfgs = [cfg for seed in (resolved["sim.seed"], resolved["sim.seed"] + 1)
                for cfg in cell_configs({**resolved, "sim.seed": seed}, kinds, axis, values)]
        cells, points = len(cfgs) // 2, point_indices(kinds, values)
        assert _groups(cfgs) == [points, [[cells + i for i in point] for point in points]]
        # a job's trials are sized by the group's largest S
        k, s = cfgs[0].k, max(cfg.s for cfg in cfgs)
        reference = run_groups([dataclasses.replace(cfg, workers=1) for cfg in cfgs], True)
        results, seen = engine._results, []

        def shuffled(work, workers):
            # the jobs run in a shuffled order; their results come back in job order
            ran = list(range(len(work)))
            order.shuffle(ran)
            done = dict(zip(ran, results([work[i] for i in ran], workers), strict=True))
            return (done[i] for i in range(len(work)))

        with (mock.patch.object(engine, "_ENTRIES", size * k * s),
              mock.patch.object(engine, "_results", shuffled),
              forced_rejections() if force else contextlib.nullcontext()):
            runs = run_groups([dataclasses.replace(cfg, workers=workers) for cfg in cfgs], True,
                              lambda indices, _seconds: seen.append(indices))
        assert same_runs(runs, reference)
        # once per group, in group order, whatever order the jobs ran in
        assert seen == [list(range(cells)), list(range(cells, 2 * cells))]

    def test_jobs_are_sized_by_grid_entries(self):
        def sizes(*overrides):
            cfg = make_cfg(*overrides)
            return [hi - lo for _index, lo, hi in engine._jobs([[[cfg]]], cfg.workers)]

        assert sizes("sim.k=20", "sim.s=20", "sim.trials=600") == [256, 256, 88]
        assert sizes("sim.k=10", "sim.s=20", "sim.trials=600") == [512, 88]
        assert sizes("sim.k=10", "sim.s=5", "sim.trials=2000") == [2000]
        assert sizes("sim.k=40", "sim.s=40", "sim.trials=100") == [64, 36]
        # with workers, a lone group still spreads over all of them
        assert sizes("sim.k=10", "sim.s=5", "sim.trials=2001", "sim.workers=2") == [1001, 1000]
        assert sizes("sim.k=20", "sim.s=20", "sim.trials=600", "sim.workers=2") == [256, 256, 88]
        # in group and trial order, the order run_groups joins their results in
        groups = [[[make_cfg("sim.trials=600")]], [[make_cfg("sim.k=20", "sim.trials=300")]]]
        assert engine._jobs(groups, 1) == [(0, 0, 512), (0, 512, 600), (1, 0, 256), (1, 256, 300)]
        # a group's ranges are sized by its largest S: S = 5 alone would take 2048 trials
        s_sweep = [[make_cfg(f"sim.s={s}", "sim.trials=600")] for s in (5, 20)]
        assert engine._jobs([s_sweep], 1) == [(0, 0, 512), (0, 512, 600)]

    def test_a_redraw_restarts_its_own_trial(self, monkeypatch):
        # a flagged row of a later job is drawn again from its own trial's stream,
        # not from the stream of its row index within the job
        cfg = make_cfg("policy.kind=crdsap", "sim.k=6", "sim.s=7", "sim.trials=300")
        alone = run_groups([cfg], True)[0]
        indices, restarted = access.crdsap_indices, []

        def recorded(rng, k, s):
            restarted.append(key_of(rng))
            return indices(rng, k, s)

        monkeypatch.setattr(engine, "_ENTRIES", 64 * 6 * 7)
        monkeypatch.setattr(access, "crdsap_indices", recorded)
        with forced_rejections():
            assert same_runs(run_groups([cfg], True), [alone])
        assert restarted == [key_of(trial_rng(cfg.seed, lo + row)) for lo in range(0, 300, 64)
                             for row in range(0, min(64, 300 - lo), 3)]


def on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


glibc_only = pytest.mark.skipif(not on_glibc(), reason="the heap thresholds are glibc's")

# a second run of one cell's 4096 frames, counting this process's minor faults
SECOND_RUN = """
import resource
from risra.config import parse_config
from risra.engine import run_monte_carlo
cfg, _ = parse_config(None, ["sim.k=10", "sim.s=5", "sim.trials=4096"])
run_monte_carlo(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_monte_carlo(cfg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / cfg.trials)
"""


@pytest.fixture
def stand_in_pools(monkeypatch):
    """The (processes, initializer) of every pool asked for; a stand-in context
    runs the pool's jobs in this process, so no process starts."""
    pools = []

    class Pool:
        def __init__(self, processes, initializer=None):
            pools.append((processes, initializer))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(engine, "get_context", lambda method: mock.Mock(Pool=Pool))
    return pools


class TestHeap:
    """On glibc every process that runs jobs keeps a batch's freed memory for the next."""

    @glibc_only
    def test_a_second_run_barely_faults(self):
        # a fresh process: the thresholds of a long session depend on what ran before
        env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", SECOND_RUN], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert float(out.stdout) < 0.05

    @glibc_only
    def test_both_thresholds_take(self):
        assert engine._keep_heap() == (1, 1)

    def test_no_ctypes_call_off_glibc(self, monkeypatch):
        def no_glibc(name):
            raise ValueError("unrecognized configuration name")

        monkeypatch.setattr(engine.os, "confstr", no_glibc)
        monkeypatch.setattr(engine.ctypes, "CDLL", mock.Mock(side_effect=AssertionError))
        assert engine._keep_heap() == ()
        engine.ctypes.CDLL.assert_not_called()

    def test_pool_workers_keep_their_heap(self, monkeypatch, stand_in_pools):
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        cfg = make_cfg("sim.k=6", "sim.s=5", "sim.trials=40")
        alone = run_groups([cfg])
        assert same_runs(run_groups([dataclasses.replace(cfg, workers=2)]), alone)
        assert stand_in_pools == [(2, engine._keep_heap)]


@pytest.mark.parametrize("cpus, pools", [(3, [(3, engine._keep_heap)]), (1, []), (None, [])])
def test_pool_is_at_most_the_cpu_count(monkeypatch, stand_in_pools, cpus, pools):
    # sim.workers=1000 runs one process per CPU, and none past this one on
    # one CPU or where the count is unknown
    monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
    cfg = make_cfg("sim.k=6", "sim.s=5", "sim.trials=40")
    assert same_runs(run_groups([dataclasses.replace(cfg, workers=1000)]), run_groups([cfg]))
    assert stand_in_pools == pools


def batch_runs(cfgs, trials):
    """Each member's per-trial (a, g, p, counts, traces) over one batch of trials 0..trials-1,
    and the number of array-factor entries computed."""
    afp = channel.array_factor_power
    sizes = []

    def counted(*args):
        out = afp(*args)
        sizes.append(out.size)
        return out

    with mock.patch.object(channel, "array_factor_power", counted):
        runs = list(_simulate_batch([cfgs], trial_keys(cfgs[0].seed, trials), True))
    return runs, sum(sizes)


def full_grid_runs(cfgs, trials):
    """batch_runs with the mask dropped: every member peels the full grid."""
    full = channel.snr_matrix
    with mock.patch.object(channel, "snr_matrix", lambda *args, mask=None: full(*args)):
        return batch_runs(cfgs, trials)


def assert_runs_equal(got, expected):
    for ours, theirs in zip(got, expected, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs, strict=True))


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
