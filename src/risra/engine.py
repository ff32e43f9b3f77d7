"""Frame simulation, Monte Carlo aggregation, parameter sweeps, optimal slot search.

Reproducibility contract: every random number of trial t comes from one
counter-based Philox stream keyed by SeedSequence(entropy=seed,
spawn_key=(t,)), consumed in a fixed stage order: device placement first
(distances, then angles), estimation noise second (only when the noise std is
positive), access-policy draws last. Results are therefore bit-identical for
a given (config, seed) regardless of how trials are scheduled or how many
worker processes run them. Because placement draws precede policy draws,
different policies at the same seed contend over identical device drops.

There is one frame pipeline, _simulate_batch. It draws each trial's numbers
from that trial's own stream, then computes the SNR grid, the slot choice,
the SIC peel and the frame metrics for the whole batch at once.
run_monte_carlo feeds it batches of _BATCH trials; simulate_frame is a batch
of one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from . import access, channel, power_metrics, receiver
from .channel import phase_shift_set
from .config import ScenarioConfig

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the substream identified by (seed, *path)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))
    )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The random stream owned by one trial."""
    return substream(seed, trial)


@dataclass(slots=True)
class TrialResult:
    """One frame's outcome."""

    successes: int
    replica_counts: np.ndarray
    throughput_pps: float
    power_w: float
    energy_efficiency: float
    trace: tuple[tuple[int, int, int], ...] | None = None


@dataclass(slots=True)
class AggregateResult:
    """Monte Carlo aggregate over independent frames.

    ee_ratio_of_means is mean throughput over mean power (the headline
    estimator); ee_mean_of_ratios averages the per-frame efficiency and is
    reported alongside for transparency.
    """

    mean_a: float
    mean_throughput: float
    ci95_throughput: float
    mean_power_w: float
    ci95_power_w: float
    ee_ratio_of_means: float
    ee_mean_of_ratios: float
    trials: int
    seed: int


def simulate_frame(
    cfg: ScenarioConfig, rng: np.random.Generator, keep_trace: bool = False
) -> TrialResult:
    """Run one frame end to end: drop devices, measure, contend, decode, meter.

    The frame pipeline on a batch of one stream, so it is deterministic given
    (cfg, rng state) and equals trial t of run_monte_carlo when rng is
    trial_rng(cfg.seed, t).
    """
    a, g, p, counts, traces = _simulate_batch(cfg, [rng], phase_shift_set(cfg.s), keep_trace)
    return TrialResult(
        successes=int(a[0]),
        replica_counts=counts[0],
        throughput_pps=float(g[0]),
        power_w=float(p[0]),
        energy_efficiency=power_metrics.energy_efficiency(float(g[0]), float(p[0])),
        trace=tuple(traces[0]) if keep_trace else None,
    )


_BATCH = 256  # trials per vectorized batch; keeps the SNR block under ~2 MB


def _simulate_batch(
    cfg: ScenarioConfig,
    rngs: list[np.random.Generator],
    phases: tuple[float, ...],
    keep_traces: bool,
):
    """The frame pipeline over a batch of trial streams.

    Each stream yields its trial's placement, then its access draws, in the
    stream order above; everything after the draws runs on (b, k, s) arrays.
    Returns per-trial (successes, throughput, power, replica counts) arrays
    and, with keep_traces, each trial's decode trace (else None).
    """
    k, s, policy = cfg.k, cfg.s, cfg.policy
    d_range = (cfg.mtd_d_min_m, cfg.mtd_d_max_m)
    a_range = (cfg.mtd_angle_min_rad, cfg.mtd_angle_max_rad)
    per_trial = [
        (
            *channel.sample_mtd_placements(rng, k, d_range, a_range),
            *access.draw_trial(policy, cfg.estimation_noise_std, rng, k, s),
        )
        for rng in rngs
    ]
    distances, angles, *draws = (np.array(column) for column in zip(*per_trial))
    gamma = channel.snr_matrix(
        cfg.ris, cfg.radio, cfg.ap, cfg.mtd_gain, distances, angles, phases
    )
    chosen = access.choose_slots(
        policy, gamma, draws, cfg.estimation_c, cfg.estimation_noise_std
    )

    threshold = cfg.radio.snr_threshold
    frames = zip(chosen, gamma)
    if keep_traces:
        traces = [receiver.peel_trace(mask, snr, threshold) for mask, snr in frames]
        decoded = [len(trace) for trace in traces]
    else:
        traces = None
        decoded = [receiver.peel(mask, snr, threshold) for mask, snr in frames]
    a = np.array(decoded, dtype=float)
    counts = chosen.sum(axis=-1)
    p, g = power_metrics.frame_metrics(
        cfg.power,
        cfg.timing,
        cfg.ris.n_elements,
        counts,
        a,
        power_training_used=cfg.training_used,
        frame_training_used=policy.requires_training,
    )
    return a, g, p, counts, traces


def _simulate_range(cfg: ScenarioConfig, start: int, stop: int, keep_traces: bool = False):
    """Simulate trials [start, stop); returns per-trial metric arrays (and traces)."""
    phases = phase_shift_set(cfg.s)
    parts = [
        _simulate_batch(
            cfg,
            [trial_rng(cfg.seed, t) for t in range(lo, min(lo + _BATCH, stop))],
            phases,
            keep_traces,
        )
        for lo in range(start, stop, _BATCH)
    ]
    a, g, p = (np.concatenate([part[i] for part in parts]) for i in range(3))
    traces = [trace for part in parts for trace in part[4]] if keep_traces else None
    return a, g, p, traces


def _ci95(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return Z95 * float(values.std(ddof=1)) / math.sqrt(values.size)


def _aggregate(cfg: ScenarioConfig, a: np.ndarray, g: np.ndarray, p: np.ndarray) -> AggregateResult:
    mean_g = float(g.mean())
    mean_p = float(p.mean())
    return AggregateResult(
        mean_a=float(a.mean()),
        mean_throughput=mean_g,
        ci95_throughput=_ci95(g),
        mean_power_w=mean_p,
        ci95_power_w=_ci95(p),
        ee_ratio_of_means=mean_g / mean_p,
        ee_mean_of_ratios=float((g / p).mean()),
        trials=cfg.trials,
        seed=cfg.seed,
    )


def _run(cfg: ScenarioConfig, keep_traces: bool):
    """Run cfg.trials frames; returns the aggregate and, with keep_traces, each trial's trace.

    Trials are fanned out over cfg.workers forked processes when possible;
    per-trial substreams and index-ordered reduction make the result
    independent of the worker count.
    """
    workers = min(cfg.workers, cfg.trials)
    if workers > 1 and os.name == "posix":
        bounds = np.linspace(0, cfg.trials, workers + 1, dtype=int).tolist()
        jobs = [(cfg, lo, hi, keep_traces) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        with get_context("fork").Pool(len(jobs)) as pool:
            parts = pool.starmap(_simulate_range, jobs)
    else:
        parts = [_simulate_range(cfg, 0, cfg.trials, keep_traces)]
    a, g, p = (np.concatenate([part[i] for part in parts]) for i in range(3))
    traces = [trace for part in parts for trace in part[3]] if keep_traces else None
    return _aggregate(cfg, a, g, p), traces


def run_monte_carlo(cfg: ScenarioConfig) -> AggregateResult:
    """Run cfg.trials independent frames and aggregate."""
    return _run(cfg, keep_traces=False)[0]


def run_monte_carlo_with_traces(cfg: ScenarioConfig) -> tuple[AggregateResult, list]:
    """run_monte_carlo that also returns each trial's decode trace, in trial order."""
    return _run(cfg, keep_traces=True)


def run_cells(cfgs: list[ScenarioConfig], run, progress=None) -> list:
    """run(cfg) for each cell in order, calling progress(done, total) after each."""
    results = []
    for done, cfg in enumerate(cfgs, start=1):
        results.append(run(cfg))
        if progress is not None:
            progress(done, len(cfgs))
    return results


def sweep(cfgs: list[ScenarioConfig], progress=None) -> list[AggregateResult]:
    """Each cell's Monte Carlo aggregate, in order."""
    return run_cells(cfgs, run_monte_carlo, progress)


@dataclass(slots=True)
class OptimalSReport:
    """Full per-S curve plus the argmax S for throughput and for efficiency."""

    curve: tuple[tuple[int, AggregateResult], ...]
    best_throughput: tuple[int, float]
    best_ee: tuple[int, float]


def optimal_over_s(cfgs: list[ScenarioConfig], progress=None) -> OptimalSReport:
    """Run one policy's cells over S and pick the best S; ties resolve to the smaller S."""
    curve = tuple((cfg.s, agg) for cfg, agg in zip(cfgs, sweep(cfgs, progress)))
    best_g = max(curve, key=lambda item: (item[1].mean_throughput, -item[0]))
    best_ee = max(curve, key=lambda item: (item[1].ee_ratio_of_means, -item[0]))
    return OptimalSReport(
        curve=curve,
        best_throughput=(best_g[0], best_g[1].mean_throughput),
        best_ee=(best_ee[0], best_ee[1].ee_ratio_of_means),
    )
