"""Frame simulation, Monte Carlo aggregation, parameter sweeps, optimal slot search.

Reproducibility contract: every random number of trial t comes from one
counter-based Philox stream keyed by SeedSequence(entropy=seed,
spawn_key=(t,)).generate_state(2, uint64), consumed in a fixed stage order:
device placement first (distances, then angles), estimation noise second
(only when the noise std is positive), access-policy draws last. Results are
therefore bit-identical for a given (config, seed) regardless of how trials
are scheduled or how many worker processes run them. Because placement draws
precede policy draws, different policies at the same seed contend over
identical device drops.

trial_streams derives those keys for a whole range of trials in one numpy
pass, running SeedSequence's published hash on uint32 arrays, and re-keys one
reused Philox generator per trial; a Philox stream is fixed by its key and
counter alone, so this is the same stream as constructing it from the
SeedSequence.

There is one frame pipeline, _simulate_batch. It reads each trial's stream as
raw 64-bit words, 2k for the placement and access.policy_words for the
policy, with one random_raw call per trial, and decodes them on the whole
batch exactly as numpy's Generator would decode them (_batch_draws). It then
computes the SNR grid, the slot choice, the SIC peel (receiver.peel_batch)
and the frame metrics for the whole batch at once. run_monte_carlo feeds it
batches of _BATCH trials; simulate_frame is a batch of one and, like the
batches, expects a fresh trial stream such as trial_rng gives.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Iterable

import numpy as np

from . import access, channel, power_metrics, receiver
from .channel import phase_shift_set
from .config import ScenarioConfig

Z95 = 1.959963984540054  # two-sided 95% normal quantile


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the pool
# hash, the output hash of generate_state, and the pool mixing function
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _hash(value, const: int, mult: int):
    """One step of SeedSequence's hash on ints or uint32 arrays; returns (hash, next const)."""
    after = const * mult & _MASK32
    value = (value ^ const) * after & _MASK32
    return value ^ value >> 16, after


def _mix(x, y):
    out = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return out ^ out >> 16


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence's pool after mixing every word of `seed`, and the hash constant after it.

    The seed's 32-bit words are zero-padded to the pool size, as SeedSequence
    does when a spawn key follows; the spawn word is mixed in by _philox_keys.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    const = _INIT_A
    pool = []
    for word in words[:_POOL]:
        value, const = _hash(word, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL:]:
        for dst in range(_POOL):
            value, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    return pool, const


def _philox_keys(seed: int, trials: np.ndarray) -> np.ndarray:
    """(n, 2) uint64 Philox keys: SeedSequence(seed, spawn_key=(t,)).generate_state(2, uint64)."""
    pool, const = _seed_pool(seed)
    mixed = []
    for word in pool:
        value, const = _hash(trials, const, _MULT_A)
        mixed.append(_mix(word, value))
    const = _INIT_B
    state = []
    for word in mixed:
        value, const = _hash(word, const, _MULT_B)
        state.append(value)
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def trial_streams(seed: int, start: int, stop: int):
    """Yield the random stream of each trial start..stop-1, in order.

    All keys are derived in one pass; one Generator is re-keyed before each
    yield, with a zero counter and empty output buffers, so a consumer must be
    done with a trial's stream before asking for the next. Trial indices are
    one 32-bit spawn word, so stop must not exceed 2**32.
    """
    keys = _philox_keys(seed, np.arange(start, stop, dtype=np.uint32))
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0] * 4, "key": None},
        "buffer": [0] * 4,
        "buffer_pos": 4,  # the 4-word output buffer is spent
        "has_uint32": 0,  # no half of a 64-bit draw is held back for 32-bit draws
        "uinteger": 0,
    }
    for key in keys.tolist():
        fresh["state"]["key"] = key
        bit_generator.state = fresh
        yield rng


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The random stream owned by one trial, on a generator of its own."""
    return next(trial_streams(seed, trial, trial + 1))


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
    trial_rng(cfg.seed, t). rng must be a fresh trial stream: the pipeline
    reads it from its first word.
    """
    start = copy.deepcopy(rng)
    a, g, p, counts, traces = _simulate_batch(
        cfg, [rng], lambda _row: start, phase_shift_set(cfg.s), keep_trace
    )
    return TrialResult(
        successes=int(a[0]),
        replica_counts=counts[0],
        throughput_pps=float(g[0]),
        power_w=float(p[0]),
        energy_efficiency=power_metrics.energy_efficiency(float(g[0]), float(p[0])),
        trace=tuple(traces[0]) if keep_trace else None,
    )


_BATCH = 256  # trials per vectorized batch; keeps the SNR block under ~2 MB


def _batch_draws(
    cfg: ScenarioConfig,
    rngs: Iterable[np.random.Generator],
    restart: Callable[[int], np.random.Generator],
):
    """Each trial's placement and access draws, decoded on the batch from raw words.

    Every trial takes its words with one random_raw call: the placement's 2k,
    then the policy's access.policy_words. A trained policy with estimation
    noise draws its standard normals between the two, on the same stream
    (numpy does not expose its ziggurat tables). The streams are consumed
    strictly one after another, so they may be one re-keyed generator
    (trial_streams). A row whose bounded integers hit a Lemire rejection
    needs more words than were read; it is drawn again from restart(row), a
    fresh copy of its stream.
    Returns device distances and angles (b, k) and the draws choose_slots takes.
    """
    k, s, policy = cfg.k, cfg.s, cfg.policy
    lead, n = 2 * k, access.policy_words(policy, k, s)
    noise = ()
    if access.draws_noise(policy, cfg.estimation_noise_std):
        parts = [
            (rng.bit_generator.random_raw(lead), rng.standard_normal((k, s)),
             rng.bit_generator.random_raw(n))
            for rng in rngs
        ]
        heads, normals, tails = (np.array(column) for column in zip(*parts))
        words, noise = np.concatenate((heads, tails), axis=1), (normals,)
    else:
        words = np.array([rng.bit_generator.random_raw(lead + n) for rng in rngs])
    distances, angles = channel.sample_mtd_placements(
        words[:, :lead],
        (cfg.mtd_d_min_m, cfg.mtd_d_max_m),
        (cfg.mtd_angle_min_rad, cfg.mtd_angle_max_rad),
    )
    draws, rejected = access.decode_draws(policy, words[:, lead:], k, s)
    _redraw_rows(cfg, draws, np.flatnonzero(rejected).tolist(), restart)
    return distances, angles, (*noise, *draws)


def _redraw_rows(cfg: ScenarioConfig, draws, rows: list[int], restart) -> None:
    """Draw crdsap's slot indices of `rows` again with numpy, on fresh copies of their streams."""
    for row in rows:
        rng = restart(row)
        rng.bit_generator.random_raw(2 * cfg.k)  # the placement's words
        for draw, redrawn in zip(draws, access.crdsap_indices(rng, cfg.k, cfg.s)):
            draw[row] = redrawn


def _simulate_batch(
    cfg: ScenarioConfig,
    rngs: Iterable[np.random.Generator],
    restart: Callable[[int], np.random.Generator],
    phases: tuple[float, ...],
    keep_traces: bool,
):
    """The frame pipeline over a batch of fresh trial streams (see _batch_draws).

    Everything after the draws runs on (b, k, s) arrays.
    Returns per-trial (successes, throughput, power, replica counts) arrays
    and, with keep_traces, each trial's decode trace (else None).
    """
    policy = cfg.policy
    distances, angles, draws = _batch_draws(cfg, rngs, restart)
    gamma = channel.snr_matrix(
        cfg.ris, cfg.radio, cfg.ap, cfg.mtd_gain, distances, angles, phases
    )
    chosen = access.choose_slots(
        policy, gamma, draws, cfg.estimation_c, cfg.estimation_noise_std
    )

    decoded, traces = receiver.peel_batch(chosen, gamma, cfg.radio.snr_threshold, keep_traces)
    a = decoded.astype(float)
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
            trial_streams(cfg.seed, lo, min(lo + _BATCH, stop)),
            lambda row, lo=lo: trial_rng(cfg.seed, lo + row),
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
    per-trial streams and index-ordered reduction make the result
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
