"""Frame simulation, Monte Carlo aggregation over cell groups, optimal slot choice.

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

Cells run in groups: a group is the cells of one run that differ only in
their policy (policy.*), so they share every trial's stream and device drop.
There is one frame pipeline, _simulate_batch, and it runs a group over a
batch of trials. It reads each trial's stream as raw 64-bit words with one
random_raw call: 2k for the placement, then as many as the group's members
take at most (access.policy_words). It decodes the placement and builds the
SNR grid once for the batch, and each member decodes its own prefix of the
words after the placement exactly as numpy's Generator would (_batch_draws),
then makes its slot choice, SIC peel (receiver.peel_batch) and frame metrics
on the shared grid. When no member is trained, no slot choice reads the grid,
so the members choose first and the grid is computed only at the union of
their replicas, the only entries a peel reads; the rest stay 0. A Philox
stream is fixed by its key and counter and every policy's words start at
offset 2k, so a member reads exactly the words it would read alone: a
group's results equal its cells run one by one. A trained member with
estimation noise draws its normals between the placement and its policy
words with a variable number of words, so it reads the batch's streams again
on a pass of its own; its placement and grid still come from the group.
run_groups runs a command's cells group by group; run_monte_carlo
is a group of one cell, and simulate_frame a batch of one trial of it, which
like the batches expects a fresh trial stream such as trial_rng gives.
"""

from __future__ import annotations

import copy
import functools
import math
import multiprocessing
import sys
import time
from dataclasses import dataclass, fields
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

    The frame pipeline on a group of one cell and a batch of one stream, so it
    is deterministic given (cfg, rng state) and equals trial t of
    run_monte_carlo when rng is trial_rng(cfg.seed, t). rng must be a fresh
    trial stream: the pipeline reads it from its first word.
    """
    start = copy.deepcopy(rng)
    [(a, g, p, counts, traces)] = _simulate_batch(
        [cfg],
        lambda: [copy.deepcopy(start)],
        lambda _row: copy.deepcopy(start),
        phase_shift_set(cfg.s),
        keep_trace,
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
    cfgs: list[ScenarioConfig],
    streams: Callable[[], Iterable[np.random.Generator]],
    restart: Callable[[int], np.random.Generator],
):
    """A group's placement and every member's access draws, decoded on the batch from raw words.

    streams() gives the batch's fresh trial streams one after another, so
    they may be one re-keyed generator (trial_streams); each call is one pass
    over them (module docstring). Estimation noise is drawn through numpy,
    which does not expose its ziggurat tables. A row whose bounded integers
    hit a Lemire rejection needs more words than were read; it is drawn
    again from restart(row), a fresh copy of its stream.
    Returns device distances and angles (b, k) and, per member, the draws
    choose_slots takes.
    """
    cfg = cfgs[0]
    k, s = cfg.k, cfg.s
    lead = 2 * k
    sizes = [access.policy_words(member.policy, k, s) for member in cfgs]
    noisy = [access.draws_noise(member.policy, member.estimation_noise_std) for member in cfgs]
    shared = [n for n, own in zip(sizes, noisy) if not own]
    words = None
    if shared:
        count = lead + max(shared)
        words = np.array([rng.bit_generator.random_raw(count) for rng in streams()])
    members = []
    for member, n, own in zip(cfgs, sizes, noisy):
        if own:
            parts = [
                (rng.bit_generator.random_raw(lead), rng.standard_normal((k, s)),
                 rng.bit_generator.random_raw(n))
                for rng in streams()
            ]
            heads, normals, tails = (np.array(column) for column in zip(*parts))
            words = heads if words is None else words
            draws, rejected = access.decode_draws(member.policy, tails, k, s)
            draws = (normals, *draws)
        else:
            draws, rejected = access.decode_draws(member.policy, words[:, lead:lead + n], k, s)
        _redraw_rows(member, draws, np.flatnonzero(rejected).tolist(), restart)
        members.append(draws)
    distances, angles = channel.sample_mtd_placements(
        words[:, :lead],
        (cfg.mtd_d_min_m, cfg.mtd_d_max_m),
        (cfg.mtd_angle_min_rad, cfg.mtd_angle_max_rad),
    )
    return distances, angles, members


def _redraw_rows(cfg: ScenarioConfig, draws, rows: list[int], restart) -> None:
    """Draw crdsap's slot indices of `rows` again with numpy, on fresh copies of their streams."""
    for row in rows:
        rng = restart(row)
        rng.bit_generator.random_raw(2 * cfg.k)  # the placement's words
        for draw, redrawn in zip(draws, access.crdsap_indices(rng, cfg.k, cfg.s)):
            draw[row] = redrawn


def _simulate_batch(
    cfgs: list[ScenarioConfig],
    streams: Callable[[], Iterable[np.random.Generator]],
    restart: Callable[[int], np.random.Generator],
    phases: tuple[float, ...],
    keep_traces: bool,
):
    """The frame pipeline of a group over a batch of trial streams (see _batch_draws).

    The members share one placement and one SNR grid; everything after the
    draws runs on (b, k, s) arrays. When no member is trained, none reads
    the grid to choose its slots, so the members choose first and the grid
    is computed only where one of them placed a replica: the peel reads no
    other entry. Returns per member the per-trial (successes, throughput,
    power, replica counts) arrays and, with keep_traces, each trial's decode
    trace (else None).
    """
    cfg = cfgs[0]
    distances, angles, members = _batch_draws(cfgs, streams, restart)
    grid = (cfg.ris, cfg.radio, cfg.ap, cfg.mtd_gain, distances, angles, phases)
    if any(member.policy.requires_training for member in cfgs):
        gamma = channel.snr_matrix(*grid)
        masks = [
            access.choose_slots(
                member.policy, gamma, draws, member.estimation_c, member.estimation_noise_std
            )
            for member, draws in zip(cfgs, members)
        ]
    else:
        masks = [
            access.blind_slots(member.policy, draws, len(phases))
            for member, draws in zip(cfgs, members)
        ]
        gamma = channel.snr_matrix(*grid, mask=functools.reduce(np.logical_or, masks))
    out = []
    for member, chosen in zip(cfgs, masks):
        policy = member.policy
        decoded, traces = receiver.peel_batch(
            chosen, gamma, member.radio.snr_threshold, keep_traces
        )
        a = decoded.astype(float)
        counts = chosen.sum(axis=-1)
        p, g = power_metrics.frame_metrics(
            member.power,
            member.timing,
            member.ris.n_elements,
            counts,
            a,
            power_training_used=member.training_used,
            frame_training_used=policy.requires_training,
        )
        out.append((a, g, p, counts, traces))
    return out


def _simulate_range(cfgs: list[ScenarioConfig], start: int, stop: int, keep_traces: bool = False):
    """Simulate a group's trials [start, stop); per member, per-trial metric arrays (and traces)."""
    seed = cfgs[0].seed
    phases = phase_shift_set(cfgs[0].s)
    parts = [
        _simulate_batch(
            cfgs,
            lambda lo=lo: trial_streams(seed, lo, min(lo + _BATCH, stop)),
            lambda row, lo=lo: trial_rng(seed, lo + row),
            phases,
            keep_traces,
        )
        for lo in range(start, stop, _BATCH)
    ]
    return [_join([part[member] for part in parts], keep_traces) for member in range(len(cfgs))]


def _join(parts, keep_traces: bool):
    """One member's (a, g, p, traces) from its parts over consecutive trial ranges."""
    a, g, p = (np.concatenate([part[i] for part in parts]) for i in range(3))
    traces = [trace for part in parts for trace in part[-1]] if keep_traces else None
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


def _run_group(cfgs: list[ScenarioConfig], keep_traces: bool, fork: bool):
    """Each member's aggregate and, with keep_traces, its traces (else None).

    With fork, the trials are split over min(workers, trials) forked
    processes, each running every member on its chunk; per-trial streams and
    trial-ordered reduction make the result independent of the worker count.
    """
    cfg = cfgs[0]
    workers = min(cfg.workers, cfg.trials) if fork else 1
    if workers > 1:
        bounds = np.linspace(0, cfg.trials, workers + 1, dtype=int).tolist()
        jobs = [(cfgs, lo, hi, keep_traces) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        with get_context("fork").Pool(len(jobs)) as pool:
            parts = pool.starmap(_simulate_range, jobs)
    else:
        parts = [_simulate_range(cfgs, 0, cfg.trials, keep_traces)]
    runs = []
    for index, member in enumerate(cfgs):
        a, g, p, traces = _join([part[index] for part in parts], keep_traces)
        runs.append((_aggregate(member, a, g, p), traces))
    return runs


def _groups(cfgs: list[ScenarioConfig]) -> list[list[int]]:
    """Indices of the cells that differ only in their policy, groups in order of first cell."""
    groups: dict[str, list[int]] = {}
    for index, cfg in enumerate(cfgs):
        shared = tuple(getattr(cfg, f.name) for f in fields(cfg) if f.name != "policy")
        groups.setdefault(repr(shared), []).append(index)
    return list(groups.values())


def run_groups(
    cfgs: list[ScenarioConfig],
    keep_traces: bool = False,
    finished: Callable[[list[int], float], None] | None = None,
) -> list[tuple[AggregateResult, list | None]]:
    """Every cell's aggregate and, with keep_traces, its traces (else None), in the order of cfgs.

    Cells that differ only in their policy run as one group (module
    docstring), each group after the one before; finished(indices, seconds)
    is called after each group with the indices of its cells and its wall
    time. Where the fork start method is missing, every group runs in this
    process and one note says so on stderr.
    """
    fork = "fork" in multiprocessing.get_all_start_methods()
    if not fork and any(min(cfg.workers, cfg.trials) > 1 for cfg in cfgs):
        print("note: no fork start method here; sim.workers > 1 runs in one process",
              file=sys.stderr)
    runs: list = [None] * len(cfgs)
    for indices in _groups(cfgs):
        start = time.perf_counter()
        for index, run in zip(indices, _run_group([cfgs[i] for i in indices], keep_traces, fork)):
            runs[index] = run
        if finished is not None:
            finished(indices, time.perf_counter() - start)
    return runs


def run_monte_carlo(cfg: ScenarioConfig) -> AggregateResult:
    """Run cfg.trials independent frames and aggregate: a group of one cell."""
    return run_groups([cfg])[0][0]


def run_monte_carlo_with_traces(cfg: ScenarioConfig) -> tuple[AggregateResult, list]:
    """run_monte_carlo that also returns each trial's decode trace, in trial order."""
    return run_groups([cfg], keep_traces=True)[0]


@dataclass(slots=True)
class OptimalSReport:
    """Full per-S curve plus the argmax S for throughput and for efficiency."""

    curve: tuple[tuple[int, AggregateResult], ...]
    best_throughput: tuple[int, float]
    best_ee: tuple[int, float]


def optimal_over_s(curve: Iterable[tuple[int, AggregateResult]]) -> OptimalSReport:
    """The best S of one policy's finished (S, aggregate) curve; ties resolve to the smaller S."""
    curve = tuple(curve)
    best_g = max(curve, key=lambda item: (item[1].mean_throughput, -item[0]))
    best_ee = max(curve, key=lambda item: (item[1].ee_ratio_of_means, -item[0]))
    return OptimalSReport(
        curve=curve,
        best_throughput=(best_g[0], best_g[1].mean_throughput),
        best_ee=(best_ee[0], best_ee[1].ee_ratio_of_means),
    )
