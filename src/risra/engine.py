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

_trial_keys derives those keys for a whole range of trials in one pass, and
is the one place that checks a seed and its trial indices: the seed's pool
comes from numpy's SeedSequence(seed), and only the trial word is hashed on
uint32 arrays. A batch of trials is its (b, 2) keys, the pipeline's input.
_streams re-keys one reused Philox generator per trial; a Philox stream is
fixed by its key and counter alone, so this is the same stream as
constructing it from the SeedSequence.

Cells run in groups: a group is the cells of one run whose trials draw the
same streams and device drops (equal seed, trials, K and placement ranges),
and a point the cells of a group that differ only in policy (policy.*). An
S, rho_mtd or N sweep is one group, a K sweep one group per K; past _RESULTS
member-trials a group's points are cut into runs, each a group, so the
per-trial results a group holds until its last job stay bounded. There is one
frame pipeline, _simulate_batch, and it runs a group over a batch of trials.
Its members that draw no noise read each trial's stream once, with one
random_raw call: 2k words for the placement, then the most words any of them
takes at its own S (access.policy_words). The placement, and the words after
it as unit doubles, are decoded once, and each member decodes its own prefix
exactly as numpy's Generator would (_batch_draws). A point with a trained
member builds its SNR and quality grids; then each member chooses its slots
with one access.choose_slots call, and the point's stacked masks are peeled
as one batch (one receiver.peel_batch call), each member's metrics following
from its own counts. With no trained member a point has no quality grid, so
its SNR grid is computed after the choice, only at the union of their
replicas, the only entries a peel reads; the rest stay 0. A Philox
stream is fixed by its key and counter and every policy's words start at
offset 2k, so a member reads exactly the words it would read alone, and a
frame's peel does not depend on the frames stacked with it: a group's
results equal its cells run one by one. Estimation (c, noise std) is not a
policy key, so it is the point's. With noise, each trained member draws k·S
normals between the placement and its policy words, through numpy and so
with a variable number of words: the trained members at one S share a read
of their own, and its normals feed their point's quality grid.

run_groups runs a whole command as one list of jobs, each one batch: a
group's range of consecutive trials. A range holds at most _ENTRIES grid
entries per point (b·k·s at the group's largest S; the 256 trials of K = S =
20), so small frames run in long batches and peak memory stays bounded; on a
pool of more than one process a range is also at most ceil(trials /
processes) trials, the pool being sim.workers capped at os.cpu_count(). The
jobs are listed in group and trial order and run in this process or on that
one pool for the command, forked where the platform can fork and spawned
where it cannot; either way their results arrive in list order, so a member's
per-trial arrays and its decode trace, an (n, 4) array of (trial, pass, slot,
device) rows, are its jobs' parts concatenated. Each trial's stream is its
own and each member's results are reduced in trial order, so every output
byte is independent of the batch size, the worker count and the order the
jobs run in. On glibc each process that runs jobs first fixes malloc's mmap
and trim thresholds (_keep_heap), so one batch's freed temporaries serve the
next from the heap rather than being unmapped and faulted in again; this
moves no byte. run_monte_carlo is a group of one cell, and
simulate_frame(cfg, t) a batch of its one trial t, keyed as the run keys it.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, fields
from multiprocessing import get_context
from typing import Callable, Iterable

import numpy as np

from . import access, channel, power_metrics, receiver
from .channel import phase_shift_set
from .config import ScenarioConfig, _shown

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


def _streams(keys: np.ndarray):
    """Yield the fresh Philox stream of each row of `keys`, (b, 2) uint64, in order.

    One Generator is re-keyed before each yield, with a zero counter and empty
    output buffers, so a consumer must be done with a trial's stream before
    asking for the next.
    """
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


def _trial_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """The (n, 2) uint64 keys SeedSequence(seed, spawn_key=(t,)).generate_state(2, uint64) of
    trials t = start..stop-1; a negative seed, or a t outside 0..2**32-1 (one spawn word),
    raises ValueError. SeedSequence(seed) mixes the seed's words into its pool with 4 hashes
    per pool word and 4 per seed word past the fourth; the trial word follows.
    """
    if seed < 0 or not 0 <= start <= stop <= 2**32:
        raise ValueError(f"need seed >= 0 and trials in 0..2**32-1, not {_shown(seed)}, "
                         f"{_shown(start)}..{_shown(stop - 1)}")
    trials = np.arange(start, stop, dtype=np.uint32)
    pool = np.random.SeedSequence(seed).pool.tolist()
    words = -(-seed.bit_length() // 32)
    const = _INIT_A * pow(_MULT_A, _POOL * max(_POOL, words), 1 << 32) & _MASK32
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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The random stream owned by one trial, on a generator of its own."""
    return next(_streams(_trial_keys(seed, trial, trial + 1)))


@dataclass(slots=True)
class TrialResult:
    """One frame's outcome."""

    successes: int
    replica_counts: np.ndarray
    throughput_pps: float
    power_w: float
    energy_efficiency: float
    trace: np.ndarray


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


def simulate_frame(cfg: ScenarioConfig, trial: int, keep_trace: bool = False) -> TrialResult:
    """Trial `trial` of cfg's run end to end: drop devices, measure, contend, decode, meter.

    The frame pipeline on a group of one cell and a batch of one trial, so it
    equals that trial of run_monte_carlo, and its trace is that trial's rows
    of the run's trace (run_groups), (0, 4) without keep_trace.
    """
    keys = _trial_keys(cfg.seed, trial, trial + 1)
    [(a, g, p, counts, trace)] = _simulate_batch([[cfg]], keys, keep_trace)
    trace[:, 0] += trial
    return TrialResult(
        successes=int(a[0]),
        replica_counts=counts[0],
        throughput_pps=float(g[0]),
        power_w=float(p[0]),
        energy_efficiency=float(g[0]) / float(p[0]),
        trace=trace,
    )


def _batch_draws(cfgs: list[ScenarioConfig], keys: np.ndarray):
    """A group's placement, and an iterator over its members' normals and access draws.

    keys holds the batch's (b, 2) Philox keys. Members that draw no noise
    share one read of the batch's fresh streams (_streams): the 2k placement
    words, then the most policy words any of them takes at its own S. Trained
    members at S with noise share a read of the placement, k·S normals (drawn
    through numpy, whose ziggurat tables are hidden) and then their policy
    words. A read's words after the placement become unit doubles once, and
    each member decodes its own prefix of them; a row with a Lemire rejection
    is drawn again from a fresh stream of its key. Returns distances and
    angles (b, k) and, member by member, its (b, k, S) normals or None and its
    choose_slots draws. A read is made when its first member is reached (the
    first at once, for the placement) and dropped after its last member.
    """
    cfg = cfgs[0]
    k, lead = cfg.k, 2 * cfg.k
    sizes = [access.policy_words(member.policy, k, member.s) for member in cfgs]
    # a member's read: the S of its normals, or None when it draws none
    layouts = [member.s if member.estimation_noise_std > 0 and member.policy.requires_training
               else None for member in cfgs]
    last = {layout: index for index, layout in enumerate(layouts)}

    def read(layout):
        count = max(n for n, own in zip(sizes, layouts) if own == layout)
        if layout is None:
            words = np.array([rng.bit_generator.random_raw(lead + count) for rng in _streams(keys)])
            heads, normals, tail = words[:, :lead], None, words[:, lead:]
        else:
            parts = [
                (rng.bit_generator.random_raw(lead), rng.standard_normal((k, layout)),
                 rng.bit_generator.random_raw(count))
                for rng in _streams(keys)
            ]
            heads, normals, tail = (np.array(column) for column in zip(*parts))
        return heads, (normals, tail, channel.unit_doubles(tail))

    reads = {}
    heads, reads[layouts[0]] = read(layouts[0])
    distances, angles = channel.sample_mtd_placements(
        heads,
        (cfg.mtd_d_min_m, cfg.mtd_d_max_m),
        (cfg.mtd_angle_min_rad, cfg.mtd_angle_max_rad),
    )

    def members():
        for index, (member, n, own) in enumerate(zip(cfgs, sizes, layouts)):
            if own not in reads:
                reads[own] = read(own)[1]
            normals, tail, units = reads[own]
            if last[own] == index:
                del reads[own]
            draws, rejected = access.decode_draws(member.policy, tail[:, :n], units[:, :n], k,
                                                  member.s)
            del tail, units  # a read dropped above is not held while the generator waits
            _redraw_rows(member, draws, keys, np.flatnonzero(rejected).tolist())
            yield normals, draws

    return distances, angles, members()


def _redraw_rows(cfg: ScenarioConfig, draws, keys: np.ndarray, rows: list[int]) -> None:
    """Draw crdsap's slot indices of `rows` again with numpy, on fresh streams of their keys."""
    for row in rows:
        rng = next(_streams(keys[row:row + 1]))
        rng.bit_generator.random_raw(2 * cfg.k)  # the placement's words
        for draw, redrawn in zip(draws, access.crdsap_indices(rng, cfg.k, cfg.s)):
            draw[row] = redrawn


def _simulate_batch(points: list[list[ScenarioConfig]], keys: np.ndarray, keep_traces: bool):
    """The frame pipeline of a group over a batch of trials, given their Philox keys (_batch_draws).

    The group is given as its points, each the cells that differ only in
    policy. Its members share one placement; a point's members share one SNR
    grid, and everything after the draws runs on (b, k, s) arrays, the peel
    on the point's (m, b, k, s) stack of masks. A point with a trained member
    builds its SNR and quality grids before access.choose_slots; one with
    none has no quality grid, and its SNR grid follows the choice, computed
    only where a replica lies: the peel reads no other entry. Yields per
    member, point by point, the per-trial (successes, throughput, power,
    replica counts) arrays and its decode trace: peel_batch's (n, 4) rows
    with the frame rebased to the trial within the batch, empty without
    keep_traces.
    """
    distances, angles, members = _batch_draws(list(itertools.chain(*points)), keys)
    for point in points:
        cfg = point[0]
        phases = phase_shift_set(cfg.s)
        normals, point_draws = zip(*itertools.islice(members, len(point)))
        grid = (cfg.ris, cfg.radio, cfg.ap, cfg.mtd_gain, distances, angles, phases)
        quality = None
        if any(member.policy.requires_training for member in point):
            gamma = channel.snr_matrix(*grid)
            # the normals of the point's trained members, None without noise
            noise = next((own for own in normals if own is not None), None)
            quality = access.measure_quality(gamma, cfg.estimation_c, cfg.estimation_noise_std,
                                             noise)
        chosen = np.stack([access.choose_slots(member.policy, quality, own, cfg.s)
                           for member, own in zip(point, point_draws)])
        if quality is None:
            gamma = channel.snr_matrix(*grid, mask=chosen.any(axis=0))
        # one peel for the stacked members: they differ only in policy, so they
        # share the threshold as well as the grid
        decoded, trace = receiver.peel_batch(chosen, gamma, cfg.radio.snr_threshold, keep_traces)
        # frames run in C order over (member, trial): cut at each member's first frame
        batch = len(gamma)
        cuts = np.searchsorted(trace[:, 0], batch * np.arange(1, len(point)))
        trace[:, 0] %= batch
        for member, a, counts, member_trace in zip(
            point, decoded.astype(float), chosen.sum(axis=-1), np.split(trace, cuts)
        ):
            p, g = power_metrics.frame_metrics(member.power, member.timing, member.ris.n_elements,
                                               member.radio.mtd_tx_power_w, counts, a,
                                               member.policy.requires_training)
            yield a, g, p, counts, member_trace


def _simulate_range(points: list[list[ScenarioConfig]], start: int, stop: int,
                    keep_traces: bool = False):
    """One job: a group's trials [start, stop) as one batch; per member, point by point,
    (a, g, p, trace), the trace's rows numbering trials of the run."""
    keys = _trial_keys(points[0][0].seed, start, stop)
    runs = []
    for a, g, p, _counts, trace in _simulate_batch(points, keys, keep_traces):
        trace[:, 0] += start
        runs.append((a, g, p, trace))
    return runs


def _run_job(job):
    """_simulate_range of one (points, start, stop, keep_traces) job, as a pool maps it."""
    return _simulate_range(*job)


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


# the fields that fix a trial's streams and device drops: cells equal in them form a group
_DROPS = ("seed", "trials", "k", "mtd_d_min_m", "mtd_d_max_m", "mtd_angle_min_rad",
          "mtd_angle_max_rad")
# member-trials of per-trial results (a, g, p: 24 bytes) a group holds until its
# last job arrives, 12 MiB: past it, a group's points are cut into runs
_RESULTS = 1 << 19


def _groups(cfgs: list[ScenarioConfig]) -> list[list[list[int]]]:
    """The cells' groups, each as its points' cell indices, all in order of first cell.

    A group is the cells that draw the same streams and device drops (_DROPS),
    a point the cells of a group that differ only in their policy. Consecutive
    points form one group while they hold at most _RESULTS member-trials.
    """
    drops: dict[tuple, dict[tuple, list[int]]] = {}
    for index, cfg in enumerate(cfgs):
        point = tuple(getattr(cfg, f.name) for f in fields(cfg) if f.name != "policy")
        key = tuple(getattr(cfg, name) for name in _DROPS)
        drops.setdefault(key, {}).setdefault(point, []).append(index)
    groups = []
    for points in drops.values():
        held = _RESULTS  # the first point starts a group
        for point in points.values():
            size = len(point) * cfgs[point[0]].trials
            if held + size > _RESULTS:
                groups.append([])
                held = 0
            held += size
            groups[-1].append(point)
    return groups


# grid entries b·k·s per point of a job, s the group's largest S: 256 trials
# at K = S = 20, a 0.8 MB SNR block; smaller frames take more trials per
# batch, larger ones fewer
_ENTRIES = 256 * 20 * 20

# glibc malloc's thresholds (mallopt(3)), fixed so that a job's temporaries,
# a few arrays of _ENTRIES doubles, stay in the heap from batch to batch
# instead of going back to the kernel and being faulted in again: the mmap
# threshold sits above the largest single array of a job, the trim threshold
# above a job's peak free heap. Setting them also stops glibc moving them.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h


def _keep_heap() -> tuple[int, ...]:
    """Fix glibc malloc's mmap and trim thresholds (above) in this process; elsewhere do nothing.

    Returns mallopt's result per setting, 1 where it took, or () where the C
    library is not glibc. Only allocation changes, never a value.
    """
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return ()
    libc = ctypes.CDLL(None)
    return (libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
            libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


def _jobs(groups: list[list[list[ScenarioConfig]]], workers: int) -> list[tuple[int, int, int]]:
    """Every group's (group, start, stop) trial ranges, in group and trial order.

    groups holds each group's points. A range holds at least one trial and at
    most _ENTRIES grid entries b·k·s, s the group's largest S, so no point's
    arrays exceed it; on a pool of workers > 1 processes at most
    ceil(trials / workers) trials.
    """
    jobs = []
    for index, points in enumerate(groups):
        cfg = points[0][0]
        size = max(1, _ENTRIES // (cfg.k * max(point[0].s for point in points)))
        if workers > 1:
            size = min(size, -(-cfg.trials // workers))
        jobs += [(index, lo, min(lo + size, cfg.trials)) for lo in range(0, cfg.trials, size)]
    return jobs


def _results(work: list, workers: int):
    """Each job's result in the order of work, from this process or from one pool
    for all of it, forked where the platform can fork and spawned where it cannot.
    Every process that runs jobs keeps its heap first (_keep_heap)."""
    _keep_heap()
    if workers <= 1:
        yield from map(_run_job, work)
        return
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    with get_context(method).Pool(workers, initializer=_keep_heap) as pool:
        yield from pool.imap(_run_job, work)


def run_groups(
    cfgs: list[ScenarioConfig],
    keep_traces: bool = False,
    finished: Callable[[list[int], float], None] | None = None,
) -> list[tuple[AggregateResult, np.ndarray]]:
    """Every cell's aggregate and decode trace, in the order of cfgs.

    A trace is one (n, 4) integer array of (trial, pass, slot, device) rows,
    sorted by trial with each trial's events in decode order; it is empty
    without keep_traces. The cells run in groups, cut into one list of jobs
    in group and trial order, and the results arrive in that order (module
    docstring). finished(indices, seconds) is called once per group, in
    group order, with the indices of its cells and the wall time since the
    previous group was reported (since the start, for the first).
    """
    indices = _groups(cfgs)
    groups = [[[cfgs[i] for i in point] for point in points] for points in indices]
    pool = min(max((cfg.workers for cfg in cfgs), default=1), os.cpu_count() or 1)
    jobs = _jobs(groups, pool)
    workers = min(pool, len(jobs))
    work = [(groups[index], lo, hi, keep_traces) for index, lo, hi in jobs]
    results = zip((index for index, _lo, _hi in jobs), _results(work, workers), strict=True)
    runs: list = [None] * len(cfgs)
    start = time.perf_counter()
    for index, group_results in itertools.groupby(results, key=lambda result: result[0]):
        parts = [part for _index, part in group_results]
        cells = list(itertools.chain(*indices[index]))
        for cell, member in zip(cells, zip(*parts)):  # a member's parts over consecutive ranges
            a, g, p, trace = map(np.concatenate, zip(*member))
            runs[cell] = (_aggregate(cfgs[cell], a, g, p), trace)
        del parts  # drop the group's per-trial results before the next group's jobs run
        if finished is not None:
            now = time.perf_counter()
            finished(sorted(cells), now - start)
            start = now
    return runs


def run_monte_carlo(cfg: ScenarioConfig) -> AggregateResult:
    """Run cfg.trials independent frames and aggregate: a group of one cell."""
    return run_groups([cfg])[0][0]


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
