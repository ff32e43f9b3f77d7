"""Span tracer for the benchmark's traced runs.

The wrappers replace public functions of the `risra` modules by module
attribute, only inside the benchmark process and only inside `traced()`;
nothing under `src/` knows about them. `engine` looks the wrapped names up at
call time (`trial_rng`, `channel.array_factor_power`,
`access.irsap_sample_degrees`, `receiver.peel`, `run_monte_carlo`), so a
patched attribute intercepts every call the batched path makes.

Each span is timed with `perf_counter`. A span's self time is its duration
minus the durations of its direct child spans. Work the tracer does for
itself between spans (the peel outcome counters, the element counts) is
measured and subtracted from every open span, so it lands in no layer.
Forked pool workers inherit the patched attributes but their spans stay in
their own memory and are lost, which is why pooled workloads install only
the parent-side (coarse) wrappers.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Spans of these names are kept as full records; the fine per-frame spans are
# only aggregated, since a traced round makes tens of thousands of them.
COARSE = ("engine.run_monte_carlo", "engine.optimal_over_s", "cli.main")
DRAW_METHODS = ("uniform", "standard_normal", "random", "integers")
PEEL_COUNTERS = ("devices", "decoded", "replicas", "collided", "singletons", "below")


class Tracer:
    """Per-name call counts, total and self seconds, plus coarse span records."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, start, child_s, excluded_s]
        self.table: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = dict.fromkeys(("afp_elems", *PEEL_COUNTERS), 0)
        self.spans: list[dict] = []
        self.excluded_s = 0.0  # bookkeeping time, removed from spans and from round walls

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0, 0.0])

    def exit(self, tag=None) -> None:
        end = perf_counter()
        name, start, child_s, excluded_s = self._stack.pop()
        duration = end - start - excluded_s
        if self._stack:
            self._stack[-1][2] += duration
        row = self.table.get(name)
        if row is None:
            row = self.table[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_s
        if name in COARSE:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(
                {"name": name, "parent": parent, "start": start, "end": end,
                 "duration_s": duration, "tag": tag}
            )

    def exclude(self, seconds: float) -> None:
        """Remove bookkeeping time from every open span."""
        self.excluded_s += seconds
        for frame in self._stack:
            frame[3] += seconds

    def calls(self, name: str) -> int:
        return int(self.table.get(name, (0,))[0])

    def total_s(self, name: str) -> float:
        return self.table.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.table.get(name, (0, 0.0, 0.0))[2]


class TimedGenerator:
    """Delegating proxy that times the Generator methods the engine draws with.

    Any other attribute falls through to the real Generator untimed.
    """

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen: np.random.Generator, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _timed_draw(method: str):
    def draw(self, *args, **kwargs):
        tracer = self._tracer
        tracer.enter("engine.draws")
        try:
            return getattr(self._gen, method)(*args, **kwargs)
        finally:
            tracer.exit()

    draw.__name__ = method
    return draw


for _method in DRAW_METHODS:
    setattr(TimedGenerator, _method, _timed_draw(_method))


def _span(tracer: Tracer, name: str, fn, tag_of=None):
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(tag_of(args, kwargs) if tag_of is not None else None)

    return wrapper


def _cell_tag(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return {"policy": cfg.policy.kind, "k": cfg.k, "s": cfg.s, "trials": cfg.trials}


def _trial_rng(tracer: Tracer, fn):
    def trial_rng(seed, trial):
        tracer.enter("engine.trial_rng")
        try:
            gen = fn(seed, trial)
        finally:
            tracer.exit()
        return TimedGenerator(gen, tracer)

    return trial_rng


def _array_factor_power(tracer: Tracer, fn):
    def array_factor_power(ris, theta_mtd, theta_cfg):
        tracer.enter("channel.array_factor_power")
        try:
            out = fn(ris, theta_mtd, theta_cfg)
        finally:
            tracer.exit()
        start = perf_counter()
        tracer.counts["afp_elems"] += int(np.size(out))
        tracer.exclude(perf_counter() - start)
        return out

    return array_factor_power


def _peel(tracer: Tracer, fn):
    def peel(chosen, snr_values, threshold):
        tracer.enter("receiver.peel")
        try:
            decoded = fn(chosen, snr_values, threshold)
        finally:
            tracer.exit()
        start = perf_counter()
        _count_peel(tracer.counts, chosen, snr_values, threshold, decoded)
        tracer.exclude(perf_counter() - start)
        return decoded

    return peel


def _count_peel(counts: dict, chosen, snr_values, threshold, decoded) -> None:
    """Outcome counters of one peel call, from its arguments and result.

    Collisions and singletons are those of the initial slot occupancy,
    before any replica is cancelled.
    """
    per_slot = chosen.sum(axis=0)
    singleton_slots = np.flatnonzero(per_slot == 1)
    singleton_devs = chosen[:, singleton_slots].argmax(axis=0)
    counts["devices"] += chosen.shape[0]
    counts["decoded"] += int(decoded)
    counts["replicas"] += int(per_slot.sum())
    counts["collided"] += int(per_slot[per_slot >= 2].sum())
    counts["singletons"] += singleton_slots.size
    counts["below"] += int((snr_values[singleton_devs, singleton_slots] < threshold).sum())


@contextmanager
def traced(mods, tracer: Tracer, inner: bool):
    """Install the wrappers on the risra modules in `mods`; restore on exit.

    `inner` adds the per-frame layer wrappers (stream setup, draws, array
    factor, irsap degrees, peel) to the coarse ones (run_monte_carlo,
    optimal_over_s, cli.main).
    """
    optimal = _span(tracer, "engine.optimal_over_s", mods.engine.optimal_over_s)
    patches = [
        (mods.engine, "run_monte_carlo",
         _span(tracer, "engine.run_monte_carlo", mods.engine.run_monte_carlo, _cell_tag)),
        (mods.engine, "optimal_over_s", optimal),
        (mods.cli, "optimal_over_s", optimal),
        (mods.cli, "main", _span(tracer, "cli.main", mods.cli.main)),
    ]
    if inner:
        patches += [
            (mods.engine, "trial_rng", _trial_rng(tracer, mods.engine.trial_rng)),
            (mods.channel, "array_factor_power",
             _array_factor_power(tracer, mods.channel.array_factor_power)),
            (mods.access, "irsap_sample_degrees",
             _span(tracer, "access.irsap_sample_degrees", mods.access.irsap_sample_degrees)),
            (mods.receiver, "peel", _peel(tracer, mods.receiver.peel)),
        ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)
