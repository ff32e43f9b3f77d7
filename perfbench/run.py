"""Benchmark of the risra Monte Carlo simulator: frames/s on fixed workloads.

Run from the repository root:

  python3 perfbench/run.py --workload baseline --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seconds 5

A run imports `risra` from `src/` of the checkout it sits in and repeats
rounds of the workload for about `--seconds` seconds. A round runs every cell
of the workload once; `frames_per_s` is the 10th percentile over rounds of
frames completed / round wall time. Between rounds the run sets up again
(import, config building, one warm-up batch per policy) several times and
reports the median set-up time as `setup_s`. Every cell's output is checked
against `goldens.json` (or, for a seed without goldens, against invariants
and against the run's first round), and every run also replays the golden
`risra run --trials 2000 --seed 1` CSV of each policy. Any mismatch makes the
result `correct: false` and the exit code 1.

With `--trace 1` the rounds alternate between coarse spans only
(run_monte_carlo, optimal_over_s, cli.main) and every layer wrapper from
`tracing.py`; the last stdout line then holds the per-layer metrics. See
README.md in this directory for the workloads and the metric map.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Exit codes: 0 correct, 1 an output was wrong, 2 `risra`
could not be imported from this checkout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDENS = HERE / "goldens.json"

POLICIES = ("carp", "sscp", "crdsap", "irsap")
# AggregateResult fields as of the commit the goldens were recorded at; a
# field added later does not invalidate them.
GOLDEN_FIELDS = (
    "mean_a", "mean_throughput", "ci95_throughput", "mean_power_w", "ci95_power_w",
    "ee_ratio_of_means", "ee_mean_of_ratios", "trials", "seed",
)
SETUP_REPEATS = 7
WARMUP_TRIALS = 256  # one engine batch
ANCHOR_ARGS = ("run", "--trials", "2000", "--seed", "1")

TRACED_LAYERS = (
    "engine.trial_rng", "engine.draws", "channel.array_factor_power",
    "access.irsap_sample_degrees", "receiver.peel",
)


@dataclasses.dataclass
class Round:
    frames: int
    wall_s: float
    outputs: dict  # cell key -> digest, None when the cell raised or broke an invariant
    kind: str = "untraced"  # "untraced", "coarse" or "fine"
    tracer: Tracer | None = None
    child_cpu_s: float = 0.0


def _digest(result) -> str:
    parts = []
    for name in GOLDEN_FIELDS:
        value = getattr(result, name)
        parts.append(f"{name}={value.hex() if isinstance(value, float) else value}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


def _result_ok(result, cfg) -> bool:
    """Invariants every AggregateResult must satisfy, golden or not."""
    values = [getattr(result, name) for name in GOLDEN_FIELDS]
    return (
        all(math.isfinite(v) for v in values)
        and 0.0 <= result.mean_a <= cfg.k
        and result.ee_ratio_of_means == result.mean_throughput / result.mean_power_w
        and result.trials == cfg.trials
        and result.seed == cfg.seed
    )


def _csv_ok(text: str, expected_rows: int) -> bool:
    """Invariants of a risra CSV.

    ee_rom, mean_G and mean_P_w are each rounded to 9 significant digits
    (relative error <= 5e-9), so ee_rom and mean_G / mean_P_w may differ by
    up to 1.5e-8 relative.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != expected_rows:
        return False
    for row in rows:
        numbers = {key: float(value) for key, value in row.items() if key != "policy"}
        if not all(math.isfinite(v) for v in numbers.values()):
            return False
        if not 0.0 <= numbers["mean_A"] <= numbers["K"]:
            return False
        ratio = numbers["mean_G"] / numbers["mean_P_w"]
        if abs(numbers["ee_rom"] - ratio) > 2e-8 * abs(ratio):
            return False
    return True


def _overrides(k: int, s: int, policy: str, trials: int, seed: int, workers: int) -> list[str]:
    return [f"sim.k={k}", f"sim.s={s}", f"policy.kind={policy}", f"sim.trials={trials}",
            f"sim.seed={seed}", f"sim.workers={workers}"]


@dataclasses.dataclass(frozen=True)
class Cells:
    """Every policy at one (K, S), one process, through engine.run_monte_carlo."""

    name: str
    k: int
    s: int
    trials: int = 2000
    workers: int = 1
    traces_inner: bool = True
    cells_per_output: int = 1

    def prepare(self, mods, seed: int, workdir: Path):
        cfgs = []
        for policy in POLICIES:
            warm, _ = mods.config.parse_config(
                None, _overrides(self.k, self.s, policy, WARMUP_TRIALS, seed, self.workers))
            mods.engine.run_monte_carlo(warm)
            cfg, _ = mods.config.parse_config(
                None, _overrides(self.k, self.s, policy, self.trials, seed, self.workers))
            cfgs.append(cfg)
        return cfgs

    def round(self, mods, cfgs) -> Round:
        outputs = {}
        start = perf_counter()
        for cfg in cfgs:
            try:
                result = mods.engine.run_monte_carlo(cfg)
            except Exception:
                traceback.print_exc()
                outputs[cfg.policy.kind] = None
                continue
            outputs[cfg.policy.kind] = _digest(result) if _result_ok(result, cfg) else None
        wall_s = perf_counter() - start
        return Round(sum(cfg.trials for cfg in cfgs), wall_s, outputs)


@dataclasses.dataclass(frozen=True)
class Sweep:
    """`risra optimal-s` over every policy, through cli.main.

    With workers > 1 every cell forks its own pool. The CSV bytes do not
    depend on the worker count.
    """

    name: str
    workers: int
    s_values: str = "2:40"
    trials: int = 200
    cells_per_output: int = 39 * len(POLICIES)  # S = 2..40 for each policy

    @property
    def traces_inner(self) -> bool:
        return self.workers == 1  # forked workers' spans are lost

    def prepare(self, mods, seed: int, workdir: Path):
        for policy in POLICIES:
            warm, _ = mods.config.parse_config(
                None, _overrides(10, 20, policy, WARMUP_TRIALS, seed, self.workers))
            mods.engine.run_monte_carlo(warm)
        return [
            "optimal-s", "--s-values", self.s_values, "--policies", ",".join(POLICIES),
            "--set", f"sim.workers={self.workers}", "--trials", str(self.trials),
            "--seed", str(seed), "--out", str(workdir / "sweep.csv"),
        ]

    def round(self, mods, argv) -> Round:
        out = Path(argv[-1])
        start = perf_counter()
        try:
            code = mods.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        wall_s = perf_counter() - start
        digest = None
        if code == 0:
            data = out.read_bytes()
            # one row per cell plus best_G and best_ee per policy
            if _csv_ok(data.decode(), self.cells_per_output + 2 * len(POLICIES)):
                digest = hashlib.sha256(data).hexdigest()
        return Round(self.cells_per_output * self.trials, wall_s, {"csv": digest})


WORKLOADS = {
    w.name: w
    for w in (
        Cells("baseline", k=10, s=20),
        Cells("high_load", k=20, s=20),
        Cells("short_frames", k=10, s=5),
        Sweep("sweep_cli", workers=1),
        # Not in BENCHMARK.json: its two workers need both cores, so on a
        # shared host its rate follows CPU steal (see README.md, "Noise").
        Sweep("sweep_pool", workers=2),
    )
}


class Modules:
    """The risra modules of this checkout, freshly imported."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "risra" or m.startswith("risra.")]:
            del sys.modules[name]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        package = importlib.import_module("risra")
        if Path(package.__file__).resolve().parent != SRC / "risra":
            raise ImportError(f"risra was imported from {package.__file__}, not from {SRC}")
        for name in ("engine", "cli", "config", "channel", "access", "receiver"):
            setattr(self, name, importlib.import_module(f"risra.{name}"))


def measure(workload, seed: int, workdir: Path, seconds: float, trace: bool):
    """Set up, then repeat rounds until the next one would likely end after `seconds`.

    The SETUP_REPEATS set-ups (import, config building, warm-up) are spread
    evenly over the run, so their median sees the same host phases as the
    rounds; each one replaces the modules the following rounds use.
    Returns (rounds, median set-up seconds, modules).
    """
    setup_s: list[float] = []

    def set_up():
        start = perf_counter()
        mods = Modules()
        state = workload.prepare(mods, seed, workdir)
        setup_s.append(perf_counter() - start)
        return mods, state

    mods, state = set_up()
    rounds: list[Round] = []
    begin = perf_counter()
    while True:
        if trace:
            kind = "fine" if len(rounds) % 2 else "coarse"
            tracer = Tracer()
            before = os.times()
            with traced(mods, tracer, inner=kind == "fine" and workload.traces_inner):
                rnd = workload.round(mods, state)
            after = os.times()
            rnd.kind, rnd.tracer = kind, tracer
            rnd.child_cpu_s = ((after.children_user - before.children_user)
                               + (after.children_system - before.children_system))
        else:
            rnd = workload.round(mods, state)
        rounds.append(rnd)
        elapsed = perf_counter() - begin
        done = len(rounds) >= (2 if trace else 1) and elapsed + rnd.wall_s > seconds
        due = SETUP_REPEATS if done else 1 + int(elapsed / seconds * (SETUP_REPEATS - 1))
        while len(setup_s) < due:
            mods, state = set_up()
        if done:
            return rounds, statistics.median(setup_s), mods


def check_rounds(workload, rounds: list[Round], golden: dict | None) -> tuple[int, int]:
    """(cells attempted, cells failed) against the golden or the first round."""
    reference = golden if golden is not None else rounds[0].outputs
    attempted = failed = 0
    for rnd in rounds:
        for key, digest in rnd.outputs.items():
            attempted += workload.cells_per_output
            if digest is None or reference.get(key) != digest:
                failed += workload.cells_per_output
                print(f"mismatch: {workload.name} cell {key}: {digest} != {reference.get(key)}",
                      file=sys.stderr)
    return attempted, failed


def anchor_digests(mods, workdir: Path) -> dict:
    """sha256 of the `risra run --trials 2000 --seed 1` CSV of each policy."""
    digests = {}
    for policy in POLICIES:
        out = workdir / f"anchor-{policy}.csv"
        try:
            code = mods.cli.main([*ANCHOR_ARGS, "--policies", policy, "--out", str(out)])
        except Exception:
            traceback.print_exc()
            code = None
        digests[policy] = hashlib.sha256(out.read_bytes()).hexdigest() if code == 0 else None
    return digests


def host_probe_ms() -> float:
    """Wall time of a fixed pure-numpy loop: a host-speed diagnostic, never a divisor."""
    x = np.linspace(0.0, 1.0, 200_000)
    start = perf_counter()
    for _ in range(5):
        np.sort(np.sin(7.0 * x) * x)
    return (perf_counter() - start) * 1e3


def _rate(rnd: Round) -> float:
    """Frames per second of a round, net of the tracer's own bookkeeping."""
    excluded_s = rnd.tracer.excluded_s if rnd.tracer is not None else 0.0
    return rnd.frames / (rnd.wall_s - excluded_s)


def _low_decile(rates) -> float:
    """10th percentile of per-round rates; see README.md, "Noise"."""
    rates = list(rates)
    if len(rates) < 2:
        return rates[0] if rates else 0.0
    return statistics.quantiles(rates, n=10, method="inclusive")[0]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped worker, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def layer_metrics(workload, rounds: list[Round]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; see README.md for the definitions."""
    fine = [r for r in rounds if r.kind == "fine"]
    coarse = [r for r in rounds if r.kind == "coarse"]
    rmc = "engine.run_monte_carlo"
    m: dict[str, tuple[float, str]] = {}
    for name in TRACED_LAYERS:
        calls = _median(r.tracer.calls(name) for r in fine)
        seconds = _median(r.tracer.total_s(name) for r in fine)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.s"] = (seconds, "s")
        share = _median(_ratio(r.tracer.self_s(name), r.tracer.total_s(rmc)) for r in fine)
        m[f"{name}.share"] = (share, "ratio")
        if name == "channel.array_factor_power":
            elems = _median(r.tracer.counts["afp_elems"] for r in fine)
            m[f"{name}.elems"] = (elems, "count")
            m[f"{name}.ns_per_elem"] = (_ratio(seconds, elems) * 1e9, "ns")
        elif name in ("engine.trial_rng", "receiver.peel"):
            m[f"{name}.us_per_call"] = (_ratio(seconds, calls) * 1e6, "us")

    counts = {key: sum(r.tracer.counts[key] for r in fine) for key in fine[0].tracer.counts}
    m["receiver.decoded_per_device"] = (_ratio(counts["decoded"], counts["devices"]), "ratio")
    m["receiver.replicas_per_device"] = (_ratio(counts["replicas"], counts["devices"]), "ratio")
    m["receiver.collided_replica_frac"] = (_ratio(counts["collided"], counts["replicas"]), "ratio")
    m["receiver.singleton_below_threshold_frac"] = (
        _ratio(counts["below"], counts["singletons"]), "ratio")

    m[f"{rmc}.s"] = (_median(r.tracer.total_s(rmc) for r in fine), "s")
    m["engine.self_s"] = (_median(r.tracer.self_s(rmc) for r in fine), "s")
    m["engine.self_share"] = (
        _median(_ratio(r.tracer.self_s(rmc), r.tracer.total_s(rmc)) for r in fine), "ratio")

    for policy in POLICIES:
        rates = []
        for r in coarse:
            spans = [s for s in r.tracer.spans if s["name"] == rmc and s["tag"]["policy"] == policy]
            rates.append(_ratio(sum(s["tag"]["trials"] for s in spans),
                                sum(s["duration_s"] for s in spans)))
        m[f"engine.frames_per_s.{policy}"] = (_low_decile(rates), "frames/s")
    cells = [s["duration_s"] for r in coarse for s in r.tracer.spans if s["name"] == rmc]
    m["engine.cells"] = (_median(r.tracer.calls(rmc) for r in coarse), "count")
    m["engine.cell_s.p50"] = (_median(cells), "s")
    m["engine.cell_s.p90"] = (
        statistics.quantiles(cells, n=10)[8] if len(cells) > 1 else _median(cells), "s")
    m["engine.pool_cpu_util"] = (
        _ratio(sum(r.child_cpu_s for r in coarse),
               sum(r.wall_s for r in coarse) * workload.workers), "ratio")
    m["engine.optimal_over_s.s"] = (
        _median(r.tracer.total_s("engine.optimal_over_s") for r in coarse), "s")
    m["cli.main.s"] = (_median(r.tracer.total_s("cli.main") for r in coarse), "s")
    m["cli.self_s"] = (_median(r.tracer.self_s("cli.main") for r in coarse), "s")
    m["trace.overhead_frames_per_s"] = (
        _low_decile(_rate(r) for r in fine) - _low_decile(_rate(r) for r in coarse), "frames/s")
    return m


def write_spans(workload, seed: int, rounds: list[Round]) -> Path:
    """Dump every round's span table, counters and coarse span records."""
    path = OUT / f"spans-{workload.name}-seed{seed}.json"
    doc = [
        {"round": i, "kind": r.kind, "wall_s": r.wall_s, "frames": r.frames,
         "layers": {name: dict(zip(("calls", "total_s", "self_s"), row))
                    for name, row in r.tracer.table.items()},
         "counts": r.tracer.counts, "spans": r.tracer.spans}
        for i, r in enumerate(rounds)
    ]
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    goldens = json.loads(args.goldens.read_text())
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probe_start = host_probe_ms()
        try:
            rounds, setup_s, mods = measure(
                workload, args.seed, workdir, args.seconds, bool(args.trace))
        except ImportError as err:
            print(f"error: cannot import risra from {SRC}: {err}", file=sys.stderr)
            return 2
        golden = goldens["cells"][workload.name].get(str(args.seed))
        attempted, failed = check_rounds(workload, rounds, golden)
        anchor = anchor_digests(mods, workdir)
        for policy, digest in anchor.items():
            attempted += 1
            if digest is None or digest != goldens["run_csv_sha256"][policy]:
                failed += 1
                print(f"mismatch: golden `risra run` CSV of {policy}", file=sys.stderr)
        probe_end = host_probe_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verified = golden is not None
    if not verified:
        print(f"note: seed {args.seed} has no golden for {workload.name}; its cells are checked "
              "against invariants and across rounds only (unverified against goldens)",
              file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(workload, rounds)
        spans_path = write_spans(workload, args.seed, rounds)
    else:
        metrics = {
            "frames_per_s": (_low_decile(_rate(r) for r in rounds), "frames/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
    failed_frac = failed / attempted

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  goldens {'verified' if verified else 'unverified'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':42s} {failed_frac:14.6g} ratio ({failed}/{attempted} cells)")
    print(f"  {'host_probe_ms':42s} {probe_start:7.2f} at start, {probe_end:.2f} at end")
    if args.trace:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    print(json.dumps({"diagnostics": {
        "workload": workload.name, "seed": args.seed, "rounds": len(rounds),
        "verified_against_goldens": verified, "failed_frac": failed_frac,
        "round_frames_per_s": [_rate(r) for r in rounds],
        "host_probe_ms": {"start": probe_start, "end": probe_end},
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process and print one summary table."""
    summary = {}
    attempted = failed = 0
    ok = True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--goldens", str(args.goldens)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        ok = ok and proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        summary[name] = result
    print()
    print(f"{'workload':14s} {'metric':42s} {'value':>14s} unit")
    for name, result in summary.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:14s} {metric:42s} {entry['value']:14.6g} {entry['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{name:14s} {'failed_frac':42s} {frac:14.6g} ratio")
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {f"{name}.{metric}": entry
                    for name, result in summary.items()
                    for metric, entry in result["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", type=Path, default=GOLDENS,
                        help="golden digests to check against (default: goldens.json here)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "risra").is_dir():
        print(f"error: no risra package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
