"""Command-line front end: single runs, sweeps, optimal slot search, validation.

Every command that produces a CSV also writes `<out>.manifest.json` holding
the fully resolved configuration and the command parameters; replaying a
manifest regenerates the CSV byte for byte. The manifest's `stats` hold the
run's timings per cell group (engine.run_groups) and its minor page faults,
which no CSV byte depends on. CSV columns are fixed:

  policy,K,S,N,rho_mtd_w,trials,seed,mean_A,mean_G,ci95_G,mean_P_w,ci95_P_w,ee_rom,ee_mor

Numbers are serialized with 9 significant digits. Rows are sorted by
(policy, axis value). Files are written all-or-nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Any, Sequence

import numpy as np

try:
    import resource
except ImportError:  # not on every platform (Windows)
    resource = None

from . import __version__
from .access import POLICY_KINDS
from .config import REMOVED_KEYS, SWEEP_AXES, cell_configs, read_config_file, resolve_config
from .engine import optimal_over_s, run_groups

CSV_HEADER = (
    "policy,K,S,N,rho_mtd_w,trials,seed,mean_A,mean_G,ci95_G,mean_P_w,ci95_P_w,ee_rom,ee_mor"
)


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _csv_row(cfg, agg, tag: str = "") -> str:
    """One cell's CSV row; a value that is not finite raises ValueError, so none reaches a CSV."""
    label = f"{cfg.policy.kind}:{tag}" if tag else cfg.policy.kind
    values = {
        "mean_A": agg.mean_a,
        "mean_G": agg.mean_throughput,
        "ci95_G": agg.ci95_throughput,
        "mean_P_w": agg.mean_power_w,
        "ci95_P_w": agg.ci95_power_w,
        "ee_rom": agg.ee_ratio_of_means,
        "ee_mor": agg.ee_mean_of_ratios,
    }
    for column, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{column} of {label} is {value}, not a finite number; no CSV written")
    return ",".join(
        [
            label,
            str(cfg.k),
            str(cfg.s),
            str(cfg.ris.n_elements),
            _fmt(cfg.radio.mtd_tx_power_w),
            str(agg.trials),
            str(agg.seed),
            *map(_fmt, values.values()),
        ]
    )


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_outputs(out: Path, rows: list[str], manifest: dict[str, Any]) -> None:
    csv_text = "\n".join([CSV_HEADER, *rows]) + "\n"
    _write_atomic(out, csv_text)
    manifest["output_csv"] = str(out)
    manifest["csv_sha256"] = hashlib.sha256(csv_text.encode()).hexdigest()
    _write_atomic(
        out.with_name(out.name + ".manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


def _manifest_base(
    command: str, resolved: dict[str, Any], policies: list[str], stats: dict[str, Any]
) -> dict[str, Any]:
    return {
        "tool": "risra",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "policies": policies,
        "config": resolved,
        "stats": stats,
    }


def parse_values(text: str) -> list:
    """Parse '2:20:2' (inclusive range) or '2,4,6' into ints/floats.

    Tokens are read as exact decimals: value i of a range is start + i*step,
    rounded once to a float, and stop is included exactly when
    (stop - start) / step is whole. Integer-valued results are ints.
    """

    def exact(token: str) -> Decimal:
        try:
            value = Decimal(token)
        except InvalidOperation:
            raise ValueError(f"value {token!r} is not a number") from None
        if not value.is_finite():
            raise ValueError(f"value {token!r} is not finite")
        return value

    def number(value: Decimal) -> int | float:
        return int(value) if value == value.to_integral_value() else float(value)

    if ":" not in text:
        return [number(exact(tok)) for tok in text.split(",") if tok.strip()]
    parts = [exact(p) for p in text.split(":")]
    if len(parts) == 2:
        parts.append(Decimal(1))
    if len(parts) != 3:
        raise ValueError(f"range {text!r} must be start:stop or start:stop:step")
    start, stop, step = parts
    if step <= 0 or stop < start:
        raise ValueError(f"range {text!r} must be increasing with positive step")
    return [number(start + i * step) for i in range(int((stop - start) / step) + 1)]


def _resolve(args) -> dict[str, Any]:
    """The resolved flat config; cell_configs builds and validates each cell from it."""
    flags = {"sim.trials": args.trials, "sim.seed": args.seed}
    overrides = [*(args.set or []), *(f"{k}={v}" for k, v in flags.items() if v is not None)]
    file_items = read_config_file(args.config) if args.config is not None else None
    return resolve_config(file_items, overrides)


def _kinds(args, resolved: dict[str, Any]) -> list[str]:
    if not args.policies:
        return [resolved["policy.kind"]]
    return [kind.strip() for kind in args.policies.split(",")]


def _run_cells(cfgs, verbose: bool, keep_traces: bool = False):
    """Run a command's cells group by group (engine.run_groups); returns the runs and stats.

    The stats go to the manifest: the total wall time, the minor page faults
    of this process and its reaped pool workers (where the resource module
    exists) and, per group, its cells (indices into cfgs), their policies,
    its trials, its wall time since the group before it finished, and
    policy-frames per second. With verbose, one stderr line per finished
    cell gives cells done of all, seconds since the first group started and
    frames per second so far, counting the frames of the finished groups; a
    group's cells finish together, so they share a time and a rate.
    """
    faults = _minor_faults()
    start = time.perf_counter()
    groups = []
    done = frames = 0

    def finished(indices: list[int], seconds: float) -> None:
        nonlocal done, frames
        members = [cfgs[i] for i in indices]
        trials = members[0].trials
        groups.append({
            "cells": indices,
            "policies": [cfg.policy.kind for cfg in members],
            "trials": trials,
            "wall_s": seconds,
            "policy_frames_per_s": len(members) * trials / seconds,
        })
        elapsed = time.perf_counter() - start
        frames += len(members) * trials
        for _cfg in members:
            done += 1
            if verbose:
                print(f"point {done}/{len(cfgs)} {elapsed:.2f} s {frames / elapsed:.0f} frames/s",
                      file=sys.stderr)

    runs = run_groups(cfgs, keep_traces, finished)
    stats: dict[str, Any] = {"wall_s": time.perf_counter() - start}
    if faults is not None:
        stats["minor_faults"] = _minor_faults() - faults
    stats["groups"] = groups
    return runs, stats


def _minor_faults() -> int | None:
    """Minor page faults so far of this process and its reaped children; None without resource."""
    if resource is None:
        return None
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _rows(cfgs, runs) -> list[str]:
    return [_csv_row(cfg, agg) for cfg, (agg, _traces) in zip(cfgs, runs)]


def cmd_run(args) -> int:
    resolved = _resolve(args)
    kinds = _kinds(args, resolved)
    cfgs = cell_configs(resolved, kinds)
    out = Path(args.out)
    runs, stats = _run_cells(cfgs, args.verbose, keep_traces=args.verbose)
    _write_outputs(out, _rows(cfgs, runs), _manifest_base("run", resolved, kinds, stats))
    if args.verbose:
        text = "".join(_trace_text(cfg, trace) for cfg, (_agg, trace) in zip(cfgs, runs))
        _write_atomic(out.with_name(out.name + ".trace"), text)
    return 0


def _trace_text(cfg, trace: np.ndarray) -> str:
    """One cell's `.trace` lines: per trial a header, then its `pass,slot,device` events.

    The (trial, pass, slot, device) rows are sorted by trial, so one format
    string takes every value, each trial's number inserted before its events.
    """
    head = f"# policy {cfg.policy.kind} trial %d\n"
    per_trial = np.bincount(trace[:, 0], minlength=cfg.trials).tolist()
    fmt = "".join([head + "%d,%d,%d\n" * n for n in per_trial])
    firsts = np.searchsorted(trace[:, 0], np.arange(cfg.trials))
    values = np.insert(trace[:, 1:].ravel(), 3 * firsts, np.arange(cfg.trials))
    return fmt % tuple(values.tolist())


def cmd_sweep(args) -> int:
    resolved = _resolve(args)
    kinds = _kinds(args, resolved)
    values = parse_values(args.values)
    cfgs = cell_configs(resolved, kinds, args.axis, values)
    runs, stats = _run_cells(cfgs, args.verbose)
    manifest = _manifest_base("sweep", resolved, kinds, stats)
    manifest["axis"] = args.axis
    manifest["values"] = values
    _write_outputs(Path(args.out), _rows(cfgs, runs), manifest)
    return 0


def cmd_optimal_s(args) -> int:
    resolved = _resolve(args)
    kinds = _kinds(args, resolved)
    s_values = parse_values(args.s_values)
    cfgs = cell_configs(resolved, kinds, "S", s_values)
    runs, stats = _run_cells(cfgs, args.verbose)
    rows = []
    cells = [(cfg, agg) for cfg, (agg, _traces) in zip(cfgs, runs)]
    for _kind, curve in itertools.groupby(cells, key=lambda cell: cell[0].policy.kind):
        curve = list(curve)
        report = optimal_over_s((cfg.s, agg) for cfg, agg in curve)
        by_s = {cfg.s: (cfg, agg) for cfg, agg in curve}
        rows += [_csv_row(cfg, agg) for cfg, agg in curve]
        rows.append(_csv_row(*by_s[report.best_throughput[0]], tag="best_G"))
        rows.append(_csv_row(*by_s[report.best_ee[0]], tag="best_ee"))
    manifest = _manifest_base("optimal-s", resolved, kinds, stats)
    manifest["s_values"] = s_values
    _write_outputs(Path(args.out), rows, manifest)
    return 0


def cmd_validate(args) -> int:
    resolved = _resolve(args)
    cell_configs(resolved, _kinds(args, resolved))
    for key in sorted(resolved):
        print(f"{key} = {resolved[key]}")
    return 0


def replay_manifest(manifest_path: str | Path, out: str | Path) -> Path:
    """Re-run the command recorded in a manifest, writing the CSV to `out`.

    The resolved config stored in the manifest fully determines the result, so
    the regenerated CSV is byte-identical to the original. A key this version
    removed (config.REMOVED_KEYS) is dropped when it holds the value at which
    the recorded run gave this version's outputs, or at any value when no
    output read it; any other value raises ValueError naming the key, since
    no run of this version reproduces that manifest. The manifest's `stats`
    are timings of the recorded run and are not read.
    """
    manifest = json.loads(Path(manifest_path).read_text())
    resolved = manifest["config"]
    argv = [manifest["command"], "--out", str(out), "--policies", ",".join(manifest["policies"])]
    for key, value in resolved.items():
        if key not in REMOVED_KEYS:
            argv += ["--set", f"{key}={value}"]
        elif REMOVED_KEYS[key] is not None and value != REMOVED_KEYS[key]:
            raise ValueError(f"manifest sets removed config key {key!r} to {value!r}; this "
                             f"version runs only as {key}={REMOVED_KEYS[key]!r} did")
    if manifest["command"] == "sweep":
        argv += ["--axis", manifest["axis"], "--values", ",".join(str(v) for v in manifest["values"])]
    elif manifest["command"] == "optimal-s":
        argv += ["--s-values", ",".join(str(v) for v in manifest["s_values"])]
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"manifest replay failed with exit code {code}")
    return Path(out)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="path to a key=value config file")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    common.add_argument("--trials", type=int, default=None, help="Monte Carlo frames per point")
    common.add_argument("--seed", type=int, default=None, help="base seed for substreams")
    common.add_argument("--out", type=str, default="results.csv", help="output CSV path")
    common.add_argument(
        "--policies",
        type=str,
        default=None,
        help="comma-separated subset of: " + ",".join(POLICY_KINDS),
    )
    common.add_argument(
        "--verbose",
        action="store_true",
        help="progress lines on stderr; run also writes decode traces to <out>.trace",
    )

    parser = argparse.ArgumentParser(
        prog="risra",
        description="Monte Carlo simulator for RIS-aided IoT random access",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="evaluate the configured scenario")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep one axis per policy")
    p_sweep.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    p_sweep.add_argument(
        "--values", required=True, help="axis values: '2,4,6' or inclusive 'start:stop[:step]'"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser(
        "optimal-s", parents=[common], help="grid-search the slot count per policy"
    )
    p_opt.add_argument(
        "--s-values",
        default="1:40",
        help="slot counts to evaluate (policies without training need S >= 2)",
    )
    p_opt.set_defaults(func=cmd_optimal_s)

    p_val = sub.add_parser("validate", parents=[common], help="print the resolved config")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
