"""Command-line front end: single runs, sweeps, optimal slot search, validation.

Every command that produces a CSV also writes `<out>.manifest.json` holding
the fully resolved configuration and the command parameters; replaying a
manifest regenerates the CSV byte for byte. CSV columns are fixed:

  policy,K,S,N,rho_mtd_w,trials,seed,mean_A,mean_G,ci95_G,mean_P_w,ci95_P_w,ee_rom,ee_mor

Numbers are serialized with 9 significant digits. Rows are sorted by
(policy, axis value). Files are written all-or-nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .access import POLICY_KINDS, Policy
from .config import build_config, parse_config, with_policy
from .engine import (
    SweepSpec,
    apply_axis_value,
    optimal_over_s,
    run_monte_carlo,
    run_monte_carlo_with_traces,
    sweep,
)

CSV_HEADER = (
    "policy,K,S,N,rho_mtd_w,trials,seed,mean_A,mean_G,ci95_G,mean_P_w,ci95_P_w,ee_rom,ee_mor"
)


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _csv_row(policy_label: str, cfg, agg) -> str:
    return ",".join(
        [
            policy_label,
            str(cfg.k),
            str(cfg.s),
            str(cfg.ris.n_elements),
            _fmt(cfg.radio.mtd_tx_power_w),
            str(agg.trials),
            str(agg.seed),
            _fmt(agg.mean_a),
            _fmt(agg.mean_throughput),
            _fmt(agg.ci95_throughput),
            _fmt(agg.mean_power_w),
            _fmt(agg.ci95_power_w),
            _fmt(agg.ee_ratio_of_means),
            _fmt(agg.ee_mean_of_ratios),
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


def _manifest_base(command: str, resolved: dict[str, Any], policies: list[str]) -> dict[str, Any]:
    return {
        "tool": "risra",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "policies": policies,
        "config": resolved,
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


def _policies_arg(arg: str | None, resolved: dict[str, Any]) -> list[Policy]:
    if not arg:
        return [Policy(resolved["policy.kind"], resolved["policy.sscp_s"])]
    policies = []
    for kind in arg.split(","):
        kind = kind.strip()
        if kind not in POLICY_KINDS:
            raise ValueError(f"--policies entries must be among {', '.join(POLICY_KINDS)}")
        policies.append(Policy(kind, resolved["policy.sscp_s"]))
    return policies


def _resolve(args) -> tuple[Any, dict[str, Any]]:
    cfg, resolved = parse_config(args.config, args.set or [])
    if args.trials is not None:
        resolved["sim.trials"] = int(args.trials)
    if args.seed is not None:
        resolved["sim.seed"] = int(args.seed)
    cfg = build_config(resolved)
    return cfg, resolved


def _progress(verbose: bool):
    if not verbose:
        return None

    def report(done: int, total: int) -> None:
        print(f"point {done}/{total}", file=sys.stderr)

    return report


def cmd_run(args) -> int:
    cfg, resolved = _resolve(args)
    policies = _policies_arg(args.policies, resolved)
    out = Path(args.out)
    rows = []
    trace_blocks = []
    progress = _progress(args.verbose)
    ordered = sorted(policies, key=lambda p: p.label)
    for i, policy in enumerate(ordered):
        run_cfg = with_policy(cfg, policy)
        if args.verbose:
            agg, traces = run_monte_carlo_with_traces(run_cfg)
            for trial, trace in enumerate(traces):
                trace_blocks.append(f"# policy {policy.label} trial {trial}")
                trace_blocks.extend(f"{it},{slot},{dev}" for it, slot, dev in trace)
        else:
            agg = run_monte_carlo(run_cfg)
        rows.append(_csv_row(policy.label, run_cfg, agg))
        if progress is not None:
            progress(i + 1, len(ordered))
    manifest = _manifest_base("run", resolved, [p.label for p in policies])
    _write_outputs(out, rows, manifest)
    if args.verbose and trace_blocks:
        _write_atomic(out.with_name(out.name + ".trace"), "\n".join(trace_blocks) + "\n")
    return 0


def cmd_sweep(args) -> int:
    cfg, resolved = _resolve(args)
    policies = _policies_arg(args.policies, resolved)
    values = parse_values(args.values)
    spec = SweepSpec(axis=args.axis, values=tuple(values), base=cfg, policies=tuple(policies))
    points = sweep(spec, progress=_progress(args.verbose))
    rows = [_csv_row(pt.policy_label, pt.config, pt.result) for pt in points]
    manifest = _manifest_base("sweep", resolved, [p.label for p in policies])
    manifest["axis"] = args.axis
    manifest["values"] = values
    _write_outputs(Path(args.out), rows, manifest)
    return 0


def cmd_optimal_s(args) -> int:
    cfg, resolved = _resolve(args)
    policies = _policies_arg(args.policies, resolved)
    s_values = [int(v) for v in parse_values(args.s_values)]
    rows = []
    for policy in sorted(policies, key=lambda p: p.label):
        report = optimal_over_s(with_policy(cfg, policy), s_values, progress=_progress(args.verbose))
        by_s = dict(report.curve)
        for s, agg in report.curve:
            rows.append(_csv_row(policy.label, apply_s(cfg, policy, s), agg))
        best_g_s = report.best_throughput[0]
        best_ee_s = report.best_ee[0]
        rows.append(_csv_row(f"{policy.label}:best_G", apply_s(cfg, policy, best_g_s), by_s[best_g_s]))
        rows.append(_csv_row(f"{policy.label}:best_ee", apply_s(cfg, policy, best_ee_s), by_s[best_ee_s]))
    manifest = _manifest_base("optimal-s", resolved, [p.label for p in policies])
    manifest["s_values"] = s_values
    _write_outputs(Path(args.out), rows, manifest)
    return 0


def apply_s(cfg, policy: Policy, s: int):
    return with_policy(apply_axis_value(cfg, "S", s), policy)


def cmd_validate(args) -> int:
    _cfg, resolved = _resolve(args)
    for key in sorted(resolved):
        print(f"{key} = {resolved[key]}")
    return 0


def replay_manifest(manifest_path: str | Path, out: str | Path) -> Path:
    """Re-run the command recorded in a manifest, writing the CSV to `out`.

    The resolved config stored in the manifest fully determines the result, so
    the regenerated CSV is byte-identical to the original.
    """
    manifest = json.loads(Path(manifest_path).read_text())
    resolved = manifest["config"]
    argv = [manifest["command"], "--out", str(out), "--policies", ",".join(manifest["policies"])]
    for key, value in resolved.items():
        argv += ["--set", f"{key}={value}"]
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
    common.add_argument("--verbose", action="store_true", help="progress lines and decode traces")

    parser = argparse.ArgumentParser(
        prog="risra",
        description="Monte Carlo simulator for RIS-aided IoT random access",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="evaluate the configured scenario")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep one axis per policy")
    p_sweep.add_argument("--axis", required=True, choices=["K", "rho_mtd", "N", "S"])
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
