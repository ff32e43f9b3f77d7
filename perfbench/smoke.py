"""Smoke test of the benchmark itself.

Run from the repository root (about two minutes):

  python3 perfbench/smoke.py

It runs every workload of run.py, including those BENCHMARK.json leaves out,
at a tiny length with tracing off (through `--workload all`) and on. It checks
that each result names exactly the metrics of BENCHMARK.json with their units
and reports no failure. It then checks that a corrupted golden digest makes
the command fail, and that the benchmark fails without printing a result in
a directory that holds only BENCHMARK.json and this directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ("--seed", "1", "--seconds", "1")


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    script = root / "perfbench" / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def units(specs, prefix: str = "") -> dict[str, str]:
    return {prefix + m["name"]: m["unit"] for m in specs}


def check_result(label: str, proc, expected_units: dict[str, str], errors: list[str]) -> None:
    result = result_of(proc)
    if proc.returncode != 0 or result is None:
        errors.append(f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_units:
        missing = sorted(set(expected_units.items()) - set(got.items()))
        extra = sorted(set(got.items()) - set(expected_units.items()))
        errors.append(f"{label}: metrics differ; missing {missing}, unexpected {extra}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        errors.append(f"{label}: a metric value is not a number")


def main() -> int:
    errors: list[str] = []
    names = list(WORKLOADS)
    for spec in SPEC["workloads"]:
        if spec["name"] not in WORKLOADS:
            errors.append(f"BENCHMARK.json workload {spec['name']} is not in run.py")

    proc = bench("--workload", "all", *TINY, "--trace", "0")
    expected = {}
    for name in names:
        expected.update(units(SPEC["end_to_end"], f"{name}."))
        if f"{name:14s} failed_frac" not in proc.stdout:
            errors.append(f"all: no failed_frac line for {name}")
    check_result("all --trace 0", proc, expected, errors)

    for name in names:
        proc = bench("--workload", name, *TINY, "--trace", "1")
        check_result(f"{name} --trace 1", proc, units(SPEC["per_layer"]), errors)

    OUT.mkdir(exist_ok=True)
    goldens = json.loads((HERE / "goldens.json").read_text())
    goldens["cells"]["baseline"]["1"]["carp"] = "0" * 64
    corrupt = OUT / "smoke-corrupt-goldens.json"
    corrupt.write_text(json.dumps(goldens))
    proc = bench("--workload", "baseline", *TINY, "--trace", "0", "--goldens", str(corrupt))
    result = result_of(proc)
    if proc.returncode == 0 or result is None or result["correct"] or result["failed"] == 0:
        errors.append(f"corrupted golden was not detected (exit code {proc.returncode})")

    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "baseline", *TINY, "--trace", "0", root=bare)
    if proc.returncode == 0 or result_of(proc) is not None:
        errors.append(f"bare directory: exit code {proc.returncode} or a result was printed")
    shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print(f"FAIL {error}")
    print("smoke test passed" if not errors else f"smoke test failed: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
