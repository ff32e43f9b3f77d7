"""Record goldens.json: the outputs every benchmark run is checked against.

Run from the repository root, only at a commit whose outputs are known good:

  python3 perfbench/record_goldens.py

For each workload and each seed in SEEDS it records one round's outputs
(the sha256 of every AggregateResult field at full precision per cell, or the
sha256 of the sweep CSV bytes), and the sha256 of the `risra run --trials
2000 --seed 1` CSV of each policy. A result that breaks an invariant is not
recorded.
"""

from __future__ import annotations

import json
import os
import shutil

import run

# the default seed 1, the small seeds 0..31 that runs usually pass,
# and one held-out seed chosen far from them
SEEDS = (*range(32), 20261017)


def main() -> None:
    workdir = run.OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        mods = run.Modules()
        goldens = {"cells": {}, "run_csv_sha256": run.anchor_digests(mods, workdir)}
        if None in goldens["run_csv_sha256"].values():
            raise SystemExit("a golden `risra run` CSV could not be produced")
        for workload in run.WORKLOADS.values():
            per_seed = goldens["cells"][workload.name] = {}
            for seed in SEEDS:
                rnd = workload.round(mods, workload.prepare(mods, seed, workdir))
                if None in rnd.outputs.values():
                    raise SystemExit(f"{workload.name} seed {seed}: a cell failed; nothing recorded")
                per_seed[str(seed)] = rnd.outputs
                print(f"{workload.name} seed {seed}: {rnd.frames / rnd.wall_s:.0f} frames/s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
