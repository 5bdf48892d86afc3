#!/usr/bin/env python3
"""Prediction self-check: do the workloads separate the engine layer?

Runs ``sweep_cold`` and ``campaign_warm`` in pairs — one plain run, one
with ``REPRO_MUTATIONS=slow_event_loop`` (the simulator's seed-era event
loop: same outputs, slower per event) — and checks the predictions:

* ``sweep_cold`` ``cells_per_s`` gets worse by more than its bound
  (the engine is most of that workload);
* ``campaign_warm`` ``op_p50_s`` stays within its bound (a warm replay
  simulates nothing).

Bounds and the run length come from ``BENCHMARK.json``; each side is
the median of three runs (seeds 0-2). Usage, from the checkout root::

    python3 perfbench/selfcheck.py

Exits 0 when both predictions hold.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload -> (metric, predicted to move beyond its bound?)
PREDICTIONS = {
    "sweep_cold": ("cells_per_s", True),
    "campaign_warm": ("op_p50_s", False),
}
RUNS = 3


def run(workload: str, seed: int, seconds: int, mutated: bool) -> float:
    env = dict(os.environ)
    env.pop("REPRO_MUTATIONS", None)
    if mutated:
        env["REPRO_MUTATIONS"] = "slow_event_loop"
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{out.stdout}")
    return result["metrics"][PREDICTIONS[workload][0]]["value"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    for workload, (metric, moves) in PREDICTIONS.items():
        plain, slow = [], []
        for i in range(RUNS):
            # alternate which side runs first, same seed within a pair
            order = (False, True) if i % 2 == 0 else (True, False)
            for mutated in order:
                (slow if mutated else plain).append(
                    run(workload, i, spec["run_seconds"], mutated))
        base, mut = statistics.median(plain), statistics.median(slow)
        worse = (base / mut - 1.0) if metrics[metric]["better"] == "higher" else (mut / base - 1.0)
        bound = metrics[metric]["bound"]
        held = (worse > bound) if moves else (worse <= bound)
        ok &= held
        print(f"{workload:14s} {metric:12s} plain {base:.5g} slow_event_loop {mut:.5g} "
              f"worse by {worse:+.1%} (bound {bound:.0%}); predicted "
              f"{'beyond' if moves else 'within'} bound: {'held' if held else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
