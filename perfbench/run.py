#!/usr/bin/env python3
"""Repository benchmark: three workloads timed end to end, or per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload again with every layer wrapped from outside (see
``layers.py``) and prints the per-layer metrics. Either way the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` / ``failed`` count ops. The exit code is 0 only when
every correctness check passed. The program under test is imported from
``src/`` of the checkout this file sits in; anything the run writes goes
under ``perfbench/.work`` (removed at exit) and ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
    }


def loadavg() -> list[float] | None:
    """The 1/5/15-minute load averages, or None where the host hides them."""
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def run_setups(workload, name: str, seed: int, work: Path) -> tuple[float, list[str]]:
    """Time the workload's fresh-interpreter set-ups and adopt the last
    one; returns the median time at nominal host speed, the host
    slowdown it was corrected by, and any disagreement between the set-ups."""
    from workloads import REF_NOMINAL_S, SETUP_DIGEST, reference_loop

    times, refs, digests = [], [reference_loop()], set()
    repeats = workload.setup_repeats
    for i in range(repeats):
        out = work / f"setup-{i}"
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child", str(out),
             "--workload", name, "--seed", str(seed)],
            check=True,
        )
        times.append(time.perf_counter() - t0)
        refs.append(reference_loop())
        if (out / SETUP_DIGEST).is_file():
            digests.add((out / SETUP_DIGEST).read_text(encoding="utf-8"))
        if i < repeats - 1:
            shutil.rmtree(out, ignore_errors=True)
    workload.prepare(work / f"setup-{repeats - 1}")
    problems = [f"set-ups disagree: {sorted(digests)}"] if len(digests) > 1 else []
    # one slowdown for all set-ups: a single sample is too noisy to
    # correct a single set-up by
    host = statistics.median(refs) / REF_NOMINAL_S
    return statistics.median(times) / host, host, problems


def end_to_end(units, setup_s: float) -> dict[str, tuple[float, str]]:
    """Every timing is scaled to nominal host speed by its unit's
    slowdown (``Unit.host``). Rates are medians over units; op
    percentiles pool every op of the run, since one unit holds too few
    ops of too mixed a cost on some workloads."""
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    ops = [op / u.host for u in units for op in u.ops]
    return {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (statistics.median(u.cells / u.wall * u.host for u in units), "1/s"),
        # a unit without cells failed as a whole and was reported as such
        "cpu_ms_per_cell": (statistics.median(
            1000.0 * u.cpu / max(u.cells, 1) / u.host for u in units), "ms"),
        "op_p50_s": (_percentile(ops, 50), "s"),
        "op_p90_s": (_percentile(ops, 90), "s"),
        "sim_events_per_s": (
            statistics.median(u.events / u.wall * u.host for u in units), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }


#: per-layer metrics: timed layers (inclusive ``.s``) and call-counted ones
TIMED_LAYERS = (
    "graphs.make_family", "spanning.build_spanning_tree", "sim.run_lockstep",
    "algorithms.run", "algorithms.build", "analysis.setup", "analysis.records",
    "cache.get_many", "cache.put_many",
    "scenarios.report.aggregate", "scenarios.report.lower_bound",
    "scenarios.report.make_family", "scenarios.report.render",
    "exploration.explore", "exploration.mutate", "exploration.shrink",
    "oracle.check_cell", "oracle.exact",
)
#: timed layers that enclose other timed layers: their self time
#: (inclusive minus child spans) is reported too
PARENT_LAYERS = (
    "analysis.setup", "scenarios.report.aggregate", "exploration.explore",
    "exploration.shrink", "oracle.check_cell",
)
CALLED_LAYERS = (
    "graphs.make_family", "spanning.build_spanning_tree",
    "cache.get_many", "cache.put_many",
)
#: exact per-unit counts (they repeat exactly for a given seed)
EXACT = {
    "sim.events": "count", "sim.messages": "count", "sim.bits": "bits",
    "sim.causal_time": "count", "sim.rounds": "count",
    "cache.hits": "count", "cache.misses": "count", "cache.index_bytes": "bytes",
    "exploration.shrink.probes": "count", "exploration.coverage": "count",
    "exploration.corpus": "count", "exploration.failures": "count",
    "exploration.admit_ratio": "fraction",
}
EXECUTOR = ("executor.parallel_run.s", "executor.worker_cpu_s", "executor.ipc_wait_s")


def per_layer(workload, tracer, plain, traced, windows) -> dict[str, tuple[float, str]]:
    """Per-layer values per unit: seconds as the median over traced
    units, counts from the first traced unit (they repeat exactly)."""
    per_unit = [tracer.inclusive(lo, hi) for lo, hi in windows]
    self_per_unit = [tracer.self_times(lo, hi) for lo, hi in windows]
    first = per_unit[0]
    counts = traced[0].exact
    metrics: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.s"] = (
            statistics.median(inc.get(layer, (0, 0.0))[1] for inc in per_unit), "s")
    for layer in PARENT_LAYERS:
        metrics[f"{layer}.self_s"] = (
            statistics.median(st.get(layer, 0.0) for st in self_per_unit), "s")
    for layer in CALLED_LAYERS:
        metrics[f"{layer}.calls"] = (float(first.get(layer, (0, 0.0))[0]), "count")
    for name, unit in EXACT.items():
        metrics[name] = (float(counts.get(name, 0)), unit)
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    metrics["cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "fraction")
    extra = workload.traced_extra(tracer)
    for name in EXECUTOR:
        metrics[name] = (float(extra.get(name, 0.0)), "s")
    fracs = []
    for lo, hi in windows:
        fracs += tracer.attributed_fracs(workload.op_root, lo, hi)
    metrics["trace.attributed_frac"] = (statistics.median(fracs), "fraction")
    metrics["trace.overhead_frac"] = (
        statistics.median(u.wall / u.host for u in traced)
        / statistics.median(u.wall / u.host for u in plain) - 1.0, "fraction")
    metrics["failed_cells"] = (float(traced[0].failed), "count")
    metrics["failed_frac"] = (traced[0].failed / traced[0].attempted, "fraction")
    return metrics


def timed_run(workload, seconds: float) -> list:
    units = []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        units.append(workload.unit(len(units)))
    return units


def traced_run(workload, seconds: float, tracer):
    """Alternate untraced and traced units over the same inputs, so the
    overhead compares like with like; every layer is wrapped only while
    a traced unit runs."""
    from layers import install

    plain, traced, windows = [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while not traced or time.perf_counter() < deadline:
        plain.append(workload.unit(k, jobs=workload.trace_jobs))
        lo = len(tracer.spans)
        tracer.counts = {}
        with install(tracer):
            traced.append(workload.unit(k, tracer, jobs=workload.trace_jobs))
        windows.append((lo, len(tracer.spans)))
        traced[-1].exact.update(tracer.counts)
        k += 1
    return plain, traced, windows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    if args.setup_child is not None:
        args.setup_child.mkdir(parents=True, exist_ok=True)
        WORKLOADS[args.workload](args.seed, args.setup_child).setup_child(args.setup_child)
        return 0

    env = environment()
    env["loadavg_start"] = loadavg()
    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        work.mkdir(parents=True, exist_ok=True)
        setup_s, env["setup_host"], problems = run_setups(
            workload, args.workload, args.seed, work)
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            plain, traced, windows = traced_run(workload, args.seconds, tracer)
            units = plain + traced
            reached = len(traced)
            metrics = per_layer(workload, tracer, plain, traced, windows)
        else:
            units = timed_run(workload, args.seconds)
            reached = len(units)
            metrics = end_to_end(units, setup_s)
        env["host"] = statistics.median(u.host for u in units)
        problems += [p for u in units for p in u.problems]
        problems += workload.finish(units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    env["loadavg_end"] = loadavg()

    if args.seed == 0:
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        for key, want in expected.get(args.workload, {}).items():
            got = {u.digests[key] for u in units if key in u.digests}
            index = re.search(r"\d+$", key)
            if not got and index and int(index[0]) >= reached:
                continue  # pinned for a unit this run did not reach
            if got != {want}:
                problems.append(f"digest {key}: expected {want}, got {sorted(got)}")

    if args.trace:
        tracer.write(
            HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "env": env},
        )

    ops = sum(len(u.ops) for u in units)
    failed_ops = sum(u.failed_ops for u in units)
    digests: dict[str, str] = {}
    for u in units:
        for key, value in u.digests.items():
            digests.setdefault(key, value)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "units": len(units), "ops": ops, "digests": digests}))
    # also on stderr, so a log of stderr alone shows why a run failed
    for line in ([f"FAILED OP: {e}" for u in units for e in u.errors][:50]
                 + [f"CHECK FAILED: {p}" for p in problems[:50]]):
        print(line)
        print(line, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:34s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": ops,
        # a whole-run check failing counts as one failed op
        "failed": failed_ops if not problems else max(failed_ops, 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
