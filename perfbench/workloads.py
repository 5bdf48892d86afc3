"""The benchmark's three workloads, each driven through the public API.

* ``sweep_cold`` — a paper-scale sweep, serial, no cache: the engine.
* ``campaign_warm`` — all built-in scenarios replayed from a disk cache
  that set-up filled: the cache read path and the report.
* ``fuzz_cached`` — a budget-512 coverage-guided fuzz campaign with two
  workers and a fresh cache: exploration, oracle, shrinker, worker IPC
  and the cache write path.

A workload runs in *units* (one sweep pass, five campaign replays, one
fuzz campaign); a unit is made of *ops* (one seed group, one replay,
one probe round), whose durations give the unit's op percentiles. Each unit
also checks the outputs it produced; a violation lands in
``Unit.problems`` and makes the whole run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from layers import Tracer, patched

#: ``--seed s`` shifts every instance seed by ``s * SEED_STRIDE``.
SEED_STRIDE = 1000

#: file a set-up child may leave with a digest of what it produced; the
#: run.py checks that every set-up of a run left the same one
SETUP_DIGEST = "setup.digest"


def records_digest(records) -> str:
    """sha256 over the records' canonical JSON lines, in order."""
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record.to_json_dict(), sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def describe(exc: BaseException) -> str:
    """``Type at file:line: message`` for an exception, locating it in the
    worker's traceback when it crossed a process pool."""
    worker_tb = getattr(exc.__cause__, "tb", "")
    frames = re.findall(r'File "([^"]+)", line (\d+)', worker_tb) or [
        (f.filename, str(f.lineno)) for f in traceback.extract_tb(exc.__traceback__)
    ]
    where = f" at {Path(frames[-1][0]).name}:{frames[-1][1]}" if frames else ""
    return f"{type(exc).__name__}{where}: {exc}"


def children_cpu() -> float:
    """CPU seconds of every reaped child process so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Unit:
    """What one unit did, as run.py aggregates it."""

    wall: float = 0.0  # seconds of timed work (checks excluded)
    cpu: float = 0.0  # process plus child CPU seconds of that work
    ops: list[float] = field(default_factory=list)
    cells: int = 0  # records produced or served
    events: int = 0  # simulator events those records carry
    attempted: int = 0  # cells attempted, for the failed fraction
    failed: int = 0  # cells that failed (raised, errored or failed a check)
    failed_ops: int = 0  # ops that raised or whose outputs failed a check
    problems: list[str] = field(default_factory=list)
    #: failed ops, reported but not a failed check (e.g. a defect the
    #: fuzzer hit that aborted its campaign)
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    #: exact per-unit values the workload reports itself (traced runs)
    exact: dict[str, float] = field(default_factory=dict)
    #: reference-loop durations sampled between the unit's ops
    refs: list[float] = field(default_factory=list)
    #: wall and CPU seconds those samples took inside the unit's window
    ref_wall: float = 0.0
    ref_cpu: float = 0.0

    @property
    def host(self) -> float:
        """How much slower than nominal the host ran during this unit."""
        return statistics.median(self.refs) / REF_NOMINAL_S if self.refs else 1.0


#: what :func:`reference_loop` takes on an unloaded 2-vCPU cloud VM (the
#: host class the bounds were set on); timings are reported as if
#: measured at that speed
REF_NOMINAL_S = 0.010
#: at most one reference sample per this many seconds, so sampling adds
#: a few percent to a run however short its ops are
REF_EVERY_S = 0.25


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's current speed.

    A shared host slows every process on it by tens of percent for
    seconds to minutes at a time. Sampled between a unit's ops, this loop
    slows with it, and dividing the unit's timings by its slowdown takes
    most of that drift out while leaving the program's own speed in."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


_last_sample = float("-inf")


def sample_host(u: Unit) -> None:
    """Add a reference sample to *u* unless one was taken very recently
    (every unit gets at least one)."""
    global _last_sample
    if u.refs and time.perf_counter() - _last_sample < REF_EVERY_S:
        return
    c0 = time.process_time()
    t0 = time.perf_counter()
    u.refs.append(reference_loop())
    _last_sample = time.perf_counter()
    u.ref_wall += _last_sample - t0
    u.ref_cpu += time.process_time() - c0


def _op(fn: Callable[[], Any], tracer: Tracer | None, u: Unit):
    """Run one op of *u*; return (result, wall seconds, process CPU seconds)."""
    sample_host(u)
    c0 = time.process_time()
    t0 = time.perf_counter()
    if tracer is None:
        result = fn()
    else:
        with tracer.span("op"):
            result = fn()
    return result, time.perf_counter() - t0, time.process_time() - c0


class Workload:
    name = ""
    why = ""
    #: name of the span each op is recorded under in traced runs
    op_root = "op"
    #: worker count for traced units (worker-side layers need 1)
    trace_jobs: int | None = None
    #: fresh-interpreter set-ups per run; ``setup_s`` is their median
    setup_repeats = 9

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def setup_child(self, out: Path) -> None:
        """Set-up work done in a fresh interpreter (timed from outside)."""

    def prepare(self, out: Path) -> None:
        """Adopt the outputs of the last set-up child."""

    def unit(self, k: int, tracer: Tracer | None = None, jobs: int | None = None) -> Unit:
        raise NotImplementedError

    def finish(self, units: list[Unit]) -> list[str]:
        """Whole-run checks after the timed units; returns problems."""
        return []

    def traced_extra(self, tracer: Tracer) -> dict[str, float]:
        """Per-layer values that need a run of their own."""
        return {}


class SweepCold(Workload):
    name = "sweep_cold"
    why = "serial uncached paper-scale sweep: the simulator drive loop is ~94% of the time"

    def spec(self, k: int):
        from repro.analysis.harness import SweepSpec

        # pass k of a run covers its own 4 seeds, so a run averages over
        # more instances than one grid holds
        base = SEED_STRIDE * self.seed + 4 * k
        return SweepSpec(
            families=("gnp_sparse", "geometric", "pref_attach"),
            sizes=(32, 64),
            seeds=tuple(range(base, base + 4)),
            delays=("unit", "exponential"),
            algorithms=("blin_butelle", "fr_local"),
        )

    def setup_child(self, out: Path) -> None:
        from repro.analysis.batch import group_cells

        group_cells(self.spec(0).cells())

    def unit(self, k, tracer=None, jobs=None) -> Unit:
        from repro.analysis.batch import group_cells
        from repro.analysis.executor import SerialExecutor

        cells = self.spec(k).cells()
        executor = SerialExecutor()
        u = Unit()
        records = []
        for idxs in group_cells(cells):
            group = [cells[i] for i in idxs]
            recs, wall, cpu = _op(lambda: executor.run(group), tracer, u)
            u.ops.append(wall)
            u.wall += wall
            u.cpu += cpu
            records.extend(recs)
            failed = u.failed
            for r in recs:
                # claim C5: messages carry at most 4 id fields
                bad = []
                if not r.ok:
                    bad.append(f"outcome={r.outcome}")
                if r.k_final > r.k_initial:
                    bad.append(f"k_final {r.k_final} > k_initial {r.k_initial}")
                if r.max_msg_fields > 4:
                    bad.append(f"max_msg_fields {r.max_msg_fields} > 4")
                if bad:
                    u.failed += 1
                    u.problems.append(
                        f"{r.algorithm}/{r.family}/n={r.n}/seed={r.seed}/{r.delay}: "
                        + ", ".join(bad)
                    )
            u.failed_ops += u.failed > failed
        u.cells = u.attempted = len(records)
        u.events = sum(r.events for r in records)
        u.digests[f"records.pass{k}"] = records_digest(records)
        return u


class CampaignWarm(Workload):
    name = "campaign_warm"
    why = "warm replay of all 10 built-in scenarios: cache read path and report, no simulation"
    setup_repeats = 3  # each set-up is a ~2.5 s cold fill
    #: replays per unit, so a unit's op percentiles have samples to span
    REPLAYS = 5

    def campaign(self):
        from repro.scenarios.library import builtin_campaign, scenario_names

        camp = builtin_campaign(scenario_names())
        shift = SEED_STRIDE * self.seed
        return replace(camp, scenarios=tuple(
            replace(sc, seeds=tuple(s + shift for s in sc.seeds))
            for sc in camp.scenarios
        ))

    def setup_child(self, out: Path) -> None:
        from repro.analysis.cache import ResultCache
        from repro.analysis.executor import CachingExecutor, SerialExecutor
        from repro.scenarios.report import write_report
        from repro.scenarios.runner import run_campaign

        result = run_campaign(
            self.campaign(),
            executor=CachingExecutor(SerialExecutor(), ResultCache(out / "cache")),
        )
        write_report(result, out / "report")
        records = [r for sr in result.results for r in sr.records]
        (out / SETUP_DIGEST).write_text(records_digest(records), encoding="utf-8")

    def prepare(self, out: Path) -> None:
        self.camp = self.campaign()
        self.cache_dir = out / "cache"
        self.cold = {
            name: (out / "report" / name).read_bytes()
            for name in ("report.md", "report.json")
        }
        self.cold_records = (out / SETUP_DIGEST).read_text(encoding="utf-8")
        self.index_bytes = (self.cache_dir / "index.json").stat().st_size

    def unit(self, k, tracer=None, jobs=None) -> Unit:
        from repro.analysis.cache import ResultCache
        from repro.analysis.executor import CachingExecutor, SerialExecutor
        from repro.scenarios.report import write_report
        from repro.scenarios.runner import run_campaign

        out = self.work / "replay"

        def replay():
            # a fresh cache object per op, as a new CLI process opens one
            cache = ResultCache(self.cache_dir)
            result = run_campaign(
                self.camp, executor=CachingExecutor(SerialExecutor(), cache)
            )
            write_report(result, out)
            return cache, result

        u = Unit()
        for _ in range(self.REPLAYS):
            (cache, result), wall, cpu = _op(replay, tracer, u)
            u.ops.append(wall)
            u.wall += wall
            u.cpu += cpu
            records = [r for sr in result.results for r in sr.records]
            u.cells += len(records)
            u.events += sum(r.events for r in records)
            problems = []
            for r in records:
                # stalls are loud and expected under faults or churn only
                expected_stall = r.outcome == "stalled" and (
                    r.fault != "none" or r.churn != "none"
                )
                if not (r.ok or expected_stall):
                    u.failed += 1
                    problems.append(f"unexpected {r.outcome} record: {r.to_json_dict()}")
            if cache.misses:
                problems.append(f"warm replay missed the cache {cache.misses} times")
            for name, cold in self.cold.items():
                if (out / name).read_bytes() != cold:
                    problems.append(f"replayed {name} differs from the cold fill")
            digest = records_digest(records)
            if digest != self.cold_records:
                problems.append("replayed records differ from the cold fill")
            u.failed_ops += bool(problems)
            u.problems += problems
        u.attempted = u.cells
        u.digests["report"] = hashlib.sha256(
            self.cold["report.md"] + self.cold["report.json"]
        ).hexdigest()
        u.digests["records"] = digest
        u.exact["cache.index_bytes"] = self.index_bytes
        return u


#: the defect this workload is known to find: blin_butelle's handlers
#: raising ProtocolError on a message its round state does not expect
#: (WaveEcho, cross reply, report, Search from a non-parent, ...) under
#: an adversarial replay schedule. Most cases run under restart churn
#: with the lifo fallback; some need no churn (gnp_sparse n=8 seed 419
#: under plain ``replay``).
def known_defect(result) -> bool:
    errors = [r.extra.get("error", "") for r in result.records if r.outcome == "error"]
    return (
        result.verdict.failures == ("run_failed:blin_butelle",)
        and bool(errors)
        and all(e.startswith("ProtocolError: ") for e in errors)
    )


#: the second known defect: ``assert old_parent is not None`` in
#: blin_butelle's ``_on_flip_back`` (protocol/exchange.py). Probes capture
#: library errors only, so this AssertionError ends the whole campaign.
def known_abort(exc: BaseException) -> bool:
    return isinstance(exc, AssertionError) and describe(exc).startswith(
        "AssertionError at exchange.py:"
    )


def failures_digest(report) -> str:
    """Count of a campaign's failures, and sha256 over each failure's
    cell, verdict and error texts in the order they were found."""
    h = hashlib.sha256()
    for result in report.failures:
        errors = [r.extra.get("error", "") for r in result.records if r.outcome == "error"]
        h.update(json.dumps([result.cell.canonical(), list(result.verdict.failures), errors],
                            separators=(",", ":")).encode("utf-8"))
        h.update(b"\n")
    return f"{len(report.failures)}:{h.hexdigest()}"


class FuzzCached(Workload):
    name = "fuzz_cached"
    why = ("budget-512 fuzz campaign, 2 workers, fresh cache: "
           "exploration, oracle, shrink, IPC, cache writes")
    op_root = "exploration.explore"
    trace_jobs = 1
    BUDGET = 512
    JOBS = 2

    def spec(self, k: int):
        from repro.exploration.fuzz import FuzzSpec

        # campaign k of a run mutates with its own stream, so a run's
        # probe rounds are not 9 copies of one campaign's 64 rounds
        return FuzzSpec(budget=self.BUDGET, seed=SEED_STRIDE * self.seed + k)

    def setup_child(self, out: Path) -> None:
        self.spec(0).seed_cells()

    def prepare(self, out: Path) -> None:
        #: campaign index -> digests of its first run, at any job count
        self.reference: dict[int, dict[str, str]] = {}
        self.jobs_seen: set[int] = set()
        #: campaigns run outside the timed units (checks, executor trace)
        self.untimed: list[Unit] = []

    def unit(self, k, tracer=None, jobs=None) -> Unit:
        from repro.exploration.fuzz import run_fuzz

        jobs = jobs or self.JOBS
        spec = self.spec(k)
        cache_dir = self.work / "fuzz-cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        u = Unit()

        def timing(explore):
            # an op is one probe round: one explore() call of the loop
            def timed(cells, *args, **kwargs):
                u.attempted += len(cells)
                sample_host(u)
                t0 = time.perf_counter()
                try:
                    results = explore(cells, *args, **kwargs)
                except Exception:
                    # a probe raised past the fuzzer: the round's cells are lost
                    u.failed += len(cells)
                    u.failed_ops += 1
                    raise
                finally:
                    u.ops.append(time.perf_counter() - t0)
                u.failed += sum(1 for r in results if not r.ok)
                for result in results:
                    u.cells += len(result.records)
                    u.events += sum(r.events for r in result.records)
                return results

            return timed

        report = None
        with patched([("repro.exploration.fuzz", "explore", timing)]):
            ch0, c0, t0 = children_cpu(), time.process_time(), time.perf_counter()
            try:
                report = run_fuzz(spec, jobs=jobs, cache=cache_dir)
            except Exception as exc:
                # the campaign is lost, and with it the op in flight
                if not u.failed_ops:
                    # raised outside a probe round (e.g. in the shrinker,
                    # whose one probe in flight failed)
                    u.failed_ops = 1
                    u.attempted += 1
                    u.failed += 1
                where = (f"fuzz campaign {k} (FuzzSpec.seed {spec.seed}, jobs={jobs}) "
                         f"aborted after probe round {len(u.ops)}: {describe(exc)}")
                if known_abort(exc):
                    # the outcome is the known defect: keep it as data,
                    # it must recur identically at the other job count
                    u.errors.append(where)
                else:
                    u.problems.append(where)
                    traceback.print_exc(file=sys.stderr)
                digests = {f"{key}.c{k}": describe(exc)
                           for key in ("coverage", "corpus", "failures")}
            # the host samples taken between probe rounds are not the campaign's
            u.wall = time.perf_counter() - t0 - u.ref_wall
            # pool workers are reaped when the campaign closes its pool
            u.cpu = time.process_time() - c0 + children_cpu() - ch0 - u.ref_cpu
        index = cache_dir / "index.json"
        if index.is_file():
            u.exact["cache.index_bytes"] = index.stat().st_size
        shutil.rmtree(cache_dir, ignore_errors=True)

        if report is not None:
            for result in report.failures:
                if not known_defect(result):
                    u.problems.append(
                        f"unexpected fuzz failure {result.verdict.failures} on "
                        f"{result.cell.canonical()}"
                    )
            digests = {
                f"coverage.c{k}": report.coverage_digest,
                f"corpus.c{k}": report.corpus_digest,
                f"failures.c{k}": failures_digest(report),
            }
            u.exact.update({
                "exploration.coverage": report.coverage,
                "exploration.corpus": len(report.corpus),
                "exploration.failures": len(report.failures),
                "exploration.admit_ratio": len(report.corpus) / max(report.probed, 1),
            })
        reference = self.reference.setdefault(k, digests)
        if digests != reference:
            u.problems.append(
                f"fuzz campaign {k} at jobs={jobs} ended otherwise than its "
                f"first run: {digests} vs {reference}"
            )
        self.jobs_seen.add(jobs)
        u.digests.update(digests)
        return u

    def finish(self, units: list[Unit]) -> list[str]:
        # determinism across backends: one untimed campaign at the other
        # job count must reach the same coverage and corpus
        for jobs in sorted({1, self.JOBS} - self.jobs_seen):
            self.untimed.append(self.unit(0, jobs=jobs))
        return [p for u in self.untimed for p in u.problems]

    def traced_extra(self, tracer: Tracer) -> dict[str, float]:
        """Executor time from one campaign with the real worker pool:
        the parallel run's wall time, the workers' CPU, and what is left
        of the former once the workers' average busy time is taken out."""
        from layers import install

        lo = len(tracer.spans)
        ch0 = children_cpu()
        with install(tracer, ("executor.parallel_run",)):
            self.untimed.append(self.unit(0, jobs=self.JOBS))
        worker_cpu = children_cpu() - ch0
        run_s = tracer.inclusive(lo).get("executor.parallel_run", (0, 0.0))[1]
        return {
            "executor.parallel_run.s": run_s,
            "executor.worker_cpu_s": worker_cpu,
            "executor.ipc_wait_s": run_s - worker_cpu / self.JOBS,
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SweepCold, CampaignWarm, FuzzCached)
}
