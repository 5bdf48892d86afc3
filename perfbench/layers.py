"""Outside-in span tracing for the benchmark's traced runs.

Every layer is observed by replacing a public function at the module (or
class) attribute its caller looks it up through, e.g.
``repro.analysis.batch.make_family`` for the graph generator as the cell
setup calls it. No ``src/`` file knows it is being traced. Spans
(name, start, end, parent) are kept in memory and written out once, when
the run ends; :func:`install` restores every original on exit.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: (layer metric prefix, owner module or class path, attribute). A layer
#: may wrap several attributes (both record builders are "records", both
#: report renderers are "render"). ``.s`` per-layer metrics are the
#: inclusive seconds of these spans.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("graphs.make_family", "repro.analysis.batch", "make_family"),
    ("spanning.build_spanning_tree", "repro.analysis.batch", "build_spanning_tree"),
    ("sim.run_lockstep", "repro.analysis.batch", "run_lockstep"),
    ("analysis.setup", "repro.analysis.batch:CellTemplate", "setup"),
    ("analysis.records", "repro.analysis.batch:CellTemplate", "ok_record"),
    ("analysis.records", "repro.analysis.batch:CellTemplate", "stalled_record"),
    ("cache.get_many", "repro.analysis.cache:ResultCache", "get_many"),
    ("cache.put_many", "repro.analysis.cache:ResultCache", "put_many"),
    ("executor.parallel_run", "repro.analysis.executor:ParallelExecutor", "run"),
    ("scenarios.report.aggregate", "repro.scenarios.report", "aggregate_scenario"),
    ("scenarios.report.lower_bound", "repro.scenarios.report", "degree_lower_bound"),
    ("scenarios.report.make_family", "repro.scenarios.report", "make_family"),
    ("scenarios.report.render", "repro.scenarios.report", "render_markdown"),
    ("scenarios.report.render", "repro.scenarios.report", "report_json_dict"),
    ("exploration.explore", "repro.exploration.fuzz", "explore"),
    ("exploration.mutate", "repro.exploration.fuzz", "mutate_cell"),
    ("exploration.shrink", "repro.exploration.fuzz", "shrink"),
    ("oracle.check_cell", "repro.exploration.explorer", "check_cell"),
    ("oracle.exact", "repro.exploration.oracle", "optimal_degree"),
)


def _resolve(path: str) -> Any:
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory span store: ``spans[i] = [name, start, end, parent]``.

    Times are ``perf_counter`` seconds; ``parent`` is the index of the
    enclosing span or -1. Single-threaded by design (the traced run is
    serial), so a plain stack gives the parent.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """*fn* inside a span; *after(result, args)* observes counts."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- analysis ----------------------------------------------------------

    def inclusive(self, lo: int = 0, hi: int | None = None) -> dict[str, tuple[int, float]]:
        """name -> (calls, inclusive seconds) over spans[lo:hi]; a span
        nested in a span of the same name counts once (no double time)."""
        out: dict[str, list[float]] = {}
        spans = self.spans
        for i in range(lo, len(spans) if hi is None else hi):
            name, start, end, parent = spans[i]
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            p = parent
            while p >= lo and spans[p][0] != name:
                p = spans[p][3]
            if p < lo:
                entry[1] += end - start
        return {k: (int(v[0]), v[1]) for k, v in out.items()}

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        """name -> self seconds: duration minus the time its direct child
        spans cover (spans nest strictly, so children never overlap)."""
        hi = len(self.spans) if hi is None else hi
        child_time = [0.0] * (hi - lo)
        for i in range(lo, hi):
            _, start, end, parent = self.spans[i]
            if parent >= lo:
                child_time[parent - lo] += end - start
        out: dict[str, float] = {}
        for i in range(lo, hi):
            name, start, end, _ = self.spans[i]
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i - lo]
        return out

    def attributed_fracs(self, root: str, lo: int = 0, hi: int | None = None) -> list[float]:
        """For every *root* span: the share of its duration covered by
        its direct child spans (layer spans vs. unattributed glue)."""
        hi = len(self.spans) if hi is None else hi
        covered: dict[int, float] = {}
        for i in range(lo, hi):
            _, start, end, parent = self.spans[i]
            if parent >= lo and self.spans[parent][0] == root:
                covered[parent] = covered.get(parent, 0.0) + end - start
        fracs = []
        for i in range(lo, hi):
            name, start, end, _ = self.spans[i]
            if name == root and end > start:
                fracs.append(covered.get(i, 0.0) / (end - start))
        return fracs

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Dump every span (times relative to the first span) once."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - t0, 9), round(end - t0, 9), parent]
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"meta": meta, "fields": ["name", "start_s", "end_s", "parent"],
                        "spans": rows}, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )


def _cache_after(tracer: Tracer):
    def after_get(result, args):
        misses = sum(1 for r in result if r is None)
        tracer.count("cache.hits", len(result) - misses)
        tracer.count("cache.misses", misses)

    return after_get


def _record_after(tracer: Tracer):
    def after(record, args):
        # exact simulator work, counted where a simulated run becomes a
        # record (cache hits never pass through here)
        tracer.count("sim.events", record.events)
        tracer.count("sim.messages", record.messages)
        tracer.count("sim.bits", record.bits)
        tracer.count("sim.causal_time", record.causal_time)
        tracer.count("sim.rounds", record.rounds)

    return after


def _shrink_after(tracer: Tracer):
    def after(outcome, args):
        tracer.count("exploration.shrink.probes", outcome.probes)

    return after


def _algorithm_factory(tracer: Tracer, get_algorithm: Callable) -> Callable:
    """``get_algorithm`` replacement handing out registry entries whose
    ``run`` / ``build`` halves are traced (the registry is untouched)."""
    memo: dict[str, Any] = {}

    def traced_get_algorithm(name):
        algo = get_algorithm(name)
        key = (name, id(algo))
        if key not in memo:
            memo[key] = dataclasses.replace(
                algo,
                run=tracer.wrap("algorithms.run", algo.run),
                build=(
                    tracer.wrap("algorithms.build", algo.build)
                    if algo.build is not None
                    else None
                ),
            )
        return memo[key]

    return traced_get_algorithm


@contextmanager
def patched(replacements: list[tuple[str, str, Callable[[Any], Any]]]) -> Iterator[None]:
    """Set ``owner.attr = make(original)`` for each entry; restore the
    exact original objects on exit (class attributes from the class
    ``__dict__``, so descriptors come back unchanged)."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner_path, attr, make in replacements:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def install(tracer: Tracer, layers: tuple[str, ...] | None = None) -> Iterator[Tracer]:
    """Wrap every layer in :data:`LAYERS` (or the named subset), plus the
    algorithm registry lookup of the batch runner; restore on exit."""
    after = {
        "cache.get_many": _cache_after(tracer),
        "analysis.records": _record_after(tracer),
        "exploration.shrink": _shrink_after(tracer),
    }
    replacements = [
        (owner_path, attr,
         lambda fn, name=name: tracer.wrap(name, fn, after.get(name)))
        for name, owner_path, attr in LAYERS
        if layers is None or name in layers
    ]
    if layers is None or "algorithms" in layers:
        replacements.append(
            ("repro.analysis.batch", "get_algorithm",
             lambda fn: _algorithm_factory(tracer, fn))
        )
    with patched(replacements):
        yield tracer
