"""Spans and probes that time the program's layers from outside.

Nothing here edits the program: layers are timed by swapping a module
attribute for a wrapper that records a span and calls the original, and
the swap is undone when the ``with`` block ends. Spans stay in memory and
are written out with the run's result.
"""
from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from pyspark import SparkContext

from repro.core import engine as eng
from repro.core import rng
from repro.core import spark_runner
from repro.sampling import preprocess


class Tracer:
    """In-memory spans: name, start, end, parent span index and cell id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.cell: str | None = None

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "cell": self.cell,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, note=None):
        """``fn`` inside a span; ``note(span, result, args)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if note is not None:
                    note(rec, out, args)
            return out

        return traced

    def cell_spans(self, cell: str) -> list[dict]:
        return [s for s in self.spans if s["cell"] == cell]


@contextmanager
def patched(targets):
    """Set ``(owner, attribute, value)`` triples for the ``with`` block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    for owner, attr, value in targets:
        setattr(owner, attr, value)
    try:
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def _note_broadcast(rec, bc, args) -> None:
    rec["bytes"] = os.path.getsize(bc._path)


def _note_build(rec, tables, args) -> None:
    rec["edges"] = args[0].num_edges


def _note_collect(rec, result, args) -> None:
    walks, meta = result
    rec["meta"] = dict(meta)
    rec["rows"] = len(walks)


@contextmanager
def traced_cell(tracer: Tracer, cell: str):
    """Spans for one cell around the runner's public calls on the driver."""
    tracer.cell = cell
    targets = [
        (spark_runner, "run_walks_spark",
         tracer.wrap("runner.submit", spark_runner.run_walks_spark)),
        (spark_runner, "queries_df", tracer.wrap("runner.queries_df", spark_runner.queries_df)),
        (spark_runner, "collect_walks",
         tracer.wrap("runner.collect", spark_runner.collect_walks, _note_collect)),
        (SparkContext, "broadcast",
         tracer.wrap("runner.broadcast", SparkContext.broadcast, _note_broadcast)),
        (preprocess, "build_tables",
         tracer.wrap("preprocess.build", preprocess.build_tables, _note_build)),
    ]
    try:
        with patched(targets), tracer.span("cell"):
            yield
    finally:
        tracer.cell = None


class CallProbe:
    """Time and count the outermost calls of the functions it wraps.

    A call made while another wrapped call is running passes straight
    through, so ``randint`` calling ``uniform`` counts once, not twice.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.items = 0
        self._depth = 0

    def wrap(self, fn, count):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            self.seconds += time.perf_counter() - t0
            self.calls += 1
            self.items += count(args, out)
            return out

        return probed


def replay_partition(csr, spec, app, sources, qids, seed) -> dict:
    """Run one partition's queries in-process, as an executor would, and
    return the engine, RNG and UDF metrics as ``name: (value, unit)``.

    A first, untimed replay builds the sampler tables (the executors get
    them prebuilt in the broadcast) and warms the caches. The second runs
    with the engine's phase timers only, so its wall time is the engine's;
    the third wraps the RNG and the Weight UDF. ``rng.share`` is of the
    third run's wall time, which includes the probes' own cost.
    """
    run = lambda a, **kw: eng.run_walks(  # noqa: E731
        csr, a, sources, engine=spec.engine, seed=seed, qids=qids, **kw, **spec.engine_kwargs)
    run(app)
    timers: dict = {}
    t0 = time.perf_counter()
    out = run(app, timers=timers)
    local = time.perf_counter() - t0
    draws = CallProbe()
    udf = CallProbe()
    probed_app = app
    if app.weight_fn is not None:
        probed_app = replace(app, weight_fn=udf.wrap(app.weight_fn, lambda a, out: len(a[1])))
    count_draws = lambda a, out: int(np.size(out))  # noqa: E731
    rng_targets = [
        (rng, "uniform", draws.wrap(rng.uniform, count_draws)),
        (rng, "randint", draws.wrap(rng.randint, count_draws)),
        (rng, "uniform_scalar", draws.wrap(rng.uniform_scalar, count_draws)),
        (rng, "randint_scalar", draws.wrap(rng.randint_scalar, count_draws)),
    ]
    t0 = time.perf_counter()
    with patched(rng_targets):
        run(probed_app)
    probed_local = time.perf_counter() - t0
    steps = max(out.total_steps, 1)
    phases = {k: timers.get(k, 0.0) for k in ("gen", "weight", "init")}
    return {
        "engine.local_s": (local, "s"),
        "engine.gen_s": (phases["gen"], "s"),
        "engine.weight_s": (phases["weight"], "s"),
        "engine.init_s": (phases["init"], "s"),
        "engine.unattributed_s": (local - sum(phases.values()), "s"),
        "engine.ring_iterations": (out.meta.get("ring_iterations", 0), "count"),
        "engine.steps": (out.total_steps, "count"),
        "rng.s": (draws.seconds, "s"),
        "rng.calls": (draws.calls, "count"),
        "rng.draws_per_step": (draws.items / steps, "ratio"),
        "rng.share": (draws.seconds / probed_local, "ratio"),
        "udf.s": (udf.seconds, "s"),
        "udf.candidates_per_step": (udf.items / steps, "ratio"),
    }
