"""Spans and counters around milab's layer entry points, installed from outside.

``instrument(tracer)`` swaps the public entry point of each measured layer (a
module attribute or a class method) for a wrapper that records a span, a
timer or a counter, and puts every original back on exit. No file of the
package changes, and code run outside the ``with`` block is the unmodified
package.

Three kinds of record keep the trace cheap where calls are hot:

* a *span* (name, start, end, parent) at layer boundaries called at most tens
  of thousands of times per game; spans nest, so self time is measurable;
* a *timer* (calls, seconds, rows) on model inference, which is the inner
  call of the neighbourhood, attack and poison-probe layers. It is not a
  span, so its time stays inside those callers' self time;
* a *counter* on ``neighborhood.logit``, the hottest scalar call (131,584
  calls per desk game, about two million at paper scale).

Training inside worker processes is invisible here: forked workers inherit
the wrappers but record into their own copy of the tracer.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from milab import attack, metrics, neighborhood, nncore
from milab.harness import cache, runner

ROOT_SPAN = "harness.runner.game"


class Tracer:
    """In-memory spans plus named counters for one traced game."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(int)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only, so recursion is not counted twice) and self seconds; per layer:
    self seconds."""
    own = self_times(spans)
    by_name: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    by_layer: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_s"] += own[i]
        by_layer[layer_of(name)] += own[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["s"] += end - start
    return {"names": dict(by_name), "layers": dict(by_layer)}


def _spanned(tracer: Tracer, name: str, fn, count=None):
    """Wrap ``fn`` in a span; ``count(args, result)`` then adds to counters."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if count is not None:
            count(tracer.counts, args, result)
        return result
    return wrapper


def _timed(tracer: Tracer, name: str, fn, rows):
    """Wrap ``fn`` in a timer that adds calls, seconds and rows(args)."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[name + "_s"] += time.perf_counter() - start
            counts[name + "_calls"] += 1
            counts[name + "_rows"] += rows(args)
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _stem_bytes(stem: str) -> int:
    return os.path.getsize(stem + ".json") + os.path.getsize(stem + ".bin")


def _count_train(c, args, _):
    dataset, config = args[0], args[1]
    c["nncore.train_examples"] += len(dataset.labels) * config.epochs


def _count_plan(c, _, plan):
    c["poisoner.iterations"] += plan.iterations_run + 1
    c["poisoner.shadow_models"] += plan.models_trained


def _count_select(c, args, chosen):
    c["neighborhood.candidates"] += len(args[1])
    c["neighborhood.admitted"] += sum(d.admitted for d in chosen.diagnostics)
    c["neighborhood.fallbacks"] += chosen.fallback_filled


def _count_query(c, args, _):
    c["attack.label_queries"] += len(args[1])


def _count_report(c, args, _):
    c["metrics.scores"] += len(args[0]) + len(args[1])


def _count_load(c, args, _):
    c["harness.cache.bytes_read"] += _stem_bytes(args[0])


def _count_save(c, args, _):
    c["harness.cache.bytes_written"] += _stem_bytes(args[1])


def _counting_pool(tracer: Tracer, pool_cls):
    class CountingPool(pool_cls):
        def __init__(self, *args, **kwargs):
            tracer.counts["harness.runner.pool_spawns"] += 1
            super().__init__(*args, **kwargs)
    return CountingPool


def _targets(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every measured entry point.

    The runner imports most stage functions by name, so those are swapped in
    the runner's namespace; the rest are looked up through their module or
    class at call time."""
    def span(name, count=None):
        return lambda fn: _spanned(tracer, name, fn, count)

    def rows_of(args):
        return len(args[1]) if len(args) > 1 else 1

    return [
        (runner.TrainerPool, "many", span("harness.runner.many")),
        (runner, "ProcessPoolExecutor", lambda cls: _counting_pool(tracer, cls)),
        (nncore, "train", span("nncore.train", _count_train)),
        (nncore.ModelParams, "predict_proba_batch",
         lambda fn: _timed(tracer, "nncore.forward", fn, rows_of)),
        (nncore.ModelParams, "predict_proba",
         lambda fn: _timed(tracer, "nncore.forward", fn, lambda args: 1)),
        (neighborhood, "logit", lambda fn: _counted(tracer, "nncore.logit_calls", fn)),
        (runner, "adapt_poison_multi", span("poisoner.adapt", _count_plan)),
        (runner, "select_neighborhood", span("neighborhood.select", _count_select)),
        (runner, "gen_neighbors", span("datagen.gen_neighbors")),
        (runner, "chameleon_score", span("attack.score")),
        (runner, "gap_score", span("attack.score")),
        (attack.LabelOnlyModel, "predict_label_batch",
         span("attack.query", _count_query)),
        (metrics, "compute_report", span("metrics.report", _count_report)),
        (metrics, "roc_curve", span("metrics.report")),
        (cache.ModelCache, "model_key", span("harness.cache.key")),
        (nncore, "load_model", span("harness.cache.load", _count_load)),
        (nncore, "save_model", span("harness.cache.save", _count_save)),
    ]


def wrapped_attributes() -> list[tuple[object, str]]:
    """Every (owner, attribute) that ``instrument`` replaces."""
    return [(owner, attr) for owner, attr, _ in _targets(Tracer())]


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, wrap in _targets(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
