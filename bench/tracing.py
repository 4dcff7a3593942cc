"""Per-layer tracing of alamp from outside its sources.

Every traced function is reached by its callers through a module or class
attribute: `engine` calls `classifier.train` and `acquisition.*`, inside
`classifier` `select_reg_param` calls the module globals `train` and
`predict`, and `cli` calls `ds.load_dataset`, `engine.run_experiment` and
`metrics.write_report`. Replacing those attributes while a `Tracer` is
installed therefore sees every call without editing `src/`, and restoring
them leaves the program as it was. The wrappers only observe: they return
what the wrapped function returned, so traced runs write the same report
bytes as untraced ones (checked by the benchmark on every traced run).

Spans (name, start, end, parent, unit) are kept in memory and written out
when the run ends; self time is a span minus the time its child spans cover.
tracemalloc slows allocation-heavy calls several-fold, so peaks are
measured only in blocks installed with `peaks=True`, whose spans the
benchmark keeps out of its timing figures.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import statistics
import time
import tracemalloc

import numpy as np

from alamp import acquisition, classifier, cli, dataset, engine, metrics

# (owner, attribute, options). `peak` marks calls whose peak extra memory
# is measured with tracemalloc when peaks are on; `span=False` only counts
# calls, for the ~10^5 gradient steps a pass makes, whose spans would cost
# more than the steps themselves.
TARGETS = (
    (classifier, "gradients", {"span": False}),
    (classifier, "train", {}),
    (classifier, "select_reg_param", {}),
    (classifier, "predict_proba", {"peak": True}),
    (classifier, "accuracy", {}),
    (acquisition, "coreset_select", {"peak": True}),
    (acquisition, "margin_scores", {}),
    (acquisition, "alamp_scores", {}),
    (acquisition, "diversify", {}),
    (acquisition, "pseudo_classes", {}),
    (acquisition, "random_select", {}),
    (dataset.Dataset, "rows_for", {}),
    (dataset.Dataset, "subset", {}),
    (dataset, "load_dataset", {"peak": True}),
    (dataset, "train_test_split", {}),
    (dataset, "induce_imbalance", {}),
    (engine, "init_pool", {}),
    (engine, "step", {}),
    (engine, "run_experiment", {}),
    (metrics, "write_report", {}),
    (metrics, "aggregate", {}),
    (cli, "main", {}),
)


def _owner_name(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}"
    return owner.__name__.rsplit(".", 1)[-1]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Wraps the TARGETS while installed and records spans and counters."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, unit]
        self.counts = collections.Counter()  # (unit, name) -> count
        self.peaks = {}   # name -> largest extra MiB seen in one call
        self.unit = "prelude"
        self.measure_peaks = False
        self._stack = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def installed(self, unit: str, peaks: bool = False):
        """Trace every call made inside the block, as work of `unit`."""
        self.unit, self.measure_peaks = unit, peaks
        originals = []
        old_err = np.geterr()
        old_call = np.seterrcall(self._fp_error)
        np.seterr(over="call", divide="call", invalid="call")
        try:
            for owner, attr, opts in TARGETS:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, f"{_owner_name(owner)}.{attr}", **opts))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
            np.seterr(**old_err)
            np.seterrcall(old_call)

    def _fp_error(self, kind, flag):
        self.counts[self.unit, "classifier.fp_warnings"] += 1

    def _wrap(self, fn, name, span=True, peak=False):
        tracer = self

        if not span:
            def counted(*args, **kwargs):
                tracer.counts[tracer.unit, f"{name}.calls"] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            label = name
            if name == "engine.run_experiment":
                label = f"{name}.{_arg(args, kwargs, 2, 'af')}"
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            record = [label, time.perf_counter() - tracer._t0, None, parent, tracer.unit]
            tracer.spans.append(record)
            tracer._stack.append(index)
            started = peak and tracer.measure_peaks and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                if started:
                    extra = tracemalloc.get_traced_memory()[1] / 2**20
                    key = f"{name}.peak_mb"
                    tracer.peaks[key] = max(tracer.peaks.get(key, 0.0), extra)
            finally:
                if started:
                    tracemalloc.stop()
                record[2] = time.perf_counter() - tracer._t0
                tracer._stack.pop()
            tracer._observe(name, args, kwargs, result)
            return result
        return traced

    def _observe(self, name, args, kwargs, result):
        """Counters measured where the work happens."""
        counts, unit = self.counts, self.unit
        if name == "classifier.train":
            if not (np.all(np.isfinite(result.weights)) and np.all(np.isfinite(result.biases))):
                counts[unit, "classifier.train.nonfinite"] += 1
        elif name == "classifier.predict_proba":
            counts[unit, "classifier.predict_proba.rows"] += len(result.probs)
        elif name == "dataset.load_dataset":
            counts[unit, "dataset.load_dataset.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name == "metrics.write_report":
            counts[unit, "metrics.write_report.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}) + "\n")


def span_table(spans, units) -> dict:
    """Per span name over the spans of `units`: calls, busy and self seconds."""
    child_time = collections.Counter()
    for name, start, end, parent, unit in spans:
        if parent >= 0 and unit in units:
            child_time[parent] += end - start
    table = collections.defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, _, unit) in enumerate(spans):
        if unit in units:
            row = table[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[index]
    return table


def layer_metrics(tracer: Tracer, units) -> dict:
    """Flat `<module>.<function>.<stat>` figures for the work of `units`,
    plus the peaks of every block traced with peaks on."""
    out = collections.Counter()
    for name, row in span_table(tracer.spans, units).items():
        for stat, value in row.items():
            out[f"{name}.{stat}"] = value
    for (unit, name), count in tracer.counts.items():
        if unit in units:
            out[name] += count
    out.update(tracer.peaks)
    trains = out["classifier.train.calls"]
    out["classifier.train.finite_ratio"] = (
        1.0 - out["classifier.train.nonfinite"] / trains if trains else 1.0)
    return dict(out)


def median_metrics(tables, names) -> dict:
    """Median of each named figure over per-pass tables (absent reads 0)."""
    return {name: float(statistics.median(t.get(name, 0.0) for t in tables))
            for name in names}
