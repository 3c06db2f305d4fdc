"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of each ``gmreduce`` layer where the
calling module looks them up (``gmreduce.reduction.kld_gauss`` and
``gmreduce.costs.kld_gauss`` are separate call sites of one function),
so the library itself carries no instrumentation.  Each wrapped call
records a span ``(name, start, end, parent, op)``; spans stay in memory
and are aggregated, and optionally written out, when the run ends.  A
layer's self time is its span minus the spans of its direct children.

Wrappers are installed only around a traced op and removed right after
it, so untraced ops run the unmodified library.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

from gmreduce.gauss import GaussianComponent


def _counter_arg(args, kwargs, pos):
    return kwargs.get("counter", args[pos] if len(args) > pos else None)


def _eval_probe(pos):
    """Diff the ``EvalCounter`` a cost-table call receives, per kind."""

    def probe(tracer, args, kwargs):
        counter = _counter_arg(args, kwargs, pos)
        if counter is None:
            return None
        before = (counter.kld, counter.overlap, counter.switched)

        def finish(_result):
            evals = tracer.evals[tracer.op]
            evals["kld"] += counter.kld - before[0]
            evals["overlap"] += counter.overlap - before[1]
            evals["switched"] += counter.switched - before[2]

        return finish

    return probe


def _reduce_probe(tracer, _args, _kwargs):
    def finish(result):
        tracer.eval_totals[tracer.op] += result[1].eval_count

    return finish


def _em_probe(tracer, _args, _kwargs):
    def finish(fit):
        tracer.em_iterations[tracer.op] += len(fit.log_likelihoods)

    return finish


# (owner, attribute, span name, probe).  The owner is the module whose
# global the caller resolves at call time, or the class for methods.
TARGETS = (
    ("gmreduce.reduction", "reduce", "reduction.reduce", _reduce_probe),
    ("gmreduce.cluster", "reduce", "reduction.reduce", _reduce_probe),
    ("gmreduce.reduction", "build_cost_table", "reduction.build_cost_table", _eval_probe(2)),
    ("gmreduce.reduction", "update_cost_table", "reduction.update_cost_table", _eval_probe(3)),
    ("gmreduce.reduction", "arkl_prune_cost", "costs.arkl_prune_cost", None),
    ("gmreduce.reduction", "kld_gauss", "gauss.kld_gauss", None),
    ("gmreduce.costs", "kld_gauss", "gauss.kld_gauss", None),
    ("gmreduce.reduction", "switched_divergence", "costs.switched_divergence", None),
    ("gmreduce.costs", "switched_divergence", "costs.switched_divergence", None),
    ("gmreduce.reduction", "gaussian_overlap", "costs.gaussian_overlap", None),
    ("gmreduce.costs", "gaussian_overlap", "costs.gaussian_overlap", None),
    ("gmreduce.costs", "product_decompose", "gauss.product_decompose", None),
    ("gmreduce.costs", "expected_log", "gauss.expected_log", None),
    ("gmreduce.reduction", "moment_match_merge", "gauss.moment_match_merge", None),
    ("gmreduce.mixture", "moment_match_merge", "gauss.moment_match_merge", None),
    ("gmreduce.costs", "moment_match_merge", "gauss.moment_match_merge", None),
    ("gmreduce.mixture", "apply", "mixture.apply", None),
    (GaussianComponent, "__post_init__", "gauss.GaussianComponent", None),
    ("gmreduce.cluster", "_component_log_pdf", "gauss.log_pdf", None),
    ("gmreduce.mixture", "_component_log_pdf", "gauss.log_pdf", None),
    ("gmreduce.cli", "em_fit", "cluster.em", None),
    ("gmreduce.cluster", "em_fit_details", "cluster.em_fit_details", _em_probe),
    ("gmreduce.cli", "reduce_and_reassign", "cluster.reduce_and_reassign", None),
    ("gmreduce.cli", "_cmd_cluster", "cli.cluster", None),
)

ROOT = "bench.op"


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.evals = defaultdict(lambda: {"kld": 0, "overlap": 0, "switched": 0})
        self.eval_totals = defaultdict(int)
        self.em_iterations = defaultdict(int)
        self._stack: list[int] = []
        self._owners = [
            (importlib.import_module(o) if isinstance(o, str) else o, attr, name, probe)
            for o, attr, name, probe in TARGETS
        ]

    def _wrap(self, fn, name, probe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            finish = probe(self, args, kwargs) if probe is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent, self.op)
                stack.pop()
            if finish is not None:
                finish(result)
            return result

        return traced

    @contextmanager
    def traced_op(self, op_id):
        """Install the wrappers and record ``op_id``'s spans under one root span."""
        originals = []
        for owner, attr, name, probe in self._owners:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, probe))
        self.op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (ROOT, t0, time.perf_counter(), -1, op_id)
            self._stack.pop()
            self.op = None
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def aggregate(self, ops=None):
        """Per span name: [calls, inclusive seconds, self seconds], over ``ops`` (all if None)."""
        child = defaultdict(float)
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, t0, t1, _parent, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            row = agg[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[idx]
        return agg

    def write_spans(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start_s", "end_s", "parent", "op"))
            for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
                writer.writerow((idx, name, f"{t0:.9f}", f"{t1:.9f}", parent, op))
