"""In-memory span tracer that wraps remfl's public functions from outside.

remfl's modules call each other through module attributes (``nn.adam_step``,
``comp.top_k``, ``met.bundle``) and call their own functions through module
globals (``local_train``, ``evaluate``).  Replacing those attributes with
timing wrappers therefore records every call at a layer boundary without
changing a line of the program.  ``uninstall`` puts the originals back, so the
untraced repetitions of a run execute the unmodified code.

Each span records its name, start, end, parent span and the group (one setup
or one training repetition) it belongs to.  Spans stay in memory and are
written once, when the run ends.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict


def _count_rows(counts, args, result):
    counts["nn.rows_forwarded"] += args[1].shape[0]


def _count_params(counts, args, result):
    counts["nn.params_updated"] += args[1].size


def _count_payload(counts, args, result):
    counts["compression.payloads"] += 1
    counts["compression.nnz"] += args[0].nnz
    counts["compression.uplink_bytes"] += len(result)


def _count_partition_bytes(counts, args, result):
    for dirpath, _, files in os.walk(args[1]):
        counts["data.partition_bytes"] += sum(
            os.path.getsize(os.path.join(dirpath, f)) for f in files)


# Counts recorded at the same boundaries as the spans: span name -> hook.
COUNT_HOOKS = {
    "nn.backbone_forward": _count_rows,
    "nn.adam_step": _count_params,
    "compression.encode": _count_payload,
    "data.export_partition": _count_partition_bytes,
}


# Traced for its children only: its self time is the round loop's own code.
ROOT_SPAN = "federation.run_training"


def _noop():
    return None


def wrapper_cost_s(calls=20_000, trials=7):
    """Seconds one tracing wrapper adds to a call: the median, over
    ``trials``, of a wrapped no-op's time minus the bare no-op's, per call."""
    probe = Tracer([])
    wrapped = probe._wrap("noop", _noop)
    costs = []
    for _ in range(trials):
        probe.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            _noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def layer_targets(remfl_modules):
    """(span name, module, attribute) for every traced function.

    ``remfl_modules`` maps layer name to the imported module.  The cli
    function that trains and writes the run directory is traced as
    ``cli.export``: its self time is the time spent writing the directory.
    """
    names = {
        "data": ["generate_synthetic_map", "heterogeneity", "grid_partition",
                 "export_partition", "load_partition"],
        "nn": ["backbone_forward", "head_forward", "backward", "adam_step",
               "huber_loss", "huber_grad", "flatten_backbone",
               "unflatten_backbone", "flatten_head", "unflatten_head"],
        "compression": ["accumulate", "top_k", "residual_update", "quantize",
                        "encode", "decode", "dequantize"],
        "federation": ["run_training", "local_train", "evaluate", "aggregate",
                       "ema_update", "sample_clients"],
        "metrics": ["bundle"],
    }
    targets = [(f"{layer}.{fn}", remfl_modules[layer], fn)
               for layer, fns in names.items() for fn in fns]
    targets.append(("cli.export", remfl_modules["cli"], "_run_and_export"))
    return targets


class Tracer:
    """Spans and counts for one benchmark run, grouped by repetition."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []  # (group, span id, parent id, name, start, end)
        self.counts = defaultdict(Counter)  # group -> count name -> value
        self.group = ""
        self._stack = []
        self._saved = []

    def install(self):
        for span_name, module, attr in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, span_name, fn):
        hook = COUNT_HOOKS.get(span_name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (self.group, span_id, parent, span_name,
                                  start, end)
            if hook is not None:
                hook(self.counts[self.group], args, result)
            return result

        return traced

    def layer_times(self, group):
        """Per span name: calls, self ms and total ms within one group.

        Self time is a span's duration minus the durations of its direct
        children; the program is single-threaded, so children never overlap.
        """
        spans = [s for s in self.spans if s[0] == group]
        child_ms = Counter()
        for _, _, parent, _, start, end in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out = defaultdict(lambda: {"calls": 0, "self_ms": 0.0,
                                   "total_ms": 0.0})
        for _, span_id, _, name, start, end in spans:
            total = (end - start) * 1e3
            row = out[name]
            row["calls"] += 1
            row["total_ms"] += total
            row["self_ms"] += total - child_ms[span_id]
        return out

    def write(self, path):
        """All spans as CSV, times in seconds from the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            f.write("group,span_id,parent_id,name,start_s,end_s\n")
            for group, span_id, parent, name, start, end in self.spans:
                f.write(f"{group},{span_id},{parent},{name},"
                        f"{start - t0:.9f},{end - t0:.9f}\n")
