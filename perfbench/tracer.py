"""Per-layer spans and counts for an in-process ranklaw run.

While installed, the tracer replaces every public function of the layer
modules with a wrapper and restores the originals on exit.  Each call of a
wrapped function is one span with its parent, the innermost wrapped call
open when it started; a span's self time is its duration minus its
children's, so a layer's time excludes the layers it calls.  Counters read
the objects the wrapped functions return.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("ingest", "stats", "rank", "corr", "fit", "regime", "urnsim", "cli")

# function name -> self-time metric; "*" takes the layer's other public functions
SELF_TIME = {
    "ingest": {"*": "parse_ms", "apply_merge_ledger": "merge_ms",
               "average_over_years": "average_ms", "aggregate_by_region": "aggregate_ms",
               "serialize_panel": "serialize_ms"},
    "stats": {"*": "describe_ms"},
    "rank": {"rank_desc": "rank_desc_ms", "*": "pair_ms"},
    "corr": {"*": "kendall_ms", "correlation_report": "report_ms",
             "spearman_rho": "report_ms", "pearson_pi": "report_ms",
             "pairwise_matrix": "pairwise_ms",
             "format_pq_matrix": "format_ms", "format_tau_z_matrix": "format_ms"},
    "fit": {"*": "fit_ms", "fit_table": "table_ms", "format_fit_report": "table_ms",
            "detect_outliers": "table_ms"},
    "regime": {"*": "split_ms"},
    "urnsim": {"*": "simulate_ms", "replicate_occupancies": "replicates_ms",
               "export_outcome": "export_ms", "export_replicate_summary": "export_ms"},
    "cli": {"*": "self_ms"},
}


def _urn_counts(args, outcome):
    config = args[0]
    cap = config.capacity
    return {"urnsim.balls": outcome.total - config.n_urns * config.k0,
            "urnsim.retired": sum(k >= cap for k in outcome.occupancy) if cap else 0}


COUNTERS = {
    ("ingest", "parse_panel"): lambda args, panel: {
        "ingest.rows": sum(len(rec.values) for rec in panel.records)},
    ("rank", "rank_desc"): lambda args, series: {"rank.tie_groups": len(series.tie_groups)},
    ("corr", "kendall_counts_xy"): lambda args, counts: {"corr.pairs": counts.total},
    ("fit", "fit_model"): lambda args, result: {
        "fit.iterations": result.iterations, "fit.converged": int(result.converged)},
    ("regime", "two_line_split"): lambda args, split: {"regime.iterations": split.iterations},
    ("urnsim", "simulate_urns"): _urn_counts,
}
# a fit_model call that raises counts here
FAILURE_COUNTERS = {("fit", "fit_model"): "fit.failed"}

SELF_METRICS = tuple(f"{layer}.{m}" for layer, table in SELF_TIME.items()
                     for m in dict.fromkeys(table.values()))
COUNT_METRICS = ("ingest.rows", "rank.tie_groups", "corr.pairs", "fit.iterations",
                 "fit.converged", "fit.failed", "regime.iterations",
                 "urnsim.balls", "urnsim.retired")


@dataclass
class Span:
    name: str       # layer.function
    layer: str
    metric: str
    start_ns: int
    end_ns: int
    parent: int | None   # index of the enclosing span, None at the root


class Tracer:
    """Holds the spans and counts of one traced run in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        table = SELF_TIME[layer]
        metric = table.get(name, table["*"])
        counter = COUNTERS.get((layer, name))
        failure = FAILURE_COUNTERS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(f"{layer}.{name}", layer, metric,
                                   time.perf_counter_ns(), 0, parent))
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if failure:
                    self.counts[failure] += 1
                raise
            finally:
                self.spans[self._open.pop()].end_ns = time.perf_counter_ns()
            if counter:
                self.counts.update(counter(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every ranklaw module attribute bound to a layer function."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ranklaw.{layer}")
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(layer, name, fn)
        patched = []
        for module in [m for n, m in sys.modules.items() if n.startswith("ranklaw.")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def self_ms(self) -> dict[str, float]:
        """Summed self time per metric, in ms; every metric is present."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        out = dict.fromkeys(SELF_METRICS, 0.0)
        for span, child in zip(self.spans, child_ns):
            out[f"{span.layer}.{span.metric}"] += (span.end_ns - span.start_ns - child) / 1e6
        return out

    def count_values(self) -> dict[str, int]:
        return {name: int(self.counts[name]) for name in COUNT_METRICS}

    def span_records(self) -> list[dict]:
        return [{"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "parent": s.parent} for s in self.spans]
