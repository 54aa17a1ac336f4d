"""Span tracing of portlab's layers, done entirely from the benchmark's side.

``Tracer.install`` replaces each wrapped public function at every name under
which a ``portlab`` module holds it, so callers that looked the name up with
``from .x import f`` are traced too. A span records name, start, end and the
index of its parent span; spans stay in memory until the invocation ends.
Counts are derived from each call's arguments and return value right after
it returns; that bookkeeping time is taken out of the enclosing span's self
time, and no argument or result is kept alive past the call.
"""

from __future__ import annotations

import functools
import sys
import time

# wrapped function -> layer metric its self time is charged to
LAYER_OF = {
    "load_config": "config.load_s",
    "parse_price_csv": "market_data.parse_s",
    "parse_wide_csv": "market_data.parse_s",
    "align_panel": "market_data.align_s",
    "slice_period": "market_data.slice_s",
    "daily_returns": "returns_stats.returns_s",
    "sample_covariance": "returns_stats.cov_s",
    "correlation": "returns_stats.corr_s",
    "correlation_distance": "hrp.distance_s",
    "ward_linkage": "hrp.linkage_s",
    "quasi_diagonalize": "hrp.seriation_s",
    "recursive_bisection": "hrp.bisection_s",
    "fit_pca": "eigen.pca_s",
    "select_best_eigen": "eigen.select_s",
    "weights_from_csv": "portfolio.weights_from_csv_s",
    "evaluate": "backtest.evaluate_s",
    "summarize": "backtest.summarize_s",
}
ROOT = "main"
ROOT_METRIC = "cli.self_s"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _parsed(series: list, source) -> dict[str, int]:
    """Files, rows (distinct dates), bytes and missing cells of one parser call."""
    dates = set()
    for s in series:
        dates.update(day for day, _ in s.observations)
    consumed = len(source) if isinstance(source, (bytes, str)) else source.tell()
    return {
        "market_data.files": 1,
        "market_data.rows": len(dates),
        "market_data.bytes_read": consumed,
        "market_data.cells_missing": sum(len(dates) - len(s.observations) for s in series),
    }


def _candidates(args, kwargs, result) -> dict[str, int]:
    k_max = min(_arg(args, kwargs, 2, "k_max"), _arg(args, kwargs, 1, "model").n_components)
    return {"eigen.candidates": len(result[1]), "eigen.candidates_skipped": k_max - len(result[1])}


# wrapped function -> counts taken from (args, kwargs, result)
COUNTERS = {
    "parse_price_csv": lambda a, k, r: _parsed([r], _arg(a, k, 0, "source")),
    "parse_wide_csv": lambda a, k, r: _parsed(r, _arg(a, k, 0, "source")),
    "align_panel": lambda a, k, r: {"market_data.dates_aligned": len(r.dates)},
    "sample_covariance": lambda a, k, r: {"returns_stats.cov_calls": 1},
    "ward_linkage": lambda a, k, r: {"hrp.merges": len(r.rows)},
    "select_best_eigen": _candidates,
}
COUNT_NAMES = (
    "market_data.files",
    "market_data.rows",
    "market_data.bytes_read",
    "market_data.cells_missing",
    "market_data.dates_aligned",
    "returns_stats.cov_calls",
    "hrp.merges",
    "eigen.candidates",
    "eigen.candidates_skipped",
)


class Tracer:
    """Records the spans and counts of one traced invocation at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, bookkeeping_s_inside]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
                if parent >= 0:
                    spans[parent][4] += clock() - span[2]
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each ``portlab`` name bound to it."""
        import portlab.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [m for n, m in sys.modules.items() if n == "portlab" or n.startswith("portlab.")]
        originals = {}
        for name in LAYER_OF:
            for module in modules:
                fn = getattr(module, name, None)
                if callable(fn) and getattr(fn, "__module__", "").startswith("portlab"):
                    originals.setdefault(name, fn)
        for name, fn in originals.items():
            traced = self._wrap(name, fn)
            for module in modules:
                if getattr(module, name, None) is fn:
                    self._patched.append((module, name, fn))
                    setattr(module, name, traced)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def call_root(self, fn, *args):
        """Run the invocation itself as the root span."""
        return self._wrap(ROOT, fn)(*args)

    def take(self) -> dict:
        """Summarize and clear the spans and counts of the invocation just finished."""
        spans = self.spans
        inside = [span[4] for span in spans]
        for span in spans:
            if span[3] >= 0:
                inside[span[3]] += span[2] - span[1]
        layer = dict.fromkeys(LAYER_OF.values(), 0.0)
        layer[ROOT_METRIC] = 0.0
        calls = dict.fromkeys(LAYER_OF, 0)
        root_s = 0.0
        for (name, start, end, _, _), inside_s in zip(spans, inside):
            self_s = (end - start) - inside_s
            if name == ROOT:
                root_s += end - start
                layer[ROOT_METRIC] += self_s
            else:
                layer[LAYER_OF[name]] += self_s
                calls[name] += 1
        summary = {
            "root_s": root_s,
            "layer": layer,
            "calls": calls,
            "counts": dict(self.counts),
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent, _ in spans
            ],
        }
        spans.clear()
        self.counts.update(dict.fromkeys(COUNT_NAMES, 0))
        return summary
