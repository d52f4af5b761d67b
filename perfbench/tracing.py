"""Spans around each layer's public functions, recorded from outside ``src/``.

:class:`Tracer` replaces every module binding of the functions listed in
:data:`WRAPPED` with a wrapper that records a span (trace id, span id,
parent span id, name, start and end in ns) and keeps the call's
arguments and result for the counters, which are computed after the
pass so that no counting happens inside a timed span. A name that has
gone missing raises :class:`LayerMissing` at install time, and
:func:`require_called` raises it for a required name that was
never called, so a refactor cannot silently report zero for a layer.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# (module under ``auditscore``, public function, span name). Report reads
# go through the CLI's ``_read_text``; it is the only non-public name.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_manifest", "cli.load_manifest"),
    ("cli", "_read_text", "parsers.read"),
    ("config", "load_config", "config.load_config"),
    ("parsers", "parse_xccdf", "parsers.xccdf"),
    ("parsers", "parse_nmap", "parsers.nmap"),
    ("parsers", "parse_lynis", "parsers.text"),
    ("parsers", "parse_aide", "parsers.text"),
    ("parsers", "parse_tripwire", "parsers.text"),
    ("scoring", "normalize_report", "scoring.normalize"),
    ("scoring", "aggregate", "scoring.aggregate"),
    ("store", "record_to_json", "store.encode"),
    ("store", "append_record", "store.append"),
    ("store", "load_history", "store.load_history"),
    ("analysis", "decompose_delta", "analysis.decompose"),
    ("analysis", "trend_series", "analysis.trend"),
    ("analysis", "rank_contributions", "analysis.rank"),
    ("render", "format_assessment_text", "render.assessment"),
    ("render", "format_compare_text", "render.compare"),
    ("render", "compare_to_dict", "render.compare"),
    ("render", "render_report_markdown", "render.report"),
    ("render", "render_report_json", "render.report"),
    ("render", "render_report_text", "render.report"),
)

# Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "cli.main": "cli.main_ms",
    "cli.load_manifest": "cli.load_manifest_ms",
    "config.load_config": "config.load_config_ms",
    "parsers.read": "parsers.read_ms",
    "parsers.xccdf": "parsers.xccdf_ms",
    "parsers.nmap": "parsers.nmap_ms",
    "parsers.text": "parsers.text_ms",
    "scoring.normalize": "scoring.normalize_ms",
    "scoring.aggregate": "scoring.aggregate_ms",
    "store.encode": "store.encode_ms",
    "store.append": "store.append_ms",
    "store.load_history": "store.load_history_ms",
    "analysis.decompose": "analysis.decompose_ms",
    "analysis.trend": "analysis.trend_ms",
    "analysis.rank": "analysis.rank_ms",
    "render.assessment": "render.assessment_ms",
    "render.compare": "render.compare_ms",
    "render.report": "render.report_ms",
}

PARSER_SPANS = ("parsers.xccdf", "parsers.nmap", "parsers.text")


class LayerMissing(RuntimeError):
    """A wrapped public name is gone, or a required one was never called."""


class Tracer:
    def __init__(self) -> None:
        # [trace_id, span_id, parent_id, name, start_ns, end_ns]
        self.spans: list[list] = []
        # (key, span name, args, kwargs, result) per call, in call order.
        self.calls: list[tuple] = []
        self.trace_id = 0
        # When set, parser calls run under tracemalloc; their peaks (bytes
        # above the allocations live at entry) land in ``parser_peaks``.
        self.measure_memory = False
        self.parser_peaks: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        """Wrap every binding of every WRAPPED function in ``auditscore.*``."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "auditscore"]
        for module_name, attr, span in WRAPPED:
            module = sys.modules.get(f"auditscore.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.uninstall()
                raise LayerMissing(
                    f"auditscore.{module_name}.{attr} is gone; update perfbench/tracing.py"
                )
            wrapper = self._wrap(f"{module_name}.{attr}", span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, key, span_name, function):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter_ns
        is_parser = span_name in PARSER_SPANS

        def wrapper(*args, **kwargs):
            record = [self.trace_id, len(spans), stack[-1] if stack else None, span_name, 0, 0]
            spans.append(record)
            stack.append(record[1])
            memory = self.measure_memory and is_parser
            if memory:
                tracemalloc.start()
            record[4] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.parser_peaks.append(peak)
            calls.append((key, span_name, args, kwargs, result))
            return result

        return wrapper


def require_called(keys, calls) -> None:
    """Raise :class:`LayerMissing` unless every ``module.function`` key was called."""
    called = {call[0] for call in calls}
    missing = [key for key in keys if key not in called]
    if missing:
        raise LayerMissing(
            "never called during a traced pass: "
            + ", ".join(f"auditscore.{key}" for key in missing)
            + "; update perfbench/tracing.py or perfbench/workloads.py"
        )


def self_times_ms(spans: list[list]) -> dict[str, float]:
    """Per span name: span time minus the time its child spans cover.

    Calls run on one thread and nest, so children never overlap and the
    covered time is the sum of the children's durations.
    """
    child_ns: Counter[int] = Counter()
    by_id = {span[1]: span for span in spans}
    for span in spans:
        if span[2] is not None and span[2] in by_id:
            child_ns[span[2]] += span[5] - span[4]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[3]] += (span[5] - span[4] - child_ns[span[1]]) / 1e6
    return totals


def root_time_ms(spans: list[list]) -> float:
    return sum(span[5] - span[4] for span in spans if span[2] is None) / 1e6
