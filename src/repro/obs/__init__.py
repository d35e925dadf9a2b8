"""Observability primitives: a metrics registry and structured logging.

This package is deliberately dependency-free (stdlib only) and imported
by every layer of the harness — the trace cache counts hits and misses,
the parallel sweep engine counts worker crashes and recovered points,
the conformance harness counts its progress (``check.cases``,
``check.failures``, ``check.oracle_runs``, ``check.invariant_runs``,
``check.shrink_evals``), the CLI routes its warnings through one
configurable logger — so a single ``repro cache-stats`` or ``-v`` flag
surfaces what the whole stack did.

* :mod:`~repro.obs.metrics` — process-local counters and histograms
  (with reservoir quantiles), collected in a named registry,
  snapshotted as plain dicts or rendered as Prometheus text.
* :mod:`~repro.obs.logging` — the ``repro.*`` logger hierarchy with a
  verbosity-level configurator (``--quiet`` / ``-v`` / ``-vv``) and a
  ``key=value`` structured-event helper.
* :mod:`~repro.obs.trace` — the one span model and its Chrome-trace /
  JSONL exporters, shared by the simulator's recorded timelines and
  the live executors; plus distributed tracing for the live backends:
  per-actor flight recorders, span-context propagation over the
  Section 3.2 message protocol, clock-aligned merge, measured
  attribution and post-mortem dumps.
"""

from .logging import (configure_logging, get_logger, log_event,
                      verbosity_level)
from .metrics import (Counter, Histogram, MetricsRegistry, get_registry,
                      prometheus_text, reset_registry)
from .trace import (FlightRecorder, LiveTimeline, LiveTraceCollector,
                    Span, chrome_trace, dump_flight, live_attribution,
                    reconcile_live, timeline_jsonl, write_chrome_trace,
                    write_timeline_jsonl)

__all__ = [
    "configure_logging", "get_logger", "log_event", "verbosity_level",
    "Counter", "Histogram", "MetricsRegistry", "get_registry",
    "prometheus_text", "reset_registry",
    "FlightRecorder", "LiveTimeline", "LiveTraceCollector", "Span",
    "chrome_trace", "dump_flight", "live_attribution", "reconcile_live",
    "timeline_jsonl", "write_chrome_trace", "write_timeline_jsonl",
]
