"""repro.telemetry — zero-dependency observability for the TMerge stack.

Three primitives (plus the optional decision ledger) behind one
injectable facade:

* :class:`MetricsRegistry` — lazily-created counters, gauges and
  histograms (ReID invocations, cache hit/miss/eviction, Thompson
  draws, ULB prunes, breaker flips, degraded windows, …).
* :class:`Tracer` — nested spans timed on the *simulated*
  :class:`~repro.reid.cost.CostModel` clock, exported as JSONL.
* :class:`Profiler` + :func:`profiled` — wall-clock hotspot accounting
  for the Python implementation itself (kept strictly outside the
  simulated-cost story).

Plus the operational export surface: :func:`render_openmetrics` /
:func:`parse_openmetrics` expose a registry in the OpenMetrics /
Prometheus text format (zero-dependency; see
:mod:`repro.telemetry.openmetrics`).

The facade, :class:`Telemetry`, is always *injected*: the run owns one
Telemetry and the :class:`~repro.provenance.DecisionLedger`, when the
run records decisions, rides on it.  Module-level observer singletons
are a lint violation (REPRO010).  Components record into the Telemetry
they are handed without asking whether anyone is watching; recording
never touches RNG state or the simulated clock, so results are
bit-identical with observation on or off (DESIGN.md §11).
"""

from repro.telemetry.facade import Telemetry
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.openmetrics import (
    metric_name,
    parse_openmetrics,
    render_openmetrics,
)
from repro.telemetry.profiling import FunctionStats, Profiler, profiled
from repro.telemetry.tracing import (
    Span,
    Tracer,
    spans_from_jsonl,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FunctionStats",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profiler",
    "Span",
    "Telemetry",
    "Tracer",
    "metric_name",
    "parse_openmetrics",
    "profiled",
    "render_openmetrics",
    "spans_from_jsonl",
]
