"""repro.telemetry — zero-dependency observability for the TMerge stack.

Two primitives (plus the optional decision ledger) behind one
injectable facade:

* :class:`MetricsRegistry` — lazily-created counters, gauges and
  histograms (ReID invocations, cache hit/miss/eviction, Thompson
  draws, ULB prunes, breaker flips, degraded windows, …).
* :class:`Tracer` — nested spans on two clocks, exported as JSONL:
  bit-reproducible stamps on the *simulated*
  :class:`~repro.reid.cost.CostModel` clock, plus each span's real
  ``wall_ms`` (the one field that is not reproducible), which
  :meth:`Tracer.hotspots` ranks to show where the wall time went.

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
from repro.telemetry.tracing import (
    Span,
    Tracer,
    spans_from_jsonl,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "metric_name",
    "parse_openmetrics",
    "render_openmetrics",
    "spans_from_jsonl",
]
