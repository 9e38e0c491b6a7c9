"""Prometheus-style text rendering of the service/fleet counters.

No new dependency, no new bookkeeping: :func:`render_prometheus` walks the
JSON-ready ``stats()`` document a server (or router) already maintains —
``SessionStats``, the queue counters, store counters — and emits
every numeric leaf in the Prometheus text exposition format (version
0.0.4)::

    # TYPE repro_queue_pending gauge
    repro_queue_pending 3
    # TYPE repro_session_synthesis_runs counter
    repro_session_synthesis_runs 42

Leaves are *typed*: a leaf whose name is in :data:`COUNTER_LEAVES` — the
monotone lifetime counters of every layer (submissions, sheds, synthesis
runs, store writes, routed jobs, ...) — renders as ``counter``; anything
else numeric (depths, rates, uptimes, capacities) renders as ``gauge``.
Prometheus consumers need the distinction: ``rate()``/``increase()`` are
only sound over counters, and exposing a counter as a gauge (the pre-0.10
behavior) silently breaks them across restarts.

A :class:`repro.obs.metrics.MetricsRegistry` can additionally be merged in
(``registry=``): it holds only latency histograms, each emitted as the
full ``_bucket{le="..."}`` / ``_sum`` / ``_count`` family — queue-wait,
stage-latency, and chunk-fold latency distributions ride the same ``GET
/metrics`` scrape.  Every counter and gauge comes from the walk.

Nested mappings flatten with ``_`` (``{"queue": {"pending": 3}}`` becomes
``repro_queue_pending``); booleans render as ``0``/``1``; strings, nulls,
and lists are skipped (they are labels, not samples).  Both the worker
(:class:`~repro.service.server.ReproServer`) and the fleet router
(:class:`~repro.fleet.router.FleetRouter`) serve the result on
``GET /metrics``.
"""

from __future__ import annotations

import math
import re
from typing import Any, List, Mapping, Optional

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Leaf keys of the ``stats()`` documents whose values only ever grow —
#: lifetime totals, never levels.  Classified by the *leaf* name (the last
#: path component), so ``queue.submitted`` and ``aggregate.submitted``
#: both type as counters while ``queue.pending`` stays a gauge.
COUNTER_LEAVES = frozenset({
    # queue lifecycle totals
    "submitted", "coalesced", "completed", "failed", "cancelled",
    "timed_out", "shed",
    # session totals (work done and cache traffic)
    "workloads_run", "workloads_failed", "synthesis_runs",
    "characterization_cache_hits", "characterization_cache_misses",
    "store_disk_hits", "store_disk_misses", "store_writes",
    "tool_runtime_spent_s", "tool_runtime_avoided_s", "workload_time_s",
    # store / shared-table / stream-cache traffic
    "hits", "misses", "writes", "corrupt", "evictions",
    "runs", "parallel_runs", "chunks_materialized",
    "duplicate_chunk_materializations", "throughput_pruned_rows",
    # fleet router / membership totals
    "routed", "failovers", "replays", "done", "deaths", "revivals",
    # trace-store accounting
    "spans_added", "traces_evicted", "spans_dropped",
})

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(*parts: str) -> str:
    """Join path components into a legal Prometheus metric name."""
    joined = "_".join(part for part in parts if part)
    name = _NAME_SANITIZER.sub("_", joined)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _leaf_type(key: str) -> str:
    return "counter" if key in COUNTER_LEAVES else "gauge"


def _walk(prefix: str, document: Mapping[str, Any],
          samples: List[str]) -> None:
    for key in sorted(document):
        value = document[key]
        name = _metric_name(prefix, str(key))
        if isinstance(value, Mapping):
            _walk(name, value, samples)
        elif isinstance(value, bool):
            samples.append(f"# TYPE {name} gauge\n{name} {int(value)}")
        elif isinstance(value, (int, float)):
            if isinstance(value, float) and not math.isfinite(value):
                continue  # NaN/inf samples poison scrapes; drop them
            kind = _leaf_type(str(key))
            samples.append(f"# TYPE {name} {kind}\n{name} {value}")
        # strings, None, lists: identity/labels, not numeric samples


def _format_le(bound: float) -> str:
    """Render a bucket bound the way Prometheus clients expect."""
    if math.isinf(bound):
        return "+Inf"
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


def _render_registry(snapshot: Mapping[str, Mapping[str, Any]],
                     samples: List[str]) -> None:
    """Emit a :meth:`MetricsRegistry.snapshot` as histogram families."""
    for name in sorted(snapshot):
        family = snapshot[name]
        metric = _metric_name(name)
        lines = [f"# TYPE {metric} histogram"]
        for bound, count in family["buckets"]:
            lines.append(
                f'{metric}_bucket{{le="{_format_le(bound)}"}} {count}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {family["count"]}')
        lines.append(f"{metric}_sum {family['sum']}")
        lines.append(f"{metric}_count {family['count']}")
        samples.append("\n".join(lines))


def render_prometheus(stats: Mapping[str, Any],
                      prefix: str = "repro",
                      registry: Optional[Any] = None) -> str:
    """Flatten a ``stats()`` document into Prometheus text format.

    ``registry`` (a :class:`repro.obs.metrics.MetricsRegistry`) merges its
    histogram families after the walked leaves; their metric names are
    absolute (already ``repro_...``-prefixed), not nested under
    ``prefix``.  Deterministic: keys are emitted in sorted order at
    every nesting level, so two scrapes of identical counters are
    byte-identical.
    """
    samples: List[str] = []
    _walk(prefix, stats, samples)
    if registry is not None:
        _render_registry(registry.snapshot(), samples)
    return "\n".join(samples) + "\n"
