"""Observability substrate: tracing and typed metrics.

``repro.obs`` is stdlib-only (NumPy allowed but unused) and holds the
same import-hygiene bar as :mod:`repro.dse.engine`: importing it must
never pull in test/plot/config frameworks.  Two modules:

:mod:`repro.obs.trace`
    A ``Span`` tree with ids/parent-ids, wall+CPU timings, and typed
    attributes.  Context propagates through ``contextvars`` inside a
    thread, through an explicit handoff payload into a service job's
    dispatch thread, and through the ``X-Repro-Trace`` header across the
    service/fleet HTTP hops.  Spans land in a ring-buffer
    :class:`~repro.obs.trace.TraceStore` and export as JSONL or Chrome
    ``trace_event`` JSON.

:mod:`repro.obs.metrics`
    Latency histograms (fixed log-spaced buckets) behind a
    process-global registry, plus a strict parser for the Prometheus
    text exposition format used by the ``--obs`` smoke.  Counters and
    gauges come from the walked ``stats()`` documents
    (:mod:`repro.service.metrics`), not from the registry.

Everything is ~zero-cost when disabled: the recorder is a no-op
singleton behind one module-global check (pinned by the ``obs_overhead``
section of ``scripts/bench.py``), and tracing is bit-neutral — spans are
a side channel that never touches result payloads or digests.
"""

from repro.obs import metrics, trace

__all__ = ["metrics", "trace"]
