"""Span-tree tracing with cross-process context propagation.

One trace is a tree of :class:`Span` records sharing a ``trace_id``;
every span knows its ``parent_id``, wall and per-thread CPU durations,
and a flat dict of typed attributes.  Three propagation edges:

* **in-process** — the active ``(trace_id, span_id)`` pair lives in a
  :mod:`contextvars` variable, so nested ``with span(...)`` blocks
  parent correctly across the session/scheduler call graph;
* **HTTP** — :func:`header_value` / :func:`parse_header` round-trip the
  context through the ``X-Repro-Trace`` request header
  (``<32-hex trace>-<16-hex span>``); a malformed or absent header
  degrades to a fresh root span, never an error;
* **worker handoff** — :func:`context_payload` produces a plain
  ``{"trace_id", "span_id", "pid"}`` dict that a service job re-enters
  with :func:`adopt` on its dispatch thread.

:func:`capture` records spans into a plain list, for callers that want
one run's spans without a :class:`TraceStore`.

Recording is off by default.  When disabled, :func:`span` returns a
shared no-op handle and :func:`current_ids` short-circuits on one global
flag — the instrumentation left in the hot paths costs one attribute
load.  :func:`enable` routes finished spans into the process-global
ring-buffer :class:`TraceStore` (and any extra sinks), which backs the
``GET /trace/<id>`` HTTP surface and ``python -m repro trace``.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TRACE_HEADER", "Span", "TraceStore", "adopt", "auto_enable", "capture",
    "context_payload", "current_ids", "disable", "enable", "enabled",
    "global_store", "header_value", "parse_header", "span", "start_span",
    "to_chrome_trace", "to_jsonl",
]

#: HTTP request header carrying the trace context across service hops.
TRACE_HEADER = "X-Repro-Trace"

#: Environment variable gating server-side auto-enablement.
OBS_ENV = "REPRO_OBS"

_TRACE_ID_HEX = 32
_SPAN_ID_HEX = 16

#: Active ``(trace_id, span_id)`` of the enclosing span, per context.
_CURRENT: "contextvars.ContextVar[Optional[Tuple[str, str]]]" = \
    contextvars.ContextVar("repro_obs_current", default=None)

_STATE_LOCK = threading.Lock()
_ENABLED = False
#: Immutable tuple of ``sink(span_dict)`` callables; swapped whole under
#: the state lock so the hot path reads it without locking.
_SINKS: Tuple[Callable[[Dict[str, Any]], None], ...] = ()


def _new_trace_id() -> str:
    return os.urandom(_TRACE_ID_HEX // 2).hex()


def _new_span_id() -> str:
    return os.urandom(_SPAN_ID_HEX // 2).hex()


# ---------------------------------------------------------------------- #
# recorder state


def enabled() -> bool:
    """Is span recording on in this process?"""
    return _ENABLED


def enable(store: Optional["TraceStore"] = None) -> None:
    """Turn recording on, routing spans into ``store`` (default: the
    process-global ring buffer).  Idempotent; extra stores accumulate as
    additional sinks."""
    global _ENABLED, _SINKS
    with _STATE_LOCK:
        sink = (store or _GLOBAL_STORE).add
        if sink not in _SINKS:
            _SINKS = _SINKS + (sink,)
        _ENABLED = True


def disable() -> None:
    """Turn recording off and drop every sink (stores keep their spans)."""
    global _ENABLED, _SINKS
    with _STATE_LOCK:
        _ENABLED = False
        _SINKS = ()


def auto_enable() -> bool:
    """Server-side default: enable tracing unless ``REPRO_OBS`` opts out.

    Long-lived daemons (service/fleet) call this at construction so one
    ``submit --fleet`` yields a trace out of the box; library sessions
    stay zero-cost unless the caller enables explicitly.
    """
    if os.environ.get(OBS_ENV, "1").strip().lower() in (
            "0", "off", "false", "no"):
        return False
    enable()
    return True


def global_store() -> "TraceStore":
    """The process-global ring-buffer store servers expose over HTTP."""
    return _GLOBAL_STORE


def _record(span_dict: Dict[str, Any]) -> None:
    for sink in _SINKS:
        sink(span_dict)


# ---------------------------------------------------------------------- #
# spans


class Span:
    """One timed node of a trace tree (context manager or manual).

    ``with span("stage.explore", kernel="blur"):`` is the common form;
    :func:`start_span` returns an un-activated handle for spans whose
    start and finish live on different threads (e.g. a service job span
    opened at admission and closed at completion).
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attributes",
                 "status", "error", "_start_wall", "_start_perf",
                 "_start_cpu", "_tid", "_thread", "_token", "_finished")

    def __init__(self, name: str,
                 parent: Optional[Dict[str, Any]] = None,
                 activate: bool = True,
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        if parent is not None:
            self.trace_id = parent["trace_id"]
            self.parent_id = parent["span_id"]
        else:
            current = _CURRENT.get()
            if current is None:
                self.trace_id = _new_trace_id()
                self.parent_id = None
            else:
                self.trace_id, self.parent_id = current
        self.span_id = _new_span_id()
        self.attributes: Dict[str, Any] = dict(attributes) if attributes \
            else {}
        self.status = "ok"
        self.error: Optional[str] = None
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        self._start_cpu = time.thread_time()
        self._tid = threading.get_ident()
        self._thread = threading.current_thread().name
        self._token = (_CURRENT.set((self.trace_id, self.span_id))
                       if activate else None)
        self._finished = False

    # -- context-manager protocol -------------------------------------- #

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc_value, _tb) -> bool:
        if exc_type is not None:
            self.set_error(exc_value if exc_value is not None
                           else exc_type())
        self.finish()
        return False

    # -- mutation ------------------------------------------------------ #

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def set_error(self, error: BaseException) -> None:
        self.status = "error"
        self.error = f"{type(error).__name__}: {error}"

    def finish(self) -> None:
        """Close the span and hand it to the sinks (idempotent)."""
        if self._finished:
            return
        self._finished = True
        wall_s = time.perf_counter() - self._start_perf
        cpu_s = time.thread_time() - self._start_cpu
        if self._token is not None:
            try:
                _CURRENT.reset(self._token)
            except ValueError:
                pass  # finished on a different thread than it started
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self._start_wall,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "pid": os.getpid(),
            "tid": self._tid,
            "thread": self._thread,
            "status": self.status,
        }
        if self.error is not None:
            record["error"] = self.error
        if self.attributes:
            record["attributes"] = self.attributes
        _record(record)

    # -- propagation --------------------------------------------------- #

    def context_payload(self) -> Dict[str, Any]:
        """Picklable handoff payload making this span the parent."""
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "pid": os.getpid()}


class _NoopSpan:
    """Shared do-nothing handle returned while recording is disabled."""

    __slots__ = ()
    name = ""
    trace_id = None
    span_id = None
    parent_id = None
    status = "ok"

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def set_error(self, error: BaseException) -> None:
        pass

    def finish(self) -> None:
        pass

    def context_payload(self) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


def span(name: str, **attributes: Any):
    """Open a child span of the current context (no-op when disabled)."""
    if not _ENABLED:
        return _NOOP_SPAN
    return Span(name, attributes=attributes or None)


def start_span(name: str, parent: Optional[Dict[str, Any]] = None,
               **attributes: Any):
    """Start a span without activating it in the current context.

    Use for spans finished on another thread: the handle is stashed on
    the carrying object (e.g. a service job) and ``finish()``ed there,
    while children parent under it through explicit
    ``adopt(handle.context_payload())`` blocks.
    """
    if not _ENABLED:
        return _NOOP_SPAN
    return Span(name, parent=parent, activate=False,
                attributes=attributes or None)


def current_ids() -> Tuple[Optional[str], Optional[str]]:
    """``(trace_id, span_id)`` of the enclosing span, or ``(None, None)``."""
    if not _ENABLED:
        return (None, None)
    current = _CURRENT.get()
    if current is None:
        return (None, None)
    return current


def context_payload() -> Optional[Dict[str, Any]]:
    """Picklable snapshot of the current context for worker handoff."""
    if not _ENABLED:
        return None
    current = _CURRENT.get()
    if current is None:
        return None
    return {"trace_id": current[0], "span_id": current[1],
            "pid": os.getpid()}


class adopt:
    """Re-enter a handed-off context: children parent under ``payload``.

    Accepts ``None`` or a malformed payload (both no-ops), so callers
    can pass whatever arrived without pre-validating.
    """

    __slots__ = ("_payload", "_token")

    def __init__(self, payload: Optional[Dict[str, Any]]) -> None:
        self._payload = payload
        self._token = None

    def __enter__(self) -> "adopt":
        payload = self._payload
        if _ENABLED and isinstance(payload, dict):
            trace_id = payload.get("trace_id")
            span_id = payload.get("span_id")
            if isinstance(trace_id, str) and isinstance(span_id, str):
                self._token = _CURRENT.set((trace_id, span_id))
        return self

    def __exit__(self, *_exc) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        return False


class capture:
    """Record spans into a plain list.

    ``with capture(spans):`` turns recording on with the list as an extra
    sink, and restores the previous recorder state on exit.

    The recorder state it swaps is process-global, not per thread: two
    captures that overlap on different threads restore out of order and
    lose spans.  Do not overlap captures across threads.
    """

    __slots__ = ("_into", "_prev")

    def __init__(self, into: List[Dict[str, Any]]) -> None:
        self._into = into
        self._prev = None

    def __enter__(self) -> List[Dict[str, Any]]:
        global _ENABLED, _SINKS
        with _STATE_LOCK:
            self._prev = (_ENABLED, _SINKS)
            _SINKS = _SINKS + (self._into.append,)
            _ENABLED = True
        return self._into

    def __exit__(self, *_exc) -> bool:
        global _ENABLED, _SINKS
        with _STATE_LOCK:
            _ENABLED, _SINKS = self._prev
        return False


# ---------------------------------------------------------------------- #
# HTTP header codec


def header_value(payload: Optional[Dict[str, Any]] = None) -> Optional[str]:
    """``X-Repro-Trace`` value for the current (or given) context."""
    if payload is None:
        payload = context_payload()
    if not payload:
        return None
    return f"{payload['trace_id']}-{payload['span_id']}"


def parse_header(value: Optional[str]) -> Optional[Dict[str, Any]]:
    """Strictly decode a header value; ``None`` on anything malformed.

    Absent/garbage headers must degrade to a fresh root span — never an
    error — so this returns ``None`` rather than raising.
    """
    if not isinstance(value, str):
        return None
    parts = value.strip().split("-")
    if len(parts) != 2:
        return None
    trace_id, span_id = parts
    if len(trace_id) != _TRACE_ID_HEX or len(span_id) != _SPAN_ID_HEX:
        return None
    try:
        int(trace_id, 16)
        int(span_id, 16)
    except ValueError:
        return None
    return {"trace_id": trace_id.lower(), "span_id": span_id.lower()}


# ---------------------------------------------------------------------- #
# trace store


class TraceStore:
    """Ring buffer of finished spans, grouped and evicted per trace."""

    def __init__(self, max_traces: int = 128,
                 max_spans_per_trace: int = 4096) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1 (got {max_traces})")
        if max_spans_per_trace < 1:
            raise ValueError("max_spans_per_trace must be >= 1 "
                             f"(got {max_spans_per_trace})")
        self._max_traces = max_traces
        self._max_spans = max_spans_per_trace
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, List[Dict[str, Any]]]" = \
            OrderedDict()
        self._spans_added = 0
        self._traces_evicted = 0
        self._spans_dropped = 0

    def add(self, span_dict: Dict[str, Any]) -> None:
        trace_id = span_dict.get("trace_id")
        if not isinstance(trace_id, str):
            return
        with self._lock:
            bucket = self._traces.get(trace_id)
            if bucket is None:
                while len(self._traces) >= self._max_traces:
                    self._traces.popitem(last=False)
                    self._traces_evicted += 1
                bucket = self._traces[trace_id] = []
            else:
                self._traces.move_to_end(trace_id)
            if len(bucket) >= self._max_spans:
                self._spans_dropped += 1
                return
            bucket.append(span_dict)
            self._spans_added += 1

    def get(self, trace_id: str) -> Optional[List[Dict[str, Any]]]:
        """Spans of one trace in finish order (copies), or ``None``."""
        with self._lock:
            bucket = self._traces.get(trace_id)
            if bucket is None:
                return None
            return [dict(span_dict) for span_dict in bucket]

    def summaries(self) -> List[Dict[str, Any]]:
        """JSON-ready per-trace digest for the ``GET /trace`` index."""
        with self._lock:
            out = []
            for trace_id, bucket in self._traces.items():
                roots = [s for s in bucket if s.get("parent_id") is None]
                out.append({
                    "trace_id": trace_id,
                    "spans": len(bucket),
                    "root": roots[0]["name"] if roots else None,
                    "start_s": min(s["start_s"] for s in bucket),
                    "wall_s": max(s["start_s"] + s["wall_s"]
                                  for s in bucket)
                              - min(s["start_s"] for s in bucket),
                })
            return out

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def stats_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "traces": len(self._traces),
                "spans": sum(len(b) for b in self._traces.values()),
                "max_traces": self._max_traces,
                "spans_added": self._spans_added,
                "traces_evicted": self._traces_evicted,
                "spans_dropped": self._spans_dropped,
            }


_GLOBAL_STORE = TraceStore()


# ---------------------------------------------------------------------- #
# exporters


def to_jsonl(spans: Iterable[Dict[str, Any]]) -> str:
    """One span dict per line (the ``repro trace`` default output)."""
    return "".join(json.dumps(span_dict, sort_keys=True) + "\n"
                   for span_dict in spans)


def to_chrome_trace(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON (load in chrome://tracing / Perfetto).

    Each span becomes one complete ("ph": "X") event; ids and
    attributes ride in ``args`` so the trace joins back to logs.
    """
    events = []
    for span_dict in spans:
        args = {
            "trace_id": span_dict.get("trace_id"),
            "span_id": span_dict.get("span_id"),
            "parent_id": span_dict.get("parent_id"),
            "cpu_s": span_dict.get("cpu_s"),
            "status": span_dict.get("status"),
        }
        args.update(span_dict.get("attributes") or {})
        events.append({
            "name": span_dict.get("name", "span"),
            "cat": "repro",
            "ph": "X",
            "ts": span_dict.get("start_s", 0.0) * 1e6,
            "dur": max(span_dict.get("wall_s", 0.0), 0.0) * 1e6,
            "pid": span_dict.get("pid", 0),
            "tid": span_dict.get("tid", 0),
            "args": args,
        })
    events.sort(key=lambda event: (event["pid"], event["tid"],
                                   event["ts"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}
