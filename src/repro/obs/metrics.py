"""Latency histograms behind a global registry.

The service/fleet ``/metrics`` endpoints render two sources: the
``stats()`` document walk, which supplies every counter and gauge
(classified by leaf name, see :mod:`repro.service.metrics`), and this
registry, which holds what the walk cannot express — the log-spaced
latency histograms ``repro_session_stage_seconds``,
``repro_service_queue_wait_seconds`` and
``repro_stream_chunk_fold_seconds``.  Everything is process-global so one
exposition shows the whole process, and thread-safe behind one registry
lock plus per-histogram locks.

:func:`parse_exposition` is a strict validator for the Prometheus text
format 0.0.4 (``# TYPE`` before samples, histogram ``le`` buckets
cumulative and capped by ``+Inf`` == ``_count``); the ``check.sh --obs``
smoke runs a live server's ``/metrics`` body through it.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS", "Histogram", "MetricsRegistry",
    "parse_exposition", "registry",
]

#: Fixed log-spaced latency buckets (seconds): a 1-2.5-5 ladder from
#: 500 microseconds to 50 s.  Fixed so buckets never depend on traffic
#: and series stay mergeable across processes.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Histogram:
    """Cumulative-bucket histogram (``# TYPE ... histogram``)."""

    __slots__ = ("name", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(self, name: str,
                 buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) \
            -> None:
        self.name = _validate_name(name)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs >= 1 bucket")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"histogram {name} buckets must be finite")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name} buckets must be strictly "
                             f"increasing (got {bounds})")
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * len(bounds)  # per-bucket, non-cumulative
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            return
        index = bisect_left(self.buckets, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative ``(le, count)`` pairs plus sum/count."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            acc = self._sum
        cumulative = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative.append((bound, running))
        return {"type": "histogram", "buckets": cumulative,
                "sum": acc, "count": total}


class MetricsRegistry:
    """Name-keyed get-or-create store of histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Histogram] = {}

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = Histogram(
                    name, buckets or DEFAULT_LATENCY_BUCKETS)
            return metric

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Name-sorted JSON-ready view of every histogram."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot()
                for name, metric in sorted(metrics)}

    def reset(self) -> None:
        """Drop every histogram (tests only)."""
        with self._lock:
            self._metrics.clear()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry every layer instruments into."""
    return _REGISTRY


# ---------------------------------------------------------------------- #
# strict exposition-format parser (0.0.4 text format)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$")
_LABEL_RE = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"\\]*)"$')
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _parse_labels(text: Optional[str]) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    if not text:
        return labels
    for part in text.split(","):
        match = _LABEL_RE.match(part.strip())
        if match is None:
            raise ValueError(f"malformed label pair {part!r}")
        if match.group("key") in labels:
            raise ValueError(f"duplicate label {match.group('key')!r}")
        labels[match.group("key")] = match.group("value")
    return labels


def _family_of(name: str, types: Dict[str, str]) -> Optional[str]:
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[:-len(suffix)]
            if types.get(base) == "histogram":
                return base
    return None


def parse_exposition(text: str) -> Dict[str, Dict[str, Any]]:
    """Validate Prometheus 0.0.4 text exposition, strictly.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value)]}}``
    and raises :class:`ValueError` on any violation: samples preceding
    their ``# TYPE`` line, samples outside any declared family,
    non-float values, duplicate series, non-cumulative histogram
    buckets, or a histogram missing its ``+Inf`` bucket / ``_sum`` /
    ``_count`` or whose ``+Inf`` count disagrees with ``_count``.
    """
    if text and not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    types: Dict[str, str] = {}
    families: Dict[str, Dict[str, Any]] = {}
    seen_series = set()
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("TYPE", "HELP"):
                raise ValueError(
                    f"line {line_number}: malformed comment {line!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPES:
                    raise ValueError(
                        f"line {line_number}: malformed TYPE line {line!r}")
                family = parts[2]
                if family in types:
                    raise ValueError(
                        f"line {line_number}: duplicate TYPE for {family}")
                types[family] = parts[3]
                families[family] = {"type": parts[3], "samples": []}
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: malformed sample "
                             f"{line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(f"line {line_number}: non-float value in "
                             f"{line!r}") from None
        family = _family_of(name, types)
        if family is None:
            raise ValueError(f"line {line_number}: sample {name!r} has no "
                             f"preceding # TYPE line")
        series_key = (name, tuple(sorted(labels.items())))
        if series_key in seen_series:
            raise ValueError(f"line {line_number}: duplicate series "
                             f"{series_key!r}")
        seen_series.add(series_key)
        families[family]["samples"].append((name, labels, value))
    _check_histograms(families)
    return families


def _check_histograms(families: Dict[str, Dict[str, Any]]) -> None:
    for family, entry in families.items():
        if entry["type"] != "histogram":
            continue
        buckets: List[Tuple[float, float]] = []
        total = None
        for name, labels, value in entry["samples"]:
            if name == f"{family}_bucket":
                if "le" not in labels:
                    raise ValueError(f"{family}: bucket without le label")
                bound = (math.inf if labels["le"] == "+Inf"
                         else float(labels["le"]))
                buckets.append((bound, value))
            elif name == f"{family}_count":
                total = value
        if not buckets or total is None:
            raise ValueError(f"{family}: histogram missing buckets or "
                             f"_count")
        names = {name for name, _labels, _value in entry["samples"]}
        if f"{family}_sum" not in names:
            raise ValueError(f"{family}: histogram missing _sum")
        bounds = [bound for bound, _count in buckets]
        if bounds != sorted(bounds):
            raise ValueError(f"{family}: bucket bounds out of order")
        counts = [count for _bound, count in buckets]
        if counts != sorted(counts):
            raise ValueError(f"{family}: bucket counts not cumulative")
        if bounds[-1] != math.inf:
            raise ValueError(f"{family}: missing +Inf bucket")
        if counts[-1] != total:
            raise ValueError(f"{family}: +Inf bucket ({counts[-1]}) != "
                             f"_count ({total})")
