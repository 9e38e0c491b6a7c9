"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``.  A traced run instead replaces the public
entry point of every layer with a thin wrapper that opens a
``repro.obs.trace`` span per call (tagged with the wrapped binding) and adds a
few counts read from the call's arguments or result, and puts every original
back afterwards.  The spans are collected through a sink of the tracer's own,
so the program's context handoff into pool threads and worker processes
parents them exactly as it parents the program's own spans.

Functions that callers import by name (``from repro.ir.dfg import
build_dfg_from_cone``) are wrapped at the caller's binding: patching the
defining module would leave the caller's own reference untouched.

A benchmark span's parent is its nearest benchmark ancestor (program spans in
between are skipped), and its self time is its duration minus the part of its
interval covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import trace as obs_trace

#: Layers in pipeline order (the table prints them in this order).
LAYERS = ("frontend", "symbolic", "ir", "synth", "estimation", "dse",
          "codegen", "simulation", "api", "service", "fleet")
#: Span attribute naming the wrapped binding; it marks benchmark spans.
BINDING = "perfbench"


@dataclass(frozen=True)
class Target:
    """One wrapped binding: ``owner.attr`` where ``owner`` is a module or a
    class reached from a module (``"repro.api.session:Session"``)."""

    owner: str
    attr: str
    span: str
    #: Workload on which this binding must record calls (the coverage
    #: guard); ``None`` for bindings no caller reaches on any workload.
    home: Optional[str] = None
    counts: Optional[Callable[..., Dict[str, float]]] = None

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}"


def _cone_counts(args, kwargs, cone) -> Dict[str, float]:
    return {"symbolic.registers": cone.register_count,
            "symbolic.operations": cone.operation_count}


def _dfg_counts(args, kwargs, dfg) -> Dict[str, float]:
    return {"ir.dfg_nodes": len(dfg.nodes())}


def _vhdl_counts(args, kwargs, files) -> Dict[str, float]:
    return {"codegen.vhdl_bytes": sum(len(text.encode("utf-8"))
                                      for text in files.values())}


def _pixel_counts(args, kwargs, result) -> Dict[str, float]:
    return {"simulation.pixels": result.frame_width * result.frame_height}


def _costed_rows(args, kwargs, columns) -> Dict[str, float]:
    counts = kwargs.get("primary_counts", args[5] if len(args) > 5 else ())
    return {"dse.rows_costed": len(counts)}


def _columnar_rows(args, kwargs, evaluation) -> Dict[str, float]:
    return {"dse.rows_admitted": len(evaluation.row_index),
            "dse.rows_pruned": evaluation.pruned_rows}


def _stream_rows(args, kwargs, evaluation) -> Dict[str, float]:
    return {"dse.rows_admitted": evaluation.admitted_rows,
            "dse.rows_pruned": evaluation.pruned_rows}


_SESSION = "repro.api.session:Session"
_EXPLORER = "repro.dse.explorer:DesignSpaceExplorer"

#: Every wrapped binding.  ``home`` names the workload where the layer is
#: predicted to do most of its work.
TARGETS: Tuple[Target, ...] = (
    # frontend: kernel resolution happens when a Workload is built
    Target("repro.api.workload:Workload", "__post_init__", "frontend.resolve",
           home="service_mix"),
    # memoized per source: only a process's first C workload reaches it,
    # which may fall in an untraced segment, so no home
    Target("repro.api.workload", "extract_kernel_from_c", "frontend.extract"),
    # symbolic
    Target("repro.symbolic.cone_expression:ConeExpressionBuilder", "build",
           "symbolic.build", home="paper_cold", counts=_cone_counts),
    # ir: bound by name into both of its callers
    Target("repro.dse.explorer", "build_dfg_from_cone", "ir.lower",
           home="paper_cold", counts=_dfg_counts),
    Target("repro.api.pipeline", "build_dfg_from_cone", "ir.lower",
           home="paper_cold", counts=_dfg_counts),
    # synth
    Target("repro.synth.synthesizer:Synthesizer", "synthesize",
           "synth.synthesize", home="paper_cold"),
    # estimation
    Target("repro.estimation.area_model:RegisterAreaModel", "calibrate",
           "estimation.calibrate", home="paper_cold"),
    Target("repro.estimation.area_model:RegisterAreaModel", "estimate_series",
           "estimation.estimate_series", home="paper_cold"),
    Target("repro.estimation.throughput_model:ThroughputModel",
           "estimate_batch", "estimation.throughput_batch", home="whatif",
           counts=_costed_rows),
    # dse
    Target(_EXPLORER, "explore", "dse.explore", home="whatif"),
    Target(_EXPLORER, "characterize_cones", "dse.characterize",
           home="paper_cold"),
    Target("repro.dse.explorer", "explore_columnar", "dse.columnar",
           home="whatif", counts=_columnar_rows),
    Target("repro.dse.explorer", "explore_stream", "dse.stream",
           home="whatif", counts=_stream_rows),
    # pareto_front calls pareto_indices inside its own module
    Target("repro.dse.pareto", "pareto_indices", "dse.pareto"),
    Target("repro.dse.engine", "pareto_indices", "dse.pareto", home="whatif"),
    # codegen
    Target("repro.api.pipeline", "generate_vhdl_files", "codegen.generate",
           home="paper_cold", counts=_vhdl_counts),
    Target("repro.codegen.vhdl_writer:VhdlWriter", "generate",
           "codegen.entity", home="paper_cold"),
    # simulation
    Target("repro.api.session", "validate_workload", "simulation.validate",
           home="service_mix", counts=_pixel_counts),
    # api
    Target(_SESSION, "run", "api.run", home="whatif"),
    Target(_SESSION, "run_many", "api.run_many", home="paper_cold"),
    Target(_SESSION, "validate", "api.validate", home="service_mix"),
    Target(_SESSION, "generate_vhdl", "api.generate_vhdl", home="paper_cold"),
    Target("repro.api.store:ArtifactStore", "get", "api.store_get",
           home="service_mix"),
    Target("repro.api.store:ArtifactStore", "put", "api.store_put",
           home="service_mix"),
    Target("repro.api.results:FlowResult", "to_dict", "api.serialize",
           home="service_mix"),
    # results are read back from the store only by a fresh session, which
    # no workload starts mid-run: no home
    Target("repro.api.results:FlowResult", "from_dict", "api.serialize"),
    # service and fleet: the public submission verbs (queue waits come
    # from job events, counts from stats())
    Target("repro.service.server:ReproServer", "submit", "service.submit",
           home="service_mix"),
    Target("repro.fleet.router:FleetRouter", "submit", "fleet.route",
           home="service_mix"),
)


def _resolve_owner(path: str) -> Any:
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Every finished span dict, the program's own spans included.
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = {}
        #: ``(owner, attr, original descriptor)`` of installed wrappers.
        self._installed: List[Tuple[Any, str, Any]] = []
        self._capture: Optional[obs_trace.capture] = None
        self.missing: List[str] = []
        self.count_errors: List[str] = []

    def _wrap(self, target: Target, original: Any) -> Any:
        if isinstance(original, classmethod):
            return classmethod(self._wrap(target, original.__func__))
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with obs_trace.span(target.span, **{BINDING: target.label}):
                result = original(*args, **kwargs)
            if target.counts is not None:
                tracer._count(target, args, kwargs, result)
            return result

        return wrapper

    def _count(self, target: Target, args, kwargs, result) -> None:
        try:
            extra = target.counts(args, kwargs, result)
        except Exception as error:  # never let a count break the call
            with self._lock:
                self.count_errors.append(f"{target.label}: {error!r}")
            return
        with self._lock:
            for name, value in extra.items():
                self.counts[name] = self.counts.get(name, 0) + value

    def install(self) -> None:
        """Wrap every target and start collecting spans."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for target in TARGETS:
            owner = _resolve_owner(target.owner)
            # __dict__, not getattr: keeps classmethod descriptors intact
            original = vars(owner).get(target.attr)
            if original is None:
                self.missing.append(target.label)
                continue
            setattr(owner, target.attr, self._wrap(target, original))
            self._installed.append((owner, target.attr, original))
        self._capture = obs_trace.capture(self.spans)
        self._capture.__enter__()

    def remove(self) -> List[str]:
        """Restore every original and the recorder state; return the labels
        left wrapped (which should be none)."""
        self._capture.__exit__(None, None, None)
        self._capture = None
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        leftovers = [f"{getattr(owner, '__name__', owner)}.{attr}"
                     for owner, attr, original in self._installed
                     if vars(owner).get(attr) is not original]
        self._installed = []
        return leftovers

    # ------------------------------------------------------------ analysis

    def bench_spans(self) -> List[Tuple[str, Optional[str], Dict[str, Any]]]:
        """``(span id, nearest benchmark ancestor's id, span)`` per
        benchmark span."""
        by_id = {item["span_id"]: item for item in self.spans}
        result = []
        for item in self.spans:
            if BINDING not in item.get("attributes", ()):
                continue
            parent = by_id.get(item["parent_id"])
            while parent is not None and BINDING not in parent.get(
                    "attributes", ()):
                parent = by_id.get(parent["parent_id"])
            result.append((item["span_id"],
                           parent["span_id"] if parent else None, item))
        return result

    def self_times(self) -> Dict[str, float]:
        """Self time per benchmark span: duration minus the union of its
        children's intervals (clipped to the span)."""
        spans = self.bench_spans()
        children: Dict[str, List[Tuple[float, float]]] = {}
        for _, parent, item in spans:
            if parent is not None:
                children.setdefault(parent, []).append(
                    (item["start_s"], item["start_s"] + item["wall_s"]))
        result = {}
        for span_id, _, item in spans:
            start, end = item["start_s"], item["start_s"] + item["wall_s"]
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result[span_id] = item["wall_s"] - covered
        return result

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds, self seconds."""
        self_time = self.self_times()
        table: Dict[str, Dict[str, float]] = {}
        for span_id, _, item in self.bench_spans():
            row = table.setdefault(item["name"], {"calls": 0, "busy_s": 0.0,
                                                  "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += item["wall_s"]
            row["self_s"] += self_time[span_id]
        return table

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer (sum over the layer's spans)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, row in self.summary().items():
            totals[name.split(".", 1)[0]] += row["self_s"]
        return totals

    def uncovered(self, workload: str) -> List[str]:
        """Bindings homed on ``workload`` that recorded zero calls."""
        calls = Counter(item["attributes"][BINDING]
                        for _, _, item in self.bench_spans())
        missing = set(self.missing)
        return [target.label for target in TARGETS
                if target.home == workload and target.label not in missing
                and calls[target.label] == 0]
