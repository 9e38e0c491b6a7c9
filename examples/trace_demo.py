"""Observability: one connected trace across client, fleet, and workers.

``repro.obs`` threads a single trace through every layer the repo has
grown: the submitting client opens a root span, the trace context rides
the ``X-Repro-Trace`` HTTP header into the fleet router, hops to the
owning worker, follows the job through the scheduler into the session
pipeline, and down to the fold of a streamed exploration — every span
carries the same ``trace_id`` and parents back to the caller's root.
This demo shows the full loop:

1. a client-side root span + one fleet submit of a *streamed* workload
   → every server-side span (route, job, dispatch, stages, stream
   fold) joins the caller's trace;
2. fetching the assembled tree back via ``GET /trace/<id>`` and walking
   it as an indented span tree with wall times;
3. exporting the same spans as JSONL (one span per line, grep-able) and
   as Chrome ``trace_event`` JSON — load the file at ``chrome://tracing``
   or https://ui.perfetto.dev to see the timeline;
4. the typed metrics the run produced (counters vs gauges vs histogram
   bucket families on ``GET /metrics``).

Run with:  PYTHONPATH=src python examples/trace_demo.py

Shell equivalent (real processes):

    python -m repro serve --port 8177 &
    python -m repro submit blur --server http://127.0.0.1:8177
    # ... prints `trace: <id>`; then:
    python -m repro trace <id> --server http://127.0.0.1:8177
    python -m repro trace <id> --chrome -o trace.json
"""

import json
import os
import tempfile

from repro.api import Workload
from repro.fleet import FleetRouter
from repro.obs import trace
from repro.service import ReproClient

#: Small knobs so the demo finishes in seconds; ``stream=True`` keeps only
#: the frontier, and its ``stream.explore`` span reports the chunks folded.
SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=4, frame_width=640, frame_height=480,
             stream=True)


def print_tree(spans) -> None:
    """Walk the span list as the tree it encodes, children by start time."""
    children = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: span["start_s"])

    def walk(span, depth):
        attrs = span.get("attributes", {})  # omitted when a span has none
        detail = ", ".join(f"{key}={value}"
                           for key, value in sorted(attrs.items())
                           if key in ("workload", "kind", "state", "chunks",
                                      "worker"))
        print(f"    {'  ' * depth}{span['name']:<{24 - 2 * depth}} "
              f"{span['wall_s'] * 1e3:8.2f} ms"
              + (f"  ({detail})" if detail else ""))
        for child in children.get(span["span_id"], []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)


def main() -> None:
    workload = Workload.from_algorithm("blur", **SMALL)

    with FleetRouter.local(2, healthcheck_interval_s=0) as fleet:
        client = ReproClient(fleet)

        # -------------------------------------------------------------- #
        # 1. one submit under a client-side root span: the trace context
        #    crosses every hop, so the receipt's trace id IS the root's.
        trace.enable()
        with trace.span("demo.submit", workload=workload.name) as root:
            handle = client.submit(workload)
            result = handle.result(timeout=120)
        print(f"submitted:  {workload.name} -> {len(result.pareto)} "
              f"Pareto point(s), trace {handle.trace_id[:12]}... "
              f"(same as the root: {handle.trace_id == root.trace_id})")

        # -------------------------------------------------------------- #
        # 2. fetch the assembled tree back from the fleet and walk it.
        spans = fleet.trace(root.trace_id)["spans"]
        folds = sum(1 for span in spans if span["name"] == "stream.explore")
        print(f"trace:      {len(spans)} span(s), one trace id, "
              f"{folds} stream.explore fold span(s)")
        print_tree(spans)

        # -------------------------------------------------------------- #
        # 3. export: JSONL for grep, Chrome trace_event for a timeline.
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "trace.json")
            with open(path, "w", encoding="utf-8") as sink:
                json.dump(trace.to_chrome_trace(spans), sink)
            events = json.load(open(path, encoding="utf-8"))["traceEvents"]
            print(f"export:     {len(trace.to_jsonl(spans).splitlines())} "
                  f"JSONL line(s); {len(events)} Chrome trace events "
                  f"(load at chrome://tracing)")

        # -------------------------------------------------------------- #
        # 4. the same run left typed metrics behind: monotone totals are
        #    counters, levels are gauges, latencies are bucket families.
        families = {}
        for line in fleet.metrics_text().splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                families.setdefault(kind, []).append(name)
        wait = [name for name in families.get("histogram", [])
                if "queue_wait" in name]
        print(f"metrics:    {len(families.get('counter', []))} counter / "
              f"{len(families.get('gauge', []))} gauge / "
              f"{len(families.get('histogram', []))} histogram families "
              f"(e.g. {wait[0]})")

    trace.disable()


if __name__ == "__main__":
    main()
