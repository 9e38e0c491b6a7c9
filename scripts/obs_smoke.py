#!/usr/bin/env python
"""Observability smoke (``scripts/check.sh --obs``).

Boots ``python -m repro serve`` as a real subprocess on an ephemeral
port and verifies the end-to-end observability surface across the
process boundary:

* a client-side root span rides the ``X-Repro-Trace`` header, so every
  server-side span (job, dispatch, stages) lands in the *caller's*
  trace — fetched back via ``GET /trace/<id>``;
* ``python -m repro trace`` exports the same trace as JSONL and Chrome
  ``trace_event`` JSON;
* ``GET /metrics`` parses under the strict Prometheus 0.0.4 validator
  (:func:`repro.obs.metrics.parse_exposition`) with monotone totals
  typed ``counter`` and the queue-wait histogram's full bucket family.

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.api import Workload  # noqa: E402
from repro.obs import trace  # noqa: E402
from repro.obs.metrics import parse_exposition  # noqa: E402
from repro.service import ReproClient  # noqa: E402

#: Small knobs: the smoke verifies plumbing, not paper-scale numbers.
SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)

ADDRESS_PATTERN = re.compile(
    r"repro service listening on (http://[\d.]+:\d+)")


def start_server() -> "tuple[subprocess.Popen, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet"],
        env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    line = process.stdout.readline()
    match = ADDRESS_PATTERN.search(line)
    if match is None:
        process.kill()
        raise SystemExit(f"error: server did not announce its address "
                         f"(got {line!r})")
    return process, match.group(1)


def run_cli(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *args], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True)
    assert completed.returncode == 0, (
        f"`repro {' '.join(args)}` exited {completed.returncode}:\n"
        f"{completed.stderr}")
    return completed.stdout


def check_trace_surface(client: ReproClient, url: str) -> None:
    # a client-side root span crosses the process boundary in the header
    trace.enable()
    with trace.span("obs_smoke.submit") as root:
        handle = client.submit(Workload.from_algorithm("blur", **SMALL))
        handle.result(timeout=120)
    assert handle.trace_id == root.trace_id, (
        f"receipt trace {handle.trace_id} is not the caller's "
        f"{root.trace_id}: header propagation broke")
    payload = client.trace(root.trace_id)
    spans = payload["spans"]
    names = {span["name"] for span in spans}
    assert {"service.job", "scheduler.dispatch", "session.run"} <= names, \
        f"server-side trace incomplete: {sorted(names)}"
    assert any(name.startswith("stage.") for name in names), sorted(names)
    assert all(span["trace_id"] == root.trace_id for span in spans)
    job_span = next(span for span in spans
                    if span["name"] == "service.job")
    assert job_span["parent_id"] == root.span_id, (
        "the server-side job span does not parent under the caller's "
        "root: X-Repro-Trace was not adopted")
    print(f"  trace {root.trace_id[:12]}... spans over HTTP: "
          f"{len(spans)} server-side, joined to the client root")

    # the CLI fetches and exports the same trace
    index = run_cli("trace", "--server", url)
    assert root.trace_id in index, "trace index is missing the trace"
    jsonl = run_cli("trace", root.trace_id, "--server", url)
    lines = [json.loads(line) for line in jsonl.splitlines()]
    assert {line["span_id"] for line in lines} \
        == {span["span_id"] for span in spans}
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "trace.json")
        run_cli("trace", root.trace_id, "--server", url, "--chrome",
                "-o", out)
        with open(out, "r", encoding="utf-8") as handle_:
            document = json.load(handle_)
    events = document["traceEvents"]
    assert len(events) == len(spans)
    assert all(event["ph"] == "X" for event in events)
    print(f"  CLI export ok (JSONL {len(lines)} spans, Chrome "
          f"{len(events)} events)")


def check_metrics_surface(client: ReproClient) -> None:
    text = client.metrics()
    families = parse_exposition(text)  # strict 0.0.4 validation
    for family, kind in (("repro_queue_submitted", "counter"),
                         ("repro_queue_pending", "gauge"),
                         ("repro_session_synthesis_runs", "counter"),
                         ("repro_service_queue_wait_seconds", "histogram"),
                         ("repro_session_stage_seconds", "histogram")):
        entry = families.get(family)
        assert entry is not None, f"/metrics is missing {family}"
        assert entry["type"] == kind, (
            f"{family} typed {entry['type']}, expected {kind}")
    waits = families["repro_service_queue_wait_seconds"]["samples"]
    count = next(value for name, _labels, value in waits
                 if name.endswith("_count"))
    assert count >= 1, "queue-wait histogram recorded no observations"
    print(f"  /metrics ok ({len(families)} families strictly parsed, "
          f"queue-wait count {count:.0f})")


def main() -> int:
    print("starting `python -m repro serve --port 0` ...")
    process, url = start_server()
    try:
        client = ReproClient(url)
        assert client.healthz()["ok"]
        print(f"  serving at {url}")
        check_trace_surface(client, url)
        check_metrics_surface(client)
        client.shutdown(drain=True)
    except BaseException:
        process.kill()
        raise
    finally:
        trace.disable()
    returncode = process.wait(timeout=30)
    assert returncode == 0, f"server exited with {returncode}"
    print("  clean shutdown (exit 0)")
    print("obs smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
