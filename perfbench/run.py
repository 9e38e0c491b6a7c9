#!/usr/bin/env python3
"""The repository benchmark: cold compile, what-if loop and service mix.

Run from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload whatif --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` alternates traced and untraced segments of the timed phase (the
seed's parity picks which comes first), prints the per-layer table (calls, busy and self seconds per layer, from
wrappers around each layer's public functions, see ``layers.py``) and
reports the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the metric names
and units are the ones listed in ``BENCHMARK.json``.

Each run is a fresh process tree: this script measures set-up time as the
wall time from starting a child interpreter until it reports ready (the
median over several such starts, except for ``whatif`` whose set-up
characterizes three design spaces), and the child measures the timed phase
and its own peak resident memory.  ``service_mix``'s HTTP clients run in a
load-generator process of their own.  The workloads and their reference
digests live in ``workloads.py`` and ``reference/``; ``predictions.json``
names the end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Per-layer metric -> the end-to-end metric and workload it should move.
PREDICTIONS_PATH = BENCH_DIR / "predictions.json"
#: Set-ups measured in boot-only processes before the measured one (the
#: measured process's own set-up is one more sample).  ``whatif``'s set-up
#: characterizes three design spaces, so it is measured once per run.
EXTRA_BOOTS = {"paper_cold": 2, "whatif": 0, "service_mix": 2}
CHILD_TIMEOUT_S = 170.0


def load_json(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank-interpolated percentile; the value itself for n == 1."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


# ---------------------------------------------------------------------- #
# child process: set up, report ready, run the timed phase


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as bench  # noqa: E402  (imports the program)

    if args.child == "loadgen":
        return bench.loadgen_main(args.url, args.seed, args.tiny)
    workload = bench.WORKLOADS[args.workload]
    state = workload.boot(args.tiny)
    state["tiny"] = args.tiny
    print("READY", flush=True)
    try:
        if args.child == "run":
            report = measure(bench, workload, state, args)
            print("RESULT " + json.dumps(report), flush=True)
    finally:
        workload.shutdown(state)
    return 0


def measure(bench, workload, state, args) -> Dict[str, Any]:
    requests = workload.inputs(args.seed, args.tiny)
    workload.prepare(state, args.seed)
    ops: List[Any] = []
    lock = threading.Lock()
    segment_of: List[str] = []

    def run_segment(label: str, seconds: float, pending) -> float:
        def record(op) -> None:
            with lock:
                ops.append(op)
                segment_of.append(label)

        started = time.perf_counter()
        workload.run_ops(state, pending, seconds, record)
        return time.perf_counter() - started

    if args.trace:
        workload.warm_up(state)
    before = counters(workload.name, state)
    waits_before = len(state.get("queue_waits", ()))
    pending = iter(requests)
    report: Dict[str, Any] = {
        "inputs": bench.digest(requests[:200]),
    }
    if not args.trace:
        report["run_s"] = run_segment("U", args.seconds, pending)
    else:
        from layers import Tracer

        tracer = Tracer()
        leftovers: List[str] = []
        segments = workload.segments_traced
        if args.seed % 2:
            # the seed picks which side goes first, so drift within a run
            # favours neither side of the median over runs
            segments = segments[::-1]
        run_s = 0.0
        for label in segments:
            if label == "T":
                tracer.install()
            try:
                run_s += run_segment(label, args.seconds / len(segments),
                                     pending)
            finally:
                if label == "T":
                    leftovers += tracer.remove()
        report["run_s"] = run_s
        report["layers"] = layer_report(tracer, workload.name, leftovers)
    after = counters(workload.name, state)
    report["counters"] = {name: after[name] - before.get(name, 0)
                          for name in after}
    report["queue_waits"] = list(state.get("queue_waits", ()))[waits_before:]
    # outputs are checked only now: on tiny sizes the references are
    # computed through a direct Session, which must not warm the caches
    # the timed phase uses
    references = workload.references(args.tiny)
    report["ops"] = [[op.kind, op.latency_s, check(op, references, bench),
                      op.error, segment]
                     for op, segment in zip(ops, segment_of)]
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    return report


def check(op, references, bench) -> bool:
    """No exception, and every output digest equals its reference."""
    if op.error:
        return False
    mismatched = [key for key, value in op.digests
                  if bench.reference_for(references, key) != value]
    if mismatched:
        op.error = f"digest mismatch: {mismatched[0]}"
    return not mismatched and bool(op.digests)


def counters(name: str, state: Dict[str, Any]) -> Dict[str, float]:
    """Cumulative counters read from the program's public stats()."""
    totals: Dict[str, float] = {}
    if name == "service_mix":
        stats = state["router"].stats()
        aggregate = stats["aggregate"]
        totals["fleet.shed"] = stats["router"]["shed"]
        totals["submitted"] = aggregate["submitted"]
        totals["coalesced"] = aggregate["coalesced"]
        batches = dispatched = 0
        for worker, entry in stats["workers"].items():
            totals[f"routed.{worker}"] = entry["jobs_routed"]
            worker_stats = entry["stats"] or {}
            scheduler = worker_stats.get("scheduler", {})
            batches += scheduler.get("batches", 0)
            dispatched += (scheduler.get("mean_batch_size", 0.0)
                           * scheduler.get("batches", 0))
            session = worker_stats.get("session", {})
            for key in ("characterization_cache_hits",
                        "characterization_cache_misses",
                        "store_disk_hits", "store_writes"):
                totals[key] = totals.get(key, 0) + session.get(key, 0)
        totals["batches"] = batches
        totals["dispatched"] = dispatched
        return totals
    session_stats = (state["session"].stats.to_dict() if "session" in state
                     else state.get("session_totals", {}))
    for key in ("characterization_cache_hits", "characterization_cache_misses",
                "store_disk_hits", "store_writes"):
        totals[key] = session_stats.get(key, 0)
    return totals


def layer_report(tracer, workload: str, leftovers: List[str]
                 ) -> Dict[str, Any]:
    return {
        "summary": tracer.summary(),
        "layer_self": tracer.layer_self(),
        "counts": dict(tracer.counts),
        "uncovered": tracer.uncovered(workload),
        "missing": list(tracer.missing),
        "leftovers": leftovers,
        "count_errors": sorted(set(tracer.count_errors)),
    }


# ---------------------------------------------------------------------- #
# parent process: set-up samples, the measured child, the result line


def spawn(args: argparse.Namespace, role: str) -> subprocess.Popen:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", role, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    env = dict(os.environ)
    env["TMPDIR"] = str(ROOT / ".perfbench_tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return subprocess.Popen(command, cwd=str(ROOT), env=env,
                            stdout=subprocess.PIPE, text=True)


def run_child(args: argparse.Namespace, role: str):
    """Start a child; return (seconds until READY, RESULT payload or None)."""
    started = time.perf_counter()
    process = spawn(args, role)
    ready: Optional[float] = None
    result = None
    timer = threading.Timer(CHILD_TIMEOUT_S, process.kill)
    timer.start()
    try:
        for line in process.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = process.wait()
    finally:
        timer.cancel()
        process.stdout.close()
    if code != 0 or ready is None or (role == "run" and result is None):
        raise SystemExit(f"perfbench: {role} process for {args.workload} "
                         f"failed (exit code {code})")
    return ready, result


def end_to_end(report: Dict[str, Any], setups: List[float]
               ) -> Dict[str, float]:
    primary = [op[1] for op in report["ops"] if op[0] == "op"]
    return {
        "setup_s": statistics.median(setups),
        "run_s": report["run_s"],
        "ops_per_s": len(report["ops"]) / report["run_s"],
        "op_p50_ms": 1000.0 * percentile(primary, 0.5),
        "op_p90_ms": 1000.0 * percentile(primary, 0.9),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def class_p50_ms(report: Dict[str, Any], kind: str, segment: str = "U"
                 ) -> float:
    values = [op[1] for op in report["ops"]
              if op[0] == kind and op[4] == segment]
    return 1000.0 * statistics.median(values) if values else 0.0


def per_layer(report: Dict[str, Any]) -> Dict[str, float]:
    layers = report["layers"]
    summary = layers["summary"]
    counts = layers["counts"]
    counters = report["counters"]

    def row(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    traced = [op[1] for op in report["ops"] if op[0] == "op" and op[4] == "T"]
    untraced = [op[1] for op in report["ops"]
                if op[0] == "op" and op[4] == "U"]
    costed = counts.get("dse.rows_costed", 0)
    hits = counters.get("characterization_cache_hits", 0)
    submitted = counters.get("submitted", 0)
    routed = [value for key, value in counters.items()
              if key.startswith("routed.")]
    waits = report["queue_waits"]
    metrics = {
        "symbolic.build_calls": row("symbolic.build", "calls"),
        "symbolic.build_s": row("symbolic.build", "busy_s"),
        "symbolic.registers": counts.get("symbolic.registers", 0),
        "symbolic.operations": counts.get("symbolic.operations", 0),
        "ir.lower_calls": row("ir.lower", "calls"),
        "ir.lower_s": row("ir.lower", "busy_s"),
        "ir.dfg_nodes": counts.get("ir.dfg_nodes", 0),
        "synth.runs": row("synth.synthesize", "calls"),
        "synth.busy_s": row("synth.synthesize", "busy_s"),
        "estimation.calibrate_s": (row("estimation.calibrate", "busy_s")
                                   + row("estimation.estimate_series",
                                         "busy_s")),
        "estimation.throughput_batch_calls": row(
            "estimation.throughput_batch", "calls"),
        "estimation.throughput_batch_s": row("estimation.throughput_batch",
                                             "busy_s"),
        "dse.explore_self_s": row("dse.explore", "self_s"),
        "dse.columnar_s": row("dse.columnar", "busy_s"),
        "dse.stream_s": row("dse.stream", "busy_s"),
        "dse.pareto_s": row("dse.pareto", "busy_s"),
        "dse.rows_costed": costed,
        "dse.rows_pruned": counts.get("dse.rows_pruned", 0),
        "dse.admitted_ratio": (counts.get("dse.rows_admitted", 0) / costed
                               if costed else 0.0),
        "codegen.calls": row("codegen.generate", "calls"),
        "codegen.busy_s": row("codegen.generate", "busy_s"),
        "codegen.vhdl_bytes": counts.get("codegen.vhdl_bytes", 0),
        "simulation.validate_calls": row("simulation.validate", "calls"),
        "simulation.validate_s": row("simulation.validate", "busy_s"),
        "simulation.pixels": counts.get("simulation.pixels", 0),
        "frontend.resolve_s": row("frontend.resolve", "busy_s"),
        "api.char_cache_hits": hits,
        "api.char_cache_misses": counters.get(
            "characterization_cache_misses", 0),
        "api.store_disk_hits": counters.get("store_disk_hits", 0),
        "api.store_writes": counters.get("store_writes", 0),
        "api.serialize_s": row("api.serialize", "busy_s"),
        "service.queue_wait_p50_ms": (1000.0 * statistics.median(waits)
                                      if waits else 0.0),
        "service.coalesce_hit_rate": (counters.get("coalesced", 0)
                                      / submitted if submitted else 0.0),
        "service.batch_size_mean": (counters.get("dispatched", 0)
                                    / counters["batches"]
                                    if counters.get("batches") else 0.0),
        "fleet.route_s": row("fleet.route", "busy_s"),
        "fleet.shed": counters.get("fleet.shed", 0),
        "fleet.placement_max_share": (max(routed) / sum(routed)
                                      if routed and sum(routed) else 0.0),
        "obs.trace_overhead": (statistics.median(traced)
                               / statistics.median(untraced) - 1.0
                               if traced and untraced else 0.0),
        "stream_op_p50_ms": class_p50_ms(report, "stream"),
        "validate_op_p50_ms": class_p50_ms(report, "validate"),
    }
    for layer, seconds in layers["layer_self"].items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics


def predictions(workload: str, metrics: Dict[str, float]) -> List[str]:
    """The issue-time predictions about the layer table, checked."""
    layer_self = {name[:-len(".self_s")]: value
                  for name, value in metrics.items()
                  if name.endswith(".self_s")}
    top = max(layer_self, key=layer_self.get)
    checks = []
    if workload == "paper_cold":
        checks.append(("symbolic has the largest self time",
                       top == "symbolic"))
    elif workload == "whatif":
        combined = layer_self["dse"] + layer_self["estimation"]
        others = max(value for name, value in layer_self.items()
                     if name not in ("dse", "estimation"))
        checks.append(("dse + estimation has the largest self time",
                       combined > others))
        checks.append(("zero symbolic.build_calls",
                       metrics["symbolic.build_calls"] == 0))
        checks.append(("zero synth.runs", metrics["synth.runs"] == 0))
    elif workload == "service_mix":
        checks.append(("simulation.validate_calls above zero",
                       metrics["simulation.validate_calls"] > 0))
    return [f"prediction {'held' if held else 'FAILED'}: {text}"
            for text, held in checks]


def print_layer_table(report: Dict[str, Any]) -> None:
    summary = report["layers"]["summary"]
    total = sum(row["self_s"] for row in summary.values()) or 1.0
    print(f"{'span':28s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s} "
          f"{'self%':>6s}")
    for name in sorted(summary):
        row = summary[name]
        print(f"{name:28s} {row['calls']:8d} {row['busy_s']:10.4f} "
              f"{row['self_s']:10.4f} {100 * row['self_s'] / total:6.1f}")
    print(f"{'layer':28s} {'':8s} {'':10s} {'self_s':>10s} {'self%':>6s}")
    for layer, seconds in report["layers"]["layer_self"].items():
        print(f"{layer:28s} {'':8s} {'':10s} {seconds:10.4f} "
              f"{100 * seconds / total:6.1f}")


def parent_main(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_json(SPEC_PATH)
    setups = [run_child(args, "boot")[0]
              for _ in range(EXTRA_BOOTS[args.workload])]
    ready, report = run_child(args, "run")
    setups.append(ready)

    ops = report["ops"]
    failed = sum(1 for op in ops if not op[2])
    errors = sorted({op[3] for op in ops if op[3]})
    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds} trace {args.trace}")
    print(f"inputs {report['inputs']}")
    for kind in ("op", "stream", "validate"):
        count = sum(1 for op in ops if op[0] == kind)
        if count:
            print(f"ops[{kind}] n={count}")
    print(f"failed_fraction {failed}/{len(ops)} = "
          f"{failed / max(1, len(ops)):.4f}")
    for error in errors[:5]:
        print(f"error: {error}")
    correct = failed == 0 and len(ops) > 0
    if args.trace:
        names = spec["per_layer"]
        metrics = per_layer(report)
        print_layer_table(report)
        layers = report["layers"]
        guard = ([f"zero calls on {args.workload}: {label}"
                  for label in layers["uncovered"]]
                 + [f"wrapper left installed: {label}"
                    for label in layers["leftovers"]]
                 + [f"count hook raised: {text}"
                    for text in layers["count_errors"]])
        for line in guard:
            print(f"coverage guard FAILED: {line}")
        if layers["missing"]:
            print("not wrapped (absent): " + ", ".join(layers["missing"]))
        for line in predictions(args.workload, metrics):
            print(line)
        correct = correct and not guard
    else:
        names = spec["end_to_end"]
        metrics = end_to_end(report, setups)
        print(f"setup samples {', '.join(f'{s:.3f}' for s in setups)}")
        for kind, label in (("stream", "stream_op_p50_ms"),
                            ("validate", "validate_op_p50_ms")):
            if any(op[0] == kind for op in ops):
                print(f"{label} {class_p50_ms(report, kind):.3f} ms")
    predicted = load_json(PREDICTIONS_PATH) if args.trace else {}
    result = {}
    for entry in names:
        value = metrics[entry["name"]]
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        line = f"{entry['name']:36s} {value:14.6f} {entry['unit']}"
        if entry["name"] in predicted:
            target = predicted[entry["name"]]
            line += f"  [{target['workload']}: {target['moves']}]"
        print(line)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": result}))
    return 0


# ---------------------------------------------------------------------- #
# self-test on tiny knobs


def selftest() -> int:
    """Tiny-knob runs of every workload: every named metric is emitted with
    its unit, and another seed changes the inputs but not the names."""
    spec = load_json(SPEC_PATH)
    problems = []
    layer_names = {item["name"] for item in spec["per_layer"]}
    if set(load_json(PREDICTIONS_PATH)) != layer_names:
        problems.append("predictions.json does not cover exactly the "
                        "per_layer metrics")
    for entry in spec["workloads"]:
        workload = entry["name"]
        seen = {}
        # paper_cold's seed only picks which kernel order comes first:
        # these two seeds pick different ones
        for seed, trace in ((11, 0), (14, 0), (11, 1)):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace), "--tiny"]
            output = subprocess.run(command, cwd=str(ROOT), text=True,
                                    capture_output=True, timeout=600)
            lines = output.stdout.strip().splitlines()
            if output.returncode != 0 or not lines:
                problems.append(f"{workload} seed {seed} trace {trace}: "
                                f"exit {output.returncode}\n{output.stderr}")
                continue
            result = json.loads(lines[-1])
            inputs = next(line.split()[1] for line in lines
                          if line.startswith("inputs "))
            expected = spec["per_layer" if trace else "end_to_end"]
            want = {item["name"]: item["unit"] for item in expected}
            got = {name: value["unit"]
                   for name, value in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: result keys {sorted(result)}")
            if got != want:
                problems.append(f"{workload} trace {trace}: metric names or "
                                f"units differ: {sorted(set(got) ^ set(want))}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} seed {seed} trace {trace}: "
                                "not correct\n"
                                + "\n".join(lines[:-1][-12:]))
            seen[(seed, trace)] = (inputs, sorted(got))
        if len(seen) == 3:
            if seen[(11, 0)][0] == seen[(14, 0)][0]:
                problems.append(f"{workload}: seeds 11 and 14 gave the same "
                                "inputs")
            if seen[(11, 0)][1] != seen[(14, 0)][1]:
                problems.append(f"{workload}: metric names depend on seed")
            if seen[(11, 0)][0] != seen[(11, 1)][0]:
                problems.append(f"{workload}: tracing changed the inputs")
        print(f"selftest {workload}: "
              f"{'ok' if not problems else 'problems so far'}")
    for problem in problems:
        print(f"selftest FAILED: {problem}")
    return 1 if problems else 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("paper_cold", "whatif", "service_mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny knobs (self-test sizes)")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--child", choices=("boot", "run", "loadgen"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--url", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    return args


def main() -> int:
    args = parse_args()
    if args.selftest:
        return selftest()
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
