#!/usr/bin/env python
"""Benchmark runner: execute the ``benchmarks/bench_*`` workloads through the
batch API and emit a ``BENCH_<date>.json`` perf snapshot.

Each bench module times one stage of a Section-4 experiment; the expensive
shared artifact behind them is the full design-space exploration of each case
study.  This runner drives those explorations through
:meth:`repro.api.Session.run_many` (so characterizations are shared the way a
production deployment would share them) and records wall time and
synthesizer accounting per workload.  The emitted snapshot gives future
changes a trajectory to compare against.

Usage::

    PYTHONPATH=src python scripts/bench.py            # writes BENCH_<date>.json
    PYTHONPATH=src python scripts/bench.py -o out.json --pytest
    PYTHONPATH=src python scripts/bench.py --store /tmp/repro-store

``--pytest`` additionally runs the pytest benchmark suite itself (slower;
wall time is recorded in the snapshot under ``pytest_suite``).  ``--store``
runs the batch twice against a persistent :class:`repro.api.ArtifactStore`
directory and records the cold-vs-warm comparison under ``store_demo`` (the
warm pass must perform zero synthesis runs).

The snapshot also records a ``service_throughput`` section (skip with
``--skip-service``): a 16-job burst (4 unique device/format scenarios, 4
concurrent submitters each) through the in-process exploration service
(:mod:`repro.service`), recording jobs/s and the coalesce hit-rate.

And a ``fleet_throughput`` section (skip with ``--skip-fleet``): the same
burst through a 3-worker consistent-hash fleet (:mod:`repro.fleet`) with
deliberately tight per-worker queues, recording jobs/s, the shed count,
and the placement distribution the hash ring produced.

And a ``floored_stream`` section: the million-candidate blur space
streamed under an fps floor, recording the wall, the rows the
throughput-side suffix pushdown pruned, the pruned fraction in total and
the peak RSS.

And an ``obs_overhead`` section (skip with ``--skip-obs``): the 4 unique
service-burst scenarios run through one ``run_many`` batch with tracing
off and again with tracing on (full span recording into a
:class:`repro.obs.trace.TraceStore` under a root span), recording both
walls and the relative overhead.  The section *asserts* the subsystem's
two headline guarantees — the traced and untraced result digests are
byte-identical, and the overhead stays under 5% — and raises if either
fails, so a recorded section is the proof.

And a ``simulation_throughput`` section (skip with ``--skip-sim``): a
640x480 blur frame pushed through the vectorized
:class:`repro.simulation.FunctionalConeSimulator` and through the
preserved scalar tile loop, with pixels/s for both paths, the speedup,
and a digest check proving the two produce bit-identical output frames.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import glob
import json
import os
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.api import Session, Workload  # noqa: E402
from repro.ir.operators import DataFormat  # noqa: E402

#: Frame size used throughout Section 4 of the paper.
FRAME = (1024, 768)

#: The explorations the figure/section benches are built on, exercised
#: through the batch API exactly as ``benchmarks/_support.make_explorer``
#: configures them.
WORKLOADS = {
    "igf": Workload.from_algorithm(
        "blur", data_format=DataFormat.FIXED16, iterations=10,
        frame_width=FRAME[0], frame_height=FRAME[1],
        window_sides=(1, 2, 3, 4, 5, 6, 7, 8, 9), max_depth=5,
        max_cones_per_depth=16, synthesize_all=True),
    "chambolle": Workload.from_algorithm(
        "chamb", data_format=DataFormat.FIXED16, iterations=11,
        frame_width=FRAME[0], frame_height=FRAME[1],
        window_sides=(1, 2, 3, 4, 5, 6, 7, 8, 9), max_depth=5,
        max_cones_per_depth=16, synthesize_all=True),
}


def run_batch(store=None) -> dict:
    """Run every bench workload through one session; return the snapshot body."""
    names = list(WORKLOADS)
    workloads = [WORKLOADS[name] for name in names]
    wall_by_workload = {}

    def observe(event):
        if event.kind == "workload-finished":
            wall_by_workload[event.workload] = event.elapsed_s

    session = Session(on_event=observe, store=store)

    per_workload = {}
    started = time.perf_counter()
    results = session.run_many(workloads)
    batch_wall_s = time.perf_counter() - started

    for name, workload, result in zip(names, workloads, results):
        exploration = result.exploration
        per_workload[name] = {
            "kernel": workload.name,
            "device": workload.device.name,
            "frame": [workload.frame_width, workload.frame_height],
            "iterations": workload.iterations,
            "wall_time_s": wall_by_workload.get(workload, 0.0),
            "design_points": len(exploration.design_points),
            "pareto_points": len(exploration.pareto),
            "synthesis_runs": exploration.synthesis_runs,
            "synthesis_runs_avoided": exploration.synthesis_runs_avoided,
            "tool_runtime_spent_s": exploration.tool_runtime_spent_s,
            "tool_runtime_avoided_s": exploration.tool_runtime_avoided_s,
        }

    stats = session.stats
    return {
        "wall_time_s": batch_wall_s,
        "session": stats.to_dict(),
        "workloads": per_workload,
    }


#: The service-throughput burst: 4 distinct scenario workloads (devices x
#: formats over one kernel family) each submitted 4 times by concurrent
#: clients — 16 jobs, 12 of which should coalesce or batch away.
def _service_burst():
    from repro.ir.operators import DataFormat

    scenarios = [
        Workload.from_algorithm(
            "blur", device=device, data_format=data_format, iterations=6,
            frame_width=640, frame_height=480, window_sides=(1, 2, 3, 4),
            max_depth=3, max_cones_per_depth=6)
        for device in ("xc6vlx760", "xc2vp30")
        for data_format in (DataFormat.FIXED16, DataFormat.FIXED32)
    ]
    return [scenario for scenario in scenarios for _ in range(4)]


def run_service_throughput() -> dict:
    """Drive a concurrent burst through the exploration service.

    16 jobs (4 unique device/format scenarios x 4 duplicate submitters)
    land on a paused in-process :class:`repro.service.ReproServer` from 16
    threads, then the scheduler is released: duplicates coalesce onto one
    job each and the scheduler runs the 4 unique scenarios one at a time.
    Records jobs/s and the coalesce hit-rate.
    """
    import threading

    from repro.service import ReproClient, ReproServer

    burst = _service_burst()
    server = ReproServer(start=False)
    client = ReproClient(server)
    handles = []
    lock = threading.Lock()
    barrier = threading.Barrier(len(burst))

    def submit(workload):
        barrier.wait()
        handle = client.submit(workload)
        with lock:
            handles.append(handle)

    threads = [threading.Thread(target=submit, args=(workload,))
               for workload in burst]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    server.start()
    for handle in handles:
        handle.result(timeout=600)
    wall_s = time.perf_counter() - started
    stats = server.stats()
    server.close()
    jobs_per_s = len(burst) / wall_s if wall_s > 0 else None
    print(f"    {len(burst)} jobs in {wall_s:.2f}s "
          f"({jobs_per_s:.1f} jobs/s), coalesce hit-rate "
          f"{stats['queue']['coalesce_hit_rate']:.2f}")
    return {
        "transport": "in-process",
        "jobs": len(burst),
        "unique_workloads": len(set(burst)),
        "wall_s": wall_s,
        "jobs_per_s": jobs_per_s,
        "coalesce_hits": stats["queue"]["coalesced"],
        "coalesce_hit_rate": stats["queue"]["coalesce_hit_rate"],
        "session_synthesis_runs": stats["session"]["synthesis_runs"],
    }


def run_fleet_throughput() -> dict:
    """Drive the service burst through a consistent-hash routed fleet.

    The same 16-job burst as ``service_throughput`` lands on a 3-worker
    :class:`repro.fleet.FleetRouter` with deliberately tight per-worker
    queues (``max_pending=2``) from 16 concurrent submitters using the
    retrying client, so any shed 503 is absorbed by backoff and every
    job still completes.  Records jobs/s, the shed count, and the
    placement distribution the hash ring produced across the workers.
    """
    import threading

    from repro.fleet import FleetRouter
    from repro.service import ReproClient

    burst = _service_burst()
    router = FleetRouter.local(3, max_pending=2)
    client = ReproClient(router, retries=8, backoff_base_s=0.05,
                         backoff_cap_s=0.5, retry_jitter_seed=13)
    handles = []
    lock = threading.Lock()
    barrier = threading.Barrier(len(burst))

    def submit(workload):
        barrier.wait()
        handle = client.submit(workload)
        with lock:
            handles.append(handle)

    threads = [threading.Thread(target=submit, args=(workload,))
               for workload in burst]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for handle in handles:
        handle.result(timeout=600)
    wall_s = time.perf_counter() - started
    stats = router.stats()
    router.close()

    placement = {name: entry["jobs_routed"]
                 for name, entry in stats["workers"].items()}
    jobs_per_s = len(burst) / wall_s if wall_s > 0 else None
    print(f"    {len(burst)} jobs in {wall_s:.2f}s "
          f"({jobs_per_s:.1f} jobs/s), shed "
          f"{stats['router']['shed']}, placement {placement}")
    return {
        "workers": len(placement),
        "jobs": len(burst),
        "unique_workloads": len(set(burst)),
        "wall_s": wall_s,
        "jobs_per_s": jobs_per_s,
        "routed": stats["router"]["routed"],
        "shed": stats["router"]["shed"],
        "failovers": stats["router"]["failovers"],
        "replays": stats["router"]["replays"],
        "placement": placement,
        "coalesce_hits": stats["aggregate"]["coalesced"],
        "session_synthesis_runs": stats["aggregate"]["synthesis_runs"],
    }


def run_obs_overhead(repeats=3, max_overhead=0.05) -> dict:
    """Measure the cost of full tracing on an exploration batch.

    The 4 unique service-burst scenarios run through ``run_many`` with
    the recorder off and again with every span recorded into a dedicated
    :class:`~repro.obs.trace.TraceStore` under a root span — the
    heaviest-instrumented path (batch + session + stage spans per
    workload).  One untimed warmup pass warms the process-global shared
    tables so both timed passes pay only exploration; each pass is timed
    ``repeats`` times and the best wall recorded.  Raises if the traced
    and untraced result digests diverge or the overhead reaches
    ``max_overhead`` — the subsystem's ~zero-cost-disabled and
    bit-neutrality guarantees are asserted, not just reported.
    """
    import hashlib

    from repro.obs import trace as obs_trace

    workloads = list(dict.fromkeys(_service_burst()))

    def digest(results):
        return hashlib.sha256(json.dumps(
            [result.to_dict() for result in results],
            sort_keys=True).encode("utf-8")).hexdigest()

    def run_once():
        return Session().run_many(workloads)

    run_once()  # warmup: shared characterization tables, not timed

    def best_wall(run):
        wall, digests = float("inf"), set()
        for _ in range(repeats):
            started = time.perf_counter()
            results = run()
            wall = min(wall, time.perf_counter() - started)
            digests.add(digest(results))
        return wall, digests

    untraced_wall, untraced_digests = best_wall(run_once)

    store = obs_trace.TraceStore(max_traces=4096)
    spans_recorded = 0

    def run_traced():
        nonlocal spans_recorded
        obs_trace.enable(store)
        try:
            with obs_trace.span("bench.batch"):
                return run_once()
        finally:
            obs_trace.disable()
            spans_recorded = store.stats_snapshot()["spans_added"]

    traced_wall, traced_digests = best_wall(run_traced)

    if traced_digests != untraced_digests or len(untraced_digests) != 1:
        raise RuntimeError(
            f"tracing changed the results: untraced {untraced_digests} "
            f"vs traced {traced_digests}")
    overhead = ((traced_wall - untraced_wall) / untraced_wall
                if untraced_wall > 0 else 0.0)
    print(f"    untraced {untraced_wall * 1e3:8.2f} ms")
    print(f"    traced   {traced_wall * 1e3:8.2f} ms  "
          f"({overhead:+.2%} overhead, {spans_recorded} spans, "
          f"identical results: True)")
    if overhead >= max_overhead:
        raise RuntimeError(
            f"tracing overhead {overhead:.2%} breaches the "
            f"{max_overhead:.0%} budget")
    return {
        "workloads": len(workloads),
        "repeats": repeats,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "overhead": overhead,
        "max_overhead": max_overhead,
        "spans_recorded": spans_recorded,
        "result_digest": sorted(untraced_digests)[0],
        "results_identical": True,
    }


def run_simulation_throughput(height=480, width=640, iterations=6,
                              window_side=6, repeats=3) -> dict:
    """Time the vectorized simulator against the preserved scalar tile loop.

    One VGA blur frame (the paper's IGF kernel) runs through
    ``FunctionalConeSimulator.run`` and through ``run_scalar`` in region
    mode.  Cone expressions are built once up
    front and shared, so the timings isolate tile evaluation — the phase
    the vectorized path turns into whole-array NumPy ops.  Each path is
    timed ``repeats`` times and the best wall is recorded; the digest
    check asserts the headline guarantee that both paths produce
    bit-identical frames.
    """
    import hashlib

    from repro.algorithms.registry import get_algorithm
    from repro.simulation import FrameSet, FunctionalConeSimulator

    kernel = get_algorithm("blur").kernel()
    simulator = FunctionalConeSimulator(kernel)
    frames = FrameSet.for_kernel(kernel, height, width, seed=0)
    simulator._cone(window_side, iterations)  # shared, not timed

    def digest(result):
        payload = hashlib.sha256()
        for name in sorted(result.names()):
            payload.update(result[name].data.tobytes())
        return payload.hexdigest()

    def best_wall(simulate):
        wall, digests = float("inf"), set()
        for _ in range(repeats):
            started = time.perf_counter()
            result = simulate()
            wall = min(wall, time.perf_counter() - started)
            digests.add(digest(result))
        return wall, digests

    vector_wall, vector_digests = best_wall(
        lambda: simulator.run(frames, iterations, window_side, mode="region"))
    scalar_wall, scalar_digests = best_wall(
        lambda: simulator.run_scalar(frames, iterations, window_side,
                                     mode="region"))

    identical = vector_digests == scalar_digests and len(vector_digests) == 1
    speedup = scalar_wall / vector_wall if vector_wall > 0 else None
    pixels = height * width
    if not identical:
        print("  WARNING: vectorized and scalar simulations disagreed!",
              file=sys.stderr)
    print(f"    scalar      {scalar_wall * 1e3:8.2f} ms "
          f"({pixels / scalar_wall:,.0f} px/s)")
    print(f"    vectorized  {vector_wall * 1e3:8.2f} ms "
          f"({pixels / vector_wall:,.0f} px/s, {speedup:.2f}x, "
          f"identical results: {identical})")
    return {
        "kernel": kernel.name,
        "frame": [width, height],
        "iterations": iterations,
        "window_side": window_side,
        "mode": "region",
        "repeats": repeats,
        "scalar_wall_s": scalar_wall,
        "vectorized_wall_s": vector_wall,
        "scalar_pixels_per_s": pixels / scalar_wall,
        "vectorized_pixels_per_s": pixels / vector_wall,
        "speedup": speedup,
        "result_digest": sorted(vector_digests)[0],
        "results_identical": identical,
    }


def run_large_space(max_cones=23_000, rss_ceiling_mb=512.0) -> dict:
    """Stream a million-candidate space out of core and record the cost.

    Runs ``scripts/large_smoke.py`` in a fresh subprocess so
    ``ru_maxrss`` measures the streaming exploration alone — the bench
    process itself has already materialized paper-scale tables.  The
    default ``max_cones`` widens the blur space's instance-count axis to
    9 windows x 5 splits x 23,000 counts = 1,035,000 candidates; the
    subprocess fails (and so does this section) if the peak RSS exceeds
    the ceiling.  Records candidates/s, the pruned-before-costing
    fraction, and the bounded frontier/chunk peaks.
    """
    completed = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "scripts",
                                      "large_smoke.py"),
         "--skip-digest", "--json", "--max-cones", str(max_cones),
         "--min-rows", "1000000", "--rss-ceiling-mb", str(rss_ceiling_mb)],
        capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(f"large-space smoke failed:\n{completed.stdout}"
                           f"\n{completed.stderr}")
    metrics = json.loads(completed.stdout)
    print(f"    {metrics['space_rows']:,} candidates at "
          f"{metrics['candidates_per_s']:,.0f}/s, "
          f"{metrics['pruned_fraction']:.1%} pruned before costing, "
          f"peak RSS {metrics['peak_rss_mb']} MB "
          f"(ceiling {rss_ceiling_mb} MB)")
    return metrics


def run_floored_stream(max_cones=23_000, rss_ceiling_mb=512.0,
                       min_fps=30.0) -> dict:
    """Streamed exploration of the million-candidate space under an fps floor.

    One ``scripts/large_smoke.py`` subprocess streams the
    million-candidate blur space under a frames-per-second floor, so the
    throughput-side suffix pushdown engages on top of the area-side
    pruning.  The subprocess fails on an RSS-ceiling breach.
    """
    completed = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "scripts",
                                      "large_smoke.py"),
         "--skip-digest", "--json", "--max-cones", str(max_cones),
         "--min-rows", "1000000", "--rss-ceiling-mb", str(rss_ceiling_mb),
         "--min-fps", str(min_fps)],
        capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(f"floored-stream smoke failed:\n"
                           f"{completed.stdout}\n{completed.stderr}")
    metrics = json.loads(completed.stdout)
    print(f"    {metrics['elapsed_s']}s; fps floor {min_fps} pruned "
          f"{metrics['throughput_pruned_rows']:,} rows throughput-side "
          f"({metrics['pruned_fraction']:.2%} pruned in total), "
          f"peak RSS {metrics['peak_rss_mb']} MB")
    return {
        "space_rows": metrics["space_rows"],
        "min_fps": min_fps,
        "wall_s": metrics["elapsed_s"],
        "admitted_rows": metrics["admitted_rows"],
        "pruned_rows": metrics["pruned_rows"],
        "throughput_pruned_rows": metrics["throughput_pruned_rows"],
        "pruned_fraction": metrics["pruned_fraction"],
        "peak_rss_mb": metrics["peak_rss_mb"],
    }


def run_pytest_suite() -> dict:
    """Optionally run the pytest benchmark suite and time it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    # bench_*.py does not match pytest's default file pattern, so pass the
    # module files explicitly.
    modules = sorted(glob.glob(os.path.join(REPO_ROOT, "benchmarks",
                                            "bench_*.py")))
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *modules],
        env=env, cwd=os.path.join(REPO_ROOT, "benchmarks"),
        capture_output=True, text=True)
    return {
        "wall_time_s": time.perf_counter() - started,
        "returncode": completed.returncode,
        "tail": completed.stdout.strip().splitlines()[-3:],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=None,
                        help="snapshot path (default: BENCH_<date>.json in "
                             "the repo root)")
    parser.add_argument("--pytest", action="store_true",
                        help="also run the pytest benchmark suite")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="run the batch twice against a persistent "
                             "artifact store under DIR and record the "
                             "cold-vs-warm comparison (DIR is CLEARED "
                             "first so the cold numbers are honest)")
    parser.add_argument("--skip-service", action="store_true",
                        help="skip the exploration-service throughput "
                             "burst (jobs/s, coalesce hit-rate, batch "
                             "sizes)")
    parser.add_argument("--skip-fleet", action="store_true",
                        help="skip the fleet throughput burst (jobs/s, "
                             "shed count, placement distribution)")
    parser.add_argument("--skip-obs", action="store_true",
                        help="skip the tracing-overhead benchmark "
                             "(untraced vs traced walls, digest "
                             "identity, <5%% budget)")
    parser.add_argument("--skip-sim", action="store_true",
                        help="skip the vectorized-vs-scalar simulation "
                             "throughput benchmark (pixels/s, speedup, "
                             "digest identity)")
    parser.add_argument("--skip-large-space", action="store_true",
                        help="skip the million-candidate out-of-core "
                             "streaming benchmark (candidates/s, peak "
                             "RSS, pruned fraction)")
    args = parser.parse_args(argv)

    if args.store:
        # the snapshot's primary numbers double as the cold pass, so a
        # pre-populated store would silently record warm timings as cold
        from repro.api import ArtifactStore
        stale = ArtifactStore(args.store).clear()
        if stale:
            print(f"cleared {stale} stale artifact(s) from {args.store} "
                  f"so the cold pass is cold")

    print(f"running {len(WORKLOADS)} bench workloads through the batch API...")
    batch = run_batch(store=args.store)
    print(f"  batch wall time : {batch['wall_time_s']:.2f}s")
    print(f"  synthesis runs  : {batch['session']['synthesis_runs']}")
    print(f"  tool time saved : "
          f"~{batch['session']['tool_runtime_avoided_s']:.0f}s")

    snapshot = {
        "date": _dt.date.today().isoformat(),
        "python": sys.version.split()[0],
        **batch,
    }

    if args.store:
        print("rerunning the batch against the warm store...")
        warm = run_batch(store=args.store)
        snapshot["store_demo"] = {
            "dir": os.path.abspath(args.store),
            "cold_wall_s": batch["wall_time_s"],
            "warm_wall_s": warm["wall_time_s"],
            "speedup": (batch["wall_time_s"] / warm["wall_time_s"]
                        if warm["wall_time_s"] > 0 else None),
            "warm_synthesis_runs": warm["session"]["synthesis_runs"],
            "warm_disk_hits": warm["session"]["store_disk_hits"],
        }
        print(f"  cold {batch['wall_time_s']:.2f}s -> warm "
              f"{warm['wall_time_s']:.2f}s "
              f"({warm['session']['store_disk_hits']} disk hits, "
              f"{warm['session']['synthesis_runs']} synthesis runs)")

    if not args.skip_service:
        print("running the service throughput burst "
              "(16 jobs, 4 unique scenarios, concurrent submitters)...")
        snapshot["service_throughput"] = run_service_throughput()

    if not args.skip_fleet:
        print("running the fleet throughput burst "
              "(16 jobs through a 3-worker consistent-hash fleet)...")
        snapshot["fleet_throughput"] = run_fleet_throughput()

    if not args.skip_obs:
        print("running the tracing-overhead benchmark "
              "(4 scenarios, untraced vs fully traced)...")
        snapshot["obs_overhead"] = run_obs_overhead()

    if not args.skip_large_space:
        print("running the large-space streaming benchmark "
              "(1,035,000-candidate blur space, fresh subprocess)...")
        snapshot["large_space"] = run_large_space()

    print("running the floored streamed exploration benchmark "
          "(fps floor, fresh subprocess)...")
    snapshot["floored_stream"] = run_floored_stream()

    # Runs after the large-space section on purpose: the subprocess behind
    # that section inherits this process's resident set at fork time, so
    # the big frame arrays this benchmark touches would otherwise taint its
    # peak-RSS measurement.
    if not args.skip_sim:
        print("running the simulation throughput benchmark "
              "(640x480 blur, vectorized vs scalar tile loop)...")
        snapshot["simulation_throughput"] = run_simulation_throughput()

    if args.pytest:
        print("running the pytest benchmark suite...")
        snapshot["pytest_suite"] = run_pytest_suite()
        print(f"  suite wall time : "
              f"{snapshot['pytest_suite']['wall_time_s']:.2f}s "
              f"(exit {snapshot['pytest_suite']['returncode']})")

    output = args.output or os.path.join(
        REPO_ROOT, f"BENCH_{snapshot['date']}.json")
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
