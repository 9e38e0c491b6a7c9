"""Quickstart: run the cone-based HLS flow on the iterative Gaussian filter.

This is the 60-second tour of the public API (:mod:`repro.api`):

1. declare a :class:`Workload` — a registered ISL algorithm (or your own
   kernel / C source) plus device, data format, frame geometry, and
   design-space knobs;
2. run it in a :class:`Session` (dependency analysis, area/throughput
   estimation, design-space exploration, Pareto extraction) — sessions cache
   cone characterizations, so related workloads share the expensive work;
3. inspect the Pareto set, serialize the result to JSON, and generate VHDL
   for a chosen design point;
4. point a session at a persistent store directory so a later process reruns
   the same workloads with zero synthesis;
5. run a batch with ``run_many(...)`` — in input order on the calling
   thread, each kernel characterized once, with the earliest failure
   re-raised after the whole batch ran;
6. sweep one kernel across devices *and* data formats in a single batch —
   every scenario's candidate space is small enough to explore in memory,
   in one columnar pass over the whole space (:mod:`repro.dse.stream`;
   spaces of ~200k candidates and more stream instead, item 9);
7. serve exploration traffic from a long-lived daemon
   (:mod:`repro.service`): ``python -m repro serve --store DIR`` starts an
   HTTP job API over one shared session; ``ReproClient.submit(...)`` (or
   ``python -m repro submit blur``) files jobs that coalesce with
   identical in-flight requests and run one at a time, in submission
   order;
8. scale the service tier out to a fleet (:mod:`repro.fleet`): a
   ``FleetRouter`` fronts N workers and routes each submission by a
   consistent hash of its characterization key, so identical workloads
   always land on the same worker (coalescing keeps working fleet-wide)
   and a shared artifact store makes anything synthesized on one worker a
   disk hit on every other.  ``python -m repro fleet --workers 4`` from
   the shell; ``python -m repro submit blur --fleet URL`` to use it;
9. stream million-candidate spaces out of core (:mod:`repro.dse.stream`):
   ``stream=True`` (or just a big enough space — exploration auto-selects
   streaming above ~200k candidates) evaluates fixed-size chunks against
   a bounded running frontier instead of materializing every column, with
   infeasible rows pruned *before* they are ever costed.  Same frontier,
   bit for bit.  ``python -m repro explore blur --stream`` from the shell
   (``sweep`` takes the same flag); see ``examples/large_space_demo.py``
   for the full out-of-core tour.

Run with::

    python examples/quickstart.py

The same flow is available from the shell: ``python -m repro explore blur``
(add ``--store`` to persist across invocations, ``--stream`` to keep only
the Pareto frontier of a large space).
"""

from __future__ import annotations

import json
import tempfile

from repro import FlowResult, Session, Workload
from repro.flow.report import area_validation_table, flow_summary, pareto_table
from repro.ir.operators import DataFormat


def main() -> None:
    # 1. the iterative Gaussian filter, exactly as in Section 4.1 of the
    #    paper, on a reduced design space (fast: a few seconds)
    workload = Workload.from_algorithm(
        "blur",
        data_format=DataFormat.FIXED16,
        frame_width=1024,
        frame_height=768,
        window_sides=(1, 2, 3, 4, 5, 6),
        max_depth=3,
        max_cones_per_depth=8,
        synthesize_all=True,      # also synthesise every cone to validate Eq. 1
    )
    print(workload.resolve_kernel())
    print()

    # 2. run it in a session
    session = Session()
    result = session.run(workload)

    print(flow_summary(result.exploration))
    print()
    print(area_validation_table(result.exploration.area_validations))
    print()
    print(pareto_table(result.pareto, title="Pareto set (area vs time per frame)"))
    print()

    # ... a second frame size reuses every cone characterization: no new
    # synthesis runs, only the (cheap) throughput estimation re-runs.
    session.run(workload.replace(frame_width=640, frame_height=480))
    print(f"after a second frame size: {session.stats.synthesis_runs} "
          f"synthesis runs total, "
          f"{session.stats.characterization_cache_hits} cache hit(s)")
    print()

    # 3a. every result round-trips through JSON
    payload = json.dumps(result.to_dict())
    restored = FlowResult.from_dict(json.loads(payload))
    assert restored.pareto == result.pareto
    print(f"serialized result: {len(payload)} bytes of JSON, "
          f"Pareto set identical after round-trip")
    print()

    # 3b. generate synthesizable VHDL for the fastest architecture that fits
    best = result.best_fitting_point()
    files = session.generate_vhdl(workload, point=best)
    print(f"best architecture on the device: {best.summary()}")
    print(f"generated VHDL files: {sorted(files)}")
    entity = next(name for name in files if name.endswith(".vhd")
                  and "pkg" not in name and "top" not in name)
    print()
    print(f"--- first lines of {entity} ---")
    print("\n".join(files[entity].splitlines()[:12]))
    print()

    # 4. persistence: Session(store=DIR) mirrors characterizations and
    #    results to disk, so a *new process* (or `python -m repro sweep
    #    --store DIR`) resumes without re-synthesizing anything.
    with tempfile.TemporaryDirectory() as store_dir:
        Session(store=store_dir).run(workload)          # cold: pays synthesis
        warm = Session(store=store_dir)                 # fresh session ≙ new process
        warm.run(workload)
        print(f"warm rerun from {store_dir}: "
              f"{warm.stats.synthesis_runs} synthesis runs, "
              f"{warm.stats.store_disk_hits} disk hit(s)")
    print()

    # 5. a batch runs in input order on the calling thread; each kernel's
    #    characterization is synthesized once and shared by every workload
    #    of that kernel, and a failing workload stops nothing (the earliest
    #    failure is re-raised after the whole batch ran).
    batch = [workload.replace(algorithm=name)
             for name in ("blur", "jacobi", "heat")]
    batch_session = Session()
    results = batch_session.run_many(batch)
    print(f"batch: {len(results)} kernels explored, "
          f"{batch_session.stats.synthesis_runs} synthesis runs")
    print()

    # 6. multi-device / multi-format frontiers in one batch: each scenario
    #    re-costs the candidate space with array arithmetic over its own
    #    characterizations.  Same thing from the
    #    shell:  python -m repro sweep --algorithms blur \
    #                --devices xc6vlx760,xc2vp30 --formats fixed16,fixed32
    scenarios = [
        workload.replace(synthesize_all=False, device=device,
                         data_format=data_format)
        for device in ("xc6vlx760", "xc2vp30")
        for data_format in (DataFormat.FIXED16, DataFormat.FIXED32)
    ]
    sweep_session = Session()
    frontiers = sweep_session.run_many(scenarios)
    print("multi-device/multi-format frontiers (one batch):")
    for scenario, result in zip(scenarios, frontiers):
        best = result.best_fitting_point()
        fastest = "-" if best is None else f"{best.frames_per_second:7.1f} fps"
        print(f"  {scenario.device.name:<12} {scenario.data_format.value:<8} "
              f"{len(result.pareto):>2} Pareto points   best {fastest}")
    print()

    # 7. service mode: the same workloads served by a long-lived daemon.
    #    One ReproServer = one shared session behind a job API; identical
    #    in-flight submissions coalesce onto one computation, jobs run one
    #    at a time in submission order, and everything is also reachable
    #    over HTTP:  python -m repro serve --store DIR   then
    #                python -m repro submit blur
    #    (see examples/service_demo.py for the full tour)
    from repro.service import ReproClient, ReproServer

    server = ReproServer(start=False)   # paused: let the burst land first
    try:
        client = ReproClient(server)
        handles = [client.submit(workload.replace(synthesize_all=False))
                   for _ in range(4)]
        server.start()
        pareto_sizes = {len(h.result(timeout=60).pareto) for h in handles}
        stats = server.stats()
        print(f"service mode: {stats['queue']['submitted']} submissions "
              f"coalesced into {stats['queue']['completed']} computation(s) "
              f"(hit-rate {stats['queue']['coalesce_hit_rate']:.0%}), "
              f"identical frontiers: {len(pareto_sizes) == 1}")
    finally:
        server.close()
    print()

    # 8. fleet mode: the same job API fronting several workers at once.
    #    The router hashes each workload's characterization key onto a
    #    consistent-hash ring, so placement is deterministic, duplicates
    #    still coalesce (same key -> same worker), and the shared store
    #    turns the whole fleet into one cache: the session-4 store above
    #    already holds this workload, so a fresh 3-worker fleet serves it
    #    with zero synthesis.  (see examples/fleet_demo.py for failover
    #    and load shedding)
    from repro.fleet import FleetRouter

    with tempfile.TemporaryDirectory() as store_dir:
        Session(store=store_dir).run(workload)           # warm the store
        with FleetRouter.local(3, store=store_dir) as fleet:
            client = ReproClient(fleet)
            client.submit(workload).result(timeout=60)
            stats = fleet.stats()
            routed_to = [name for name, entry in stats["workers"].items()
                         if entry["jobs_routed"]]
            print(f"fleet mode: routed to {routed_to[0]} of "
                  f"{len(stats['workers'])} workers, aggregate "
                  f"synthesis_runs={stats['aggregate']['synthesis_runs']} "
                  f"(served from the fleet-shared store)")
    print()

    # 9. out-of-core streaming: widen the instance-count axis and the
    #    space jumps from hundreds to tens of thousands of candidates.
    #    stream=True folds fixed-size chunks into a bounded running
    #    frontier — the result is identical to the in-memory engine, and
    #    the `streaming` block reports how many rows were pruned by the
    #    area constraints before ever being costed.
    from repro.dse.constraints import DseConstraints

    wide = workload.replace(synthesize_all=False, max_cones_per_depth=2000,
                            constraints=DseConstraints(device_only=True),
                            stream=True)
    streamed = Session().run(wide)
    meta = streamed.exploration.streaming
    print(f"streaming mode: {meta['space_rows']:,} candidates in "
          f"{meta['chunks_total']} chunks, {meta['pruned_fraction']:.1%} "
          f"pruned before costing, frontier never held more than "
          f"{meta['frontier_peak']} points "
          f"({len(streamed.pareto)} final Pareto points)")
    print()

    # 10. validation: simulate the cone pipeline on real frames and
    #     compare against the golden whole-frame model.  Interior pixels
    #     (those whose dependency cone never touches the frame border) must
    #     match exactly; the result also re-checks the vectorized simulator
    #     against its preserved scalar oracle.  The same evidence is
    #     available as a service job class: client.submit(w, job="validate")
    #     or `python -m repro validate blur --frames 640x480`.
    report = session.validate(
        workload.replace(frame_width=640, frame_height=480, iterations=6))
    print(f"validation: {report.summary()}")


if __name__ == "__main__":
    main()
