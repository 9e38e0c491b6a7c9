"""The three benchmark workloads, driven only through the public API.

Every workload has the same shape:

* ``boot(tiny)`` builds what a user needs before the first request (imports
  are already done) and returns a state object; its wall time is the
  workload's set-up time, and ``shutdown(state)`` releases it;
* ``inputs(seed, tiny)`` turns the seed into the request sequence — the
  program only ever sees these generated requests — and
  ``prepare(state, seed)`` starts any benchmark-side helper before timing;
* ``run_ops(state, requests, seconds, record)`` is the closed-loop timed
  phase, calling ``record(Op)`` once per finished request with the digests
  of what the program returned;
* ``references(tiny)`` returns the expected digest of every request the
  sequence may contain: pinned in ``reference/<workload>.json`` for the
  full-size workloads (``python3 perfbench/pin.py`` regenerates them), and
  computed on the spot through a direct ``Session`` for the tiny self-test
  sizes.

A request whose result digest differs from its reference counts as failed,
exactly like one that raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import Session, Workload
from repro.dse.constraints import DseConstraints
from repro.ir.operators import DataFormat

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
#: Scratch space for the fleet's artifact store, inside the checkout.
SCRATCH_DIR = HERE.parent / ".perfbench_tmp"

#: Fixed seed of the request pools; a run's ``--seed`` picks from them.
POOL_SEED = 2013
PAPER_FRAME = (1024, 768)
PAPER_KNOBS = dict(window_sides=tuple(range(1, 10)), max_depth=5,
                   max_cones_per_depth=16)
TINY_KNOBS = dict(window_sides=(1, 2, 3), max_depth=2, max_cones_per_depth=4)


def digest(payload: Any) -> str:
    """Short content digest of a JSON-ready value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Op:
    """One finished request of the timed phase.

    ``digests`` pairs each output's reference key (a path into the
    ``references()`` structure) with the digest of what the program
    returned; they are checked after the timed phase, so computing
    references never warms a cache the timed phase would then hit."""

    kind: str          # the latency class: "op", "stream" or "validate"
    latency_s: float
    digests: List[Tuple[Tuple, str]]
    error: str = ""    # the exception, when the request raised


def reference_for(references: Any, key: Tuple) -> str:
    for part in key:
        references = references[part]
    return references


def load_reference(name: str) -> Dict[str, Any]:
    path = REFERENCE_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_pool(name: str, reference: Dict[str, Any], pool: Any) -> None:
    """Refuse pinned digests computed for a different request pool."""
    if reference.get("pool") != digest(pool):
        raise SystemExit(
            f"perfbench: reference/{name}.json was pinned for another "
            f"request pool; rerun python3 perfbench/pin.py {name}")


class BenchWorkload:
    """Hooks with nothing to do for most workloads."""

    def prepare(self, state: Dict[str, Any], seed: int) -> None:
        """Start benchmark-side helpers after set-up, before timing."""

    def warm_up(self, state: Dict[str, Any]) -> None:
        """Untimed work a traced run does before its first segment."""

    def shutdown(self, state: Dict[str, Any]) -> None:
        """Release what ``boot`` and ``prepare`` started."""


# ---------------------------------------------------------------------- #
# paper_cold: the paper's Section 4 batch, cold, through run_many


def paper_workloads(tiny: bool) -> Dict[str, Workload]:
    knobs = TINY_KNOBS if tiny else PAPER_KNOBS
    common = dict(data_format=DataFormat.FIXED16, frame_width=PAPER_FRAME[0],
                  frame_height=PAPER_FRAME[1], synthesize_all=True, **knobs)
    return {
        "igf": Workload.from_algorithm("blur", iterations=3 if tiny else 10,
                                       **common),
        "chambolle": Workload.from_algorithm(
            "chamb", iterations=3 if tiny else 11, **common),
    }


class PaperCold(BenchWorkload):
    name = "paper_cold"
    #: The timed unit is one whole cold batch: an untraced run times
    #: exactly one, a traced run one traced and one untraced.
    segments_traced = ("T", "U")

    def boot(self, tiny: bool) -> Dict[str, Any]:
        return {"workloads": paper_workloads(tiny)}

    def inputs(self, seed: int, tiny: bool) -> List[List[str]]:
        """The kernel order of each batch: alternating, the seed picks the
        first."""
        first = ["igf", "chambolle"]
        random.Random(seed).shuffle(first)
        return [first if index % 2 == 0 else first[::-1]
                for index in range(64)]

    @staticmethod
    def batch_digests(workloads: Dict[str, Workload], order: Sequence[str],
                      totals: Optional[Dict[str, float]] = None
                      ) -> Dict[str, str]:
        """Run one cold batch; digest each kernel's result plus its VHDL.

        ``totals`` accumulates the batch session's stats counters."""
        session = Session()
        results = session.run_many([workloads[name] for name in order])
        digests = {}
        for name, result in zip(order, results):
            files = session.generate_vhdl(workloads[name],
                                          result.best_fitting_point())
            digests[name] = digest({"result": result.to_dict(),
                                    "vhdl": files})
        if totals is not None:
            for key, value in session.stats.to_dict().items():
                totals[key] = totals.get(key, 0) + value
        return digests

    def references(self, tiny: bool) -> Dict[str, str]:
        workloads = paper_workloads(tiny)
        if tiny:
            return self.batch_digests(workloads, ["igf", "chambolle"])
        reference = load_reference(self.name)
        check_pool(self.name, reference,
                   {name: w.to_dict() for name, w in workloads.items()})
        return reference["digests"]

    def warm_up(self, state: Dict[str, Any]) -> None:
        """A tiny batch, so the first timed batch of a traced run pays no
        first-call costs the second one would not."""
        self.batch_digests(paper_workloads(tiny=True), ["igf", "chambolle"])

    def run_ops(self, state, requests, seconds, record) -> None:
        """Exactly one cold batch, however long it takes (``seconds`` is
        only the size it was chosen for)."""
        order = next(requests)
        started = time.perf_counter()
        try:
            digests = self.batch_digests(
                state["workloads"], order,
                state.setdefault("session_totals", {}))
        except Exception as error:  # counted, never fatal
            record(Op("op", time.perf_counter() - started, [], repr(error)))
        else:
            record(Op("op", time.perf_counter() - started,
                      [((name,), digests[name]) for name in order]))


# ---------------------------------------------------------------------- #
# whatif: change a knob, get a new Pareto front (warm session)

WHATIF_MEMORY_POOL = 12000
WHATIF_STREAM_POOL = 1500
WHATIF_TINY_POOL = (240, 30)
#: One request in this many is a streamed one (the million-row space).
STREAM_EVERY = 10


def whatif_spaces(tiny: bool) -> Dict[str, Workload]:
    knobs = TINY_KNOBS if tiny else PAPER_KNOBS
    common = dict(data_format=DataFormat.FIXED16, frame_width=PAPER_FRAME[0],
                  frame_height=PAPER_FRAME[1], **knobs)
    igf = Workload.from_algorithm("blur", iterations=3 if tiny else 10,
                                  **common)
    spaces = {
        "igf": igf,
        "chambolle": Workload.from_algorithm(
            "chamb", iterations=3 if tiny else 11, **common),
    }
    if tiny:
        # the tiny space is far below the auto-stream threshold: force it
        spaces["igf_wide"] = igf.replace(max_cones_per_depth=400, stream=True)
    else:
        # 1,035,000 candidates: explored out-of-core automatically
        spaces["igf_wide"] = igf.replace(max_cones_per_depth=23000)
    return spaces


def whatif_pool(tiny: bool) -> Dict[str, List[Tuple]]:
    """Unique request specs ``(space, width, height, fps, luts, port)``."""
    sizes = WHATIF_TINY_POOL if tiny else (WHATIF_MEMORY_POOL,
                                            WHATIF_STREAM_POOL)
    rng = random.Random(POOL_SEED)
    seen = set()
    pools: Dict[str, List[Tuple]] = {"memory": [], "stream": []}
    for kind, size in zip(("memory", "stream"), sizes):
        while len(pools[kind]) < size:
            space = ("igf_wide" if kind == "stream"
                     else rng.choice(("igf", "chambolle")))
            spec = (space, rng.randrange(320, 4097, 8),
                    rng.randrange(240, 2161, 8),
                    rng.choice((None, 15.0, 24.0, 30.0, 60.0, 120.0)),
                    rng.choice((None, 150000.0, 250000.0, 350000.0,
                                474240.0)),
                    rng.choice((4, 8, 16, 32)))
            if spec in seen:
                continue
            seen.add(spec)
            pools[kind].append(spec)
    return pools


def whatif_request(spaces: Dict[str, Workload], spec: Tuple) -> Workload:
    space, width, height, fps, luts, port = spec
    constraints = (None if fps is None and luts is None else
                   DseConstraints(min_frames_per_second=fps,
                                  max_area_luts=luts))
    return spaces[space].replace(frame_width=width, frame_height=height,
                                 onchip_port_elements_per_cycle=port,
                                 constraints=constraints)


def pareto_digest(result) -> str:
    return digest([point.to_dict() for point in result.pareto])


class WhatIf(BenchWorkload):
    name = "whatif"
    segments_traced = ("T", "U", "T", "U")

    def boot(self, tiny: bool) -> Dict[str, Any]:
        """Characterize every space and answer its default request once."""
        session = Session()
        spaces = whatif_spaces(tiny)
        for workload in spaces.values():
            session.run(workload)
            # keep the characterization, drop the result: no pool request
            # may be answered from the result cache
            session.evict(workload)
        return {"session": session, "spaces": spaces}

    def inputs(self, seed: int, tiny: bool) -> List[Tuple[str, int, Tuple]]:
        """Unique pool requests ``(kind, pool index, spec)`` in a seeded
        order, one streamed request at a seeded position in every block of
        ``STREAM_EVERY``."""
        pools = whatif_pool(tiny)
        rng = random.Random(seed)
        memory = rng.sample(range(len(pools["memory"])), len(pools["memory"]))
        stream = rng.sample(range(len(pools["stream"])), len(pools["stream"]))
        sequence: List[Tuple[str, int, Tuple]] = []
        while memory and stream:
            block = [("memory", memory.pop())
                     for _ in range(min(STREAM_EVERY - 1, len(memory)))]
            block.insert(rng.randrange(len(block) + 1),
                         ("stream", stream.pop()))
            sequence.extend((kind, index, pools[kind][index])
                            for kind, index in block)
        return sequence

    def references(self, tiny: bool) -> Dict[str, List[str]]:
        pools = whatif_pool(tiny)
        if tiny:
            return self.compute_references(pools, tiny)
        reference = load_reference(self.name)
        check_pool(self.name, reference, pools)
        return reference["digests"]

    def compute_references(self, pools, tiny: bool) -> Dict[str, List[str]]:
        session = Session()
        spaces = whatif_spaces(tiny)
        digests: Dict[str, List[str]] = {}
        for kind, specs in pools.items():
            digests[kind] = []
            for spec in specs:
                workload = whatif_request(spaces, spec)
                digests[kind].append(pareto_digest(session.run(workload)))
                session.evict(workload)
        return digests

    def run_ops(self, state, requests, seconds, record) -> None:
        session, spaces = state["session"], state["spaces"]
        deadline = time.perf_counter() + seconds
        for kind, index, spec in requests:
            kind_label = "stream" if kind == "stream" else "op"
            started = time.perf_counter()
            workload = None
            try:
                workload = whatif_request(spaces, spec)
                result = session.run(workload)
            except Exception as error:  # counted, never fatal
                record(Op(kind_label, time.perf_counter() - started, [],
                          repr(error)))
            else:
                latency = time.perf_counter() - started
                record(Op(kind_label, latency,
                          [((kind, index), pareto_digest(result))]))
            if workload is not None:
                # bound memory the way a long-lived user session would:
                # the characterizations stay, the per-request result goes
                session.evict(workload)
            if time.perf_counter() >= deadline:
                return


# ---------------------------------------------------------------------- #
# service_mix: explore and validate jobs over HTTP to a two-worker fleet

#: Unique payloads per job class; a run draws from them without repeats.
SERVICE_POOLS = {"small": 2500, "moderate": 1200, "validate": 900}
SERVICE_TINY_POOLS = {"small": 40, "moderate": 20, "validate": 12}
SERVICE_CLIENTS = 2
#: Length of a traced run's untimed warm-up segment, in seconds.
WARM_UP_S = 6.0
#: The job classes of every block of ten jobs (seeded order): explorations
#: with small and moderate knobs, validations, and one exact duplicate of
#: an earlier job.  A fixed composition keeps the work of a run the same
#: whatever its seed; the seed varies the kernels, frames and order.
BLOCK = (("small",) * 5 + ("moderate",) * 2 + ("validate",) * 2
         + ("duplicate",))
EXPLORE_KERNELS = ("blur", "jacobi", "heat", "chamb", "igf_c")
#: Moderate knobs make a Chambolle cone characterization several seconds
#: long; its explorations stay small.
MODERATE_KERNELS = ("blur", "jacobi", "heat", "igf_c")
VALIDATE_KERNELS = ("blur", "jacobi", "heat", "igf_c")
SMALL_KNOBS = dict(window_sides=(1, 2, 3, 4), max_depth=3,
                   max_cones_per_depth=8)
MODERATE_KNOBS = dict(window_sides=(1, 2, 3, 4, 5, 6), max_depth=4,
                      max_cones_per_depth=16)


def _service_payload(template: Dict[str, Any], kernel: str, igf_c: str,
                     **knobs: Any) -> Dict[str, Any]:
    """A workload payload as ``Workload.to_dict`` writes it, built without
    constructing the Workload (so the C frontend first runs server-side)."""
    payload = dict(template)
    payload.update(knobs)
    payload["window_sides"] = list(payload["window_sides"])
    if kernel == "igf_c":
        payload.update(algorithm=None, c_source=igf_c, c_function_name=None)
    else:
        payload.update(algorithm=kernel, c_source=None, c_function_name=None)
    return payload


def service_pool(tiny: bool) -> Dict[str, List[Dict[str, Any]]]:
    """Unique payloads per job class."""
    from repro.algorithms import IGF_C_SOURCE

    sizes = SERVICE_TINY_POOLS if tiny else SERVICE_POOLS
    template = Workload.from_algorithm("blur").to_dict()
    rng = random.Random(POOL_SEED)
    formats = (DataFormat.FIXED16.value, DataFormat.FIXED32.value)
    pools: Dict[str, List[Dict[str, Any]]] = {}
    for job_class, size in sizes.items():
        seen = set()
        pools[job_class] = []
        while len(pools[job_class]) < size:
            if job_class == "validate":
                kernel = rng.choice(VALIDATE_KERNELS)
                knobs = dict(TINY_KNOBS if tiny else SMALL_KNOBS)
                if not tiny:
                    knobs["window_sides"] = tuple(range(
                        1, rng.choice((3, 4)) + 1))
                knobs.update(
                    data_format=rng.choice(formats),
                    iterations=rng.randrange(3, 6),
                    frame_width=rng.randrange(64, 105, 8),
                    frame_height=rng.randrange(48, 81, 8))
            else:
                moderate = job_class == "moderate"
                kernel = rng.choice(MODERATE_KERNELS if moderate
                                    else EXPLORE_KERNELS)
                knobs = dict(TINY_KNOBS if tiny else
                             MODERATE_KNOBS if moderate else SMALL_KNOBS)
                fps = rng.choice((None, None, 30.0, 60.0))
                knobs.update(
                    data_format=rng.choice(formats),
                    iterations=rng.randrange(4, 9),
                    frame_width=rng.randrange(160, 1921, 16),
                    frame_height=rng.randrange(120, 1081, 8),
                    onchip_port_elements_per_cycle=rng.choice((8, 16)),
                    constraints=(None if fps is None else
                                 {"min_frames_per_second": fps,
                                  "max_area_luts": None,
                                  "device_only": False}))
            payload = _service_payload(template, kernel, IGF_C_SOURCE,
                                       **knobs)
            key = digest(payload)
            if key not in seen:
                seen.add(key)
                pools[job_class].append(payload)
    return pools


class ServiceMix(BenchWorkload):
    name = "service_mix"
    segments_traced = ("T", "U", "T", "U")

    def boot(self, tiny: bool) -> Dict[str, Any]:
        from repro.fleet import FleetRouter

        store = SCRATCH_DIR / f"store-{os.getpid()}-{time.monotonic_ns()}"
        store.mkdir(parents=True)
        router = FleetRouter.local(2, store=str(store))
        host, port = router.serve_http("127.0.0.1", 0)
        queued: Dict[str, float] = {}
        waits: List[float] = []
        lock = threading.Lock()

        def on_event(event) -> None:
            # job-queued -> job-started, keyed by the worker's job id
            if event.kind == "job-queued":
                with lock:
                    queued[event.detail] = time.perf_counter()
            elif event.kind == "job-started":
                with lock:
                    started = queued.pop(event.detail, None)
                    if started is not None:
                        waits.append(time.perf_counter() - started)

        for member in router.membership.all():
            member.server.on_event(on_event)
        return {"router": router, "store": store,
                "url": f"http://{host}:{port}", "queue_waits": waits}

    def prepare(self, state: Dict[str, Any], seed: int) -> None:
        """Start the load generator: a process of its own (see
        ``loadgen_main``), so parsing and checking results never competes
        with the fleet for this process's interpreter lock."""
        command = [sys.executable, str(HERE / "run.py"), "--child",
                   "loadgen", "--workload", self.name, "--seed", str(seed),
                   "--url", state["url"]]
        if state["tiny"]:
            command.append("--tiny")
        process = subprocess.Popen(command, cwd=str(HERE.parent),
                                   stdin=subprocess.PIPE,
                                   stdout=subprocess.PIPE, text=True)
        state["loadgen"] = process
        if process.stdout.readline().strip() != "READY":
            raise RuntimeError("the load generator did not start")

    def warm_up(self, state: Dict[str, Any]) -> None:
        """An untimed first segment, so the mix's cold characterizations do
        not all land in whichever segment a traced run starts with."""
        self.run_ops(state, None, 1.0 if state["tiny"] else WARM_UP_S,
                     lambda op: None)

    def shutdown(self, state: Dict[str, Any]) -> None:
        process = state.get("loadgen")
        if process is not None:
            process.stdin.close()  # end of input: the generator exits
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        state["router"].close()
        shutil.rmtree(state["store"], ignore_errors=True)

    def inputs(self, seed: int, tiny: bool
               ) -> List[Tuple[str, int, Dict[str, Any]]]:
        """Jobs ``(class, pool index, payload)`` in blocks of ``BLOCK``,
        seeded order; a duplicate repeats one of the last fifty
        explorations of this sequence."""
        pools = service_pool(tiny)
        rng = random.Random(seed)
        fresh = {job_class: rng.sample(range(len(pool)), len(pool))
                 for job_class, pool in pools.items()}
        explored: List[Tuple[str, int, Dict[str, Any]]] = []
        sequence: List[Tuple[str, int, Dict[str, Any]]] = []
        while True:
            block = list(BLOCK)
            rng.shuffle(block)
            for job_class in block:
                if job_class == "duplicate":
                    if explored:
                        sequence.append(rng.choice(explored[-50:]))
                    continue
                if not fresh[job_class]:
                    return sequence
                index = fresh[job_class].pop()
                job = (job_class, index, pools[job_class][index])
                sequence.append(job)
                if job_class != "validate":
                    explored.append(job)

    def references(self, tiny: bool) -> Dict[str, List[str]]:
        pools = service_pool(tiny)
        if tiny:
            return self.compute_references(pools)
        reference = load_reference(self.name)
        check_pool(self.name, reference, pools)
        return reference["digests"]

    @staticmethod
    def compute_references(pools) -> Dict[str, List[str]]:
        """Each job's expected result: a direct Session.run/validate."""
        session = Session()
        digests: Dict[str, List[str]] = {}
        for job_class, payloads in pools.items():
            digests[job_class] = []
            for payload in payloads:
                workload = Workload.from_dict(payload)
                if job_class == "validate":
                    result = session.validate(workload)
                else:
                    result = session.run(workload)
                    session.evict(workload)
                digests[job_class].append(digest(result.to_dict()))
        return digests

    def run_ops(self, state, requests, seconds, record) -> None:
        """One segment of the load generator's closed loop (it walks the
        same seeded sequence as ``requests``, from where it stopped)."""
        process = state["loadgen"]
        process.stdin.write(f"{seconds}\n")
        process.stdin.flush()
        for kind, latency, digests, error in json.loads(
                process.stdout.readline()):
            record(Op(kind, latency, [(tuple(key), value)
                                      for key, value in digests], error))


def loadgen_main(url: str, seed: int, tiny: bool) -> int:
    """The service_mix load generator: ``SERVICE_CLIENTS`` closed-loop
    client threads over HTTP.  Each input line is a segment length in
    seconds; the answer is one JSON line with that segment's finished
    requests.  End of input ends the process."""
    from repro.service import ReproClient

    jobs: Iterator[Tuple[str, int, Dict[str, Any]]] = iter(
        ServiceMix().inputs(seed, tiny))
    lock = threading.Lock()
    print("READY", flush=True)
    for line in sys.stdin:
        deadline = time.perf_counter() + float(line)
        ops: List[List[Any]] = []

        def client_loop(client_seed: int) -> None:
            client = ReproClient(url, request_timeout_s=60.0,
                                 retry_jitter_seed=client_seed)
            while time.perf_counter() < deadline:
                with lock:
                    job = next(jobs, None)
                if job is None:
                    return
                job_class, index, payload = job
                kind = "validate" if job_class == "validate" else "explore"
                label = "validate" if kind == "validate" else "op"
                started = time.perf_counter()
                try:
                    handle = client.submit(payload, job=kind)
                    result = handle.result(timeout=120.0)
                except Exception as error:  # counted, never fatal
                    outcome = [label, time.perf_counter() - started, [],
                               repr(error)]
                else:
                    outcome = [label, time.perf_counter() - started,
                               [[[job_class, index],
                                 digest(result.to_dict())]], ""]
                with lock:
                    ops.append(outcome)

        threads = [threading.Thread(target=client_loop, args=(client,),
                                    name=f"perfbench-client-{client}")
                   for client in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        print(json.dumps(ops), flush=True)
    return 0


WORKLOADS: Dict[str, Any] = {
    "paper_cold": PaperCold(),
    "whatif": WhatIf(),
    "service_mix": ServiceMix(),
}
