"""Command-line interface: ``python -m repro``.

Subcommands
-----------

``list``
    Show the registered algorithms (and, with ``--devices``, the device
    catalog).
``explore``
    Run the staged flow for one algorithm and print the Pareto set (or, with
    ``--json``, the full serialized :class:`FlowResult`).
``codegen``
    Generate the VHDL of a design point (best fitting by default) into a
    directory or list the files that would be produced.
``sweep``
    Batch-explore several algorithms / frame sizes / devices / data formats
    through one session, sharing cone characterizations, and report
    per-workload results plus session statistics (multi-device and
    multi-format scenarios: ``--devices a,b --formats fixed16,fixed32``).
``validate``
    Simulate the cone architecture on the workload's frame geometry and
    check it against the software golden model (``python -m repro
    validate blur --frames 640x480``): prints the equivalence evidence
    (interior max error, per-field digests, scalar-oracle bit-identity)
    and exits non-zero on a mismatch.  Also available service-side as
    ``submit --job validate``.
``cache``
    Inspect (``stats``), empty (``clear``), or dump (``export``) a
    persistent artifact store directory.
``serve``
    Run the long-lived exploration service (:mod:`repro.service`): one
    shared session behind an HTTP JSON job API that coalesces identical
    in-flight requests and runs the queued jobs one at a time, first in,
    first out.  ``--store`` gives the daemon a persistent cache;
    ``--port 0`` binds an ephemeral port (printed on startup).
``fleet``
    Run the worker-fleet tier (:mod:`repro.fleet`): a consistent-hash
    router fronting N exploration workers behind the same job API.
    ``--workers N`` spawns N in-process workers sharing one ``--store``
    (the warm-through-store cache tier); ``--worker URL`` (repeatable)
    attaches to already-running ``serve`` processes instead.
``submit``
    Send one workload to a running service (``--server URL``) or fleet
    router (``--fleet URL``), wait for the result, and print it like
    ``explore`` — or ``--no-wait`` to just queue it and print the job
    id.  ``--timeout`` bounds only this command's wait: the job stays
    queued or running on the server when it expires.  Shed submissions
    (``503 + Retry-After``) are retried with capped backoff
    (``--retries``).  The submission carries this
    process's span context in ``X-Repro-Trace``, so the server-side
    trace joins the caller's; the receipt's trace id is printed for
    ``trace`` to fetch.
``trace``
    Fetch recorded traces from a running service or fleet router
    (:mod:`repro.obs`): list the trace index, or fetch one trace as
    JSONL (default) or Chrome ``trace_event`` JSON (``--chrome``; load
    in chrome://tracing or Perfetto).

``explore``, ``codegen``, and ``sweep`` accept ``--store [DIR]`` to persist
characterizations and results across invocations (default directory:
``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), so a rerun of the same command
completes with zero synthesizer invocations.  ``--device`` (``--devices``
on ``sweep``) takes part names of the device catalog, case-insensitively
(``python -m repro list --devices``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional, Sequence, Tuple

from repro.algorithms import ALGORITHMS, get_algorithm
from repro.api.session import Session, SessionEvent
from repro.api.store import ArtifactStore, default_store_path
from repro.api.workload import DEFAULT_OPTIONS, Workload
from repro.dse.constraints import DseConstraints
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import DEVICE_CATALOG, resolve_device

#: argparse defaults are derived from the flow's single default source
_FRAME = f"{DEFAULT_OPTIONS.frame_width}x{DEFAULT_OPTIONS.frame_height}"
_DEVICE = DEFAULT_OPTIONS.device.name
_FORMAT = DEFAULT_OPTIONS.data_format.value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (KeyError, ValueError) as error:
        # str(KeyError) is the repr of its argument (extra quotes); unwrap
        message = (error.args[0] if isinstance(error, KeyError) and error.args
                   else error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # e.g. `python -m repro ... | head`: die quietly like other CLIs
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141


# ---------------------------------------------------------------------- #
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Cone-based HLS flow for iterative stencil loops "
                    "(DAC 2013 reproduction).")
    from repro import __version__
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    list_cmd = commands.add_parser(
        "list", help="list registered algorithms (and devices)")
    list_cmd.add_argument("--devices", action="store_true",
                          help="also list the FPGA device catalog")
    list_cmd.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON")
    list_cmd.set_defaults(handler=cmd_list)

    explore = commands.add_parser(
        "explore", help="explore the design space of one algorithm")
    _add_workload_arguments(explore)
    explore.add_argument("--json", action="store_true",
                         help="emit the full FlowResult as JSON")
    explore.add_argument("-o", "--output", metavar="FILE",
                         help="write the JSON payload to FILE")
    explore.set_defaults(handler=cmd_explore)

    codegen = commands.add_parser(
        "codegen", help="generate VHDL for a design point")
    _add_workload_arguments(codegen)
    codegen.add_argument("--point", metavar="LABEL",
                         help="architecture label to generate "
                              "(default: best point fitting the device)")
    codegen.add_argument("--out", metavar="DIR",
                         help="directory to write the VHDL files into "
                              "(default: list files without writing)")
    codegen.add_argument("--json", action="store_true",
                         help="emit the file manifest as JSON")
    codegen.set_defaults(handler=cmd_codegen)

    sweep = commands.add_parser(
        "sweep", help="batch-explore algorithms x frame sizes x devices")
    sweep.add_argument("--algorithms", default="blur",
                       help="comma-separated registry names (default: blur)")
    sweep.add_argument("--frames", default=_FRAME,
                       help="comma-separated WxH frame sizes "
                            f"(default: {_FRAME})")
    sweep.add_argument("--devices", default=_DEVICE,
                       help="comma-separated device part names "
                            f"(default: {_DEVICE})")
    sweep.add_argument("--formats", default=_FORMAT,
                       help="comma-separated datapath number formats "
                            f"({', '.join(f.value for f in DataFormat)}; "
                            f"default: {_FORMAT})")
    sweep.add_argument("--iterations", type=int, default=None,
                       help="iteration count override (default: per-algorithm)")
    sweep.add_argument("--windows", default=None,
                       help="comma-separated cone window sides")
    sweep.add_argument("--max-depth", type=int,
                       default=DEFAULT_OPTIONS.max_depth)
    sweep.add_argument("--max-cones", type=int,
                       default=DEFAULT_OPTIONS.max_cones_per_depth,
                       help="maximum cone instances per depth "
                            "(large values grow the candidate space; "
                            "combine with --stream)")
    sweep.add_argument("--stream", action="store_true", default=None,
                       help="force streaming for every scenario: keep "
                            "only the Pareto frontier as design points "
                            "(default: auto above the engine's row "
                            "threshold)")
    sweep.add_argument("--json", action="store_true",
                       help="emit per-workload summaries plus session stats "
                            "as JSON")
    sweep.add_argument("-o", "--output", metavar="FILE",
                       help="write the JSON payload to FILE")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress progress events on stderr")
    sweep.add_argument("--store", metavar="DIR", nargs="?",
                       const=default_store_path(), default=None,
                       help="persist characterizations/results under DIR "
                            "(default when DIR is omitted: "
                            f"{default_store_path()})")
    sweep.set_defaults(handler=cmd_sweep)

    serve = commands.add_parser(
        "serve", help="run the long-lived exploration service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (default: 8177; 0 binds an "
                            "ephemeral port, printed on startup)")
    serve.add_argument("--store", metavar="DIR", nargs="?",
                       const=default_store_path(), default=None,
                       help="persist characterizations/results under DIR "
                            "(default when DIR is omitted: "
                            f"{default_store_path()})")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress job/stage events on stderr")
    serve.add_argument("--max-pending", type=int, default=None, metavar="N",
                       help="bound the job queue at N pending jobs; a "
                            "saturated server sheds submissions with "
                            "503 + Retry-After (default: unbounded)")
    serve.add_argument("--worker-id", default=None, metavar="NAME",
                       help="stable worker identity reported to fleet "
                            "routers (default: worker-<pid>)")
    serve.add_argument("--announce", default=None, metavar="ROUTER_URL",
                       help="register this worker with a running fleet "
                            "router after binding")
    serve.set_defaults(handler=cmd_serve)

    fleet = commands.add_parser(
        "fleet", help="run a consistent-hash routed worker fleet")
    fleet.add_argument("--workers", type=int, default=2, metavar="N",
                       help="in-process workers to spawn (default: 2); "
                            "ignored when --worker URLs are given")
    fleet.add_argument("--worker", action="append", default=None,
                       metavar="[NAME=]URL",
                       help="attach to a running worker at URL instead of "
                            "spawning (repeatable; workers keep their own "
                            "lifecycle).  NAME fixes the worker's ring "
                            "identity — and therefore placement — across "
                            "router restarts (default: the URL)")
    fleet.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    fleet.add_argument("--port", type=int, default=None,
                       help="TCP port (default: 8177; 0 binds an "
                            "ephemeral port, printed on startup)")
    fleet.add_argument("--max-pending", type=int, default=None, metavar="N",
                       help="per-worker queue bound for spawned workers "
                            "(default: unbounded)")
    fleet.add_argument("--healthcheck-interval", type=float, default=1.0,
                       metavar="S",
                       help="seconds between worker healthchecks "
                            "(default: 1.0)")
    fleet.add_argument("--store", metavar="DIR", nargs="?",
                       const=default_store_path(), default=None,
                       help="shared persistent store of the spawned "
                            "workers — the fleet's warm-through cache "
                            "tier (default when DIR is omitted: "
                            f"{default_store_path()})")
    fleet.set_defaults(handler=cmd_fleet)

    validate = commands.add_parser(
        "validate", help="simulate one workload and check it against the "
                         "golden model")
    _add_workload_arguments(validate)
    validate.add_argument("--window", type=int, default=None, metavar="W",
                          help="cone window side to simulate "
                               "(default: the workload's largest)")
    validate.add_argument("--mode", default="region",
                          choices=["region", "expression"],
                          help="cone evaluation mode (default: region)")
    validate.add_argument("--json", action="store_true",
                          help="emit the full ValidationResult as JSON")
    validate.add_argument("-o", "--output", metavar="FILE",
                          help="write the JSON payload to FILE")
    validate.set_defaults(handler=cmd_validate)

    submit = commands.add_parser(
        "submit", help="submit one workload to a running service")
    _add_workload_arguments(submit, include_store=False)
    submit.add_argument("--server", default="http://127.0.0.1:8177",
                        metavar="URL",
                        help="service endpoint "
                             "(default: http://127.0.0.1:8177)")
    submit.add_argument("--fleet", default=None, metavar="URL",
                        help="fleet router endpoint (overrides --server)")
    submit.add_argument("--job", default="explore",
                        choices=["explore", "validate"],
                        help="job class: explore the design space "
                             "(default) or validate the simulated "
                             "architecture against the golden model")
    submit.add_argument("--retries", type=int, default=4, metavar="N",
                        help="shed-retry budget: resubmissions after "
                             "503 + Retry-After before giving up "
                             "(default: 4; 0 disables)")
    submit.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="seconds to wait for the result; the job "
                             "itself never expires (default: unbounded)")
    submit.add_argument("--no-wait", action="store_true",
                        help="queue the job and print its id instead of "
                             "waiting for the result")
    submit.add_argument("--json", action="store_true",
                        help="emit the full FlowResult as JSON")
    submit.add_argument("-o", "--output", metavar="FILE",
                        help="write the JSON payload to FILE")
    submit.set_defaults(handler=cmd_submit)

    trace_cmd = commands.add_parser(
        "trace", help="fetch recorded traces from a running service")
    trace_cmd.add_argument("trace_id", nargs="?", default=None,
                           help="trace id to fetch (omit to list the "
                                "server's trace index)")
    trace_cmd.add_argument("--server", default="http://127.0.0.1:8177",
                           metavar="URL",
                           help="service or fleet router endpoint "
                                "(default: http://127.0.0.1:8177)")
    trace_cmd.add_argument("--chrome", action="store_true",
                           help="emit Chrome trace_event JSON instead of "
                                "JSONL (load in chrome://tracing or "
                                "Perfetto)")
    trace_cmd.add_argument("--json", action="store_true",
                           help="emit the trace index as JSON (listing "
                                "mode only)")
    trace_cmd.add_argument("-o", "--output", metavar="FILE",
                           help="write the payload to FILE")
    trace_cmd.set_defaults(handler=cmd_trace)

    cache = commands.add_parser(
        "cache", help="inspect or maintain a persistent artifact store")
    cache_actions = cache.add_subparsers(dest="cache_command", required=True)
    for action, handler, description in (
            ("stats", cmd_cache_stats, "artifact counts and sizes"),
            ("clear", cmd_cache_clear, "delete the stored artifacts"),
            ("export", cmd_cache_export, "dump every artifact as JSON")):
        sub = cache_actions.add_parser(action, help=description)
        sub.add_argument("--store", metavar="DIR", default=None,
                         help="store directory (default: "
                              f"{default_store_path()})")
        if action != "clear":
            sub.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON")
            sub.add_argument("-o", "--output", metavar="FILE",
                             help="write the JSON payload to FILE")
        sub.set_defaults(handler=handler)

    return parser


def _add_workload_arguments(parser: argparse.ArgumentParser,
                            include_store: bool = True) -> None:
    parser.add_argument("algorithm", help="registry algorithm name "
                                          "(see `python -m repro list`)")
    parser.add_argument("--frame", "--frames", dest="frame", default=_FRAME,
                        metavar="WxH",
                        help=f"frame size (default: {_FRAME})")
    parser.add_argument("--iterations", type=int, default=None,
                        help="total iteration count "
                             "(default: the algorithm's)")
    parser.add_argument("--device", default=_DEVICE,
                        help=f"FPGA part name (default: {_DEVICE})")
    parser.add_argument("--format", default=_FORMAT,
                        choices=[f.value for f in DataFormat],
                        help=f"datapath number format (default: {_FORMAT})")
    parser.add_argument("--windows", default=None,
                        help="comma-separated cone window sides "
                             "(default: 1..9)")
    parser.add_argument("--max-depth", type=int,
                        default=DEFAULT_OPTIONS.max_depth,
                        help="maximum cone depth "
                             f"(default: {DEFAULT_OPTIONS.max_depth})")
    parser.add_argument("--max-cones", type=int,
                        default=DEFAULT_OPTIONS.max_cones_per_depth,
                        help="maximum cone instances per depth "
                             f"(default: {DEFAULT_OPTIONS.max_cones_per_depth})")
    parser.add_argument("--synthesize-all", action="store_true",
                        help="synthesize every cone instead of using the "
                             "Equation-1 estimate")
    parser.add_argument("--min-fps", type=float, default=None,
                        help="throughput constraint (frames per second)")
    parser.add_argument("--max-area-kluts", type=float, default=None,
                        help="area constraint (kLUTs)")
    parser.add_argument("--device-only", action="store_true",
                        help="keep only design points fitting the device")
    parser.add_argument("--stream", action="store_true", default=None,
                        help="force streaming: keep only the Pareto "
                             "frontier as design points (default: auto "
                             "above the engine's row threshold)")
    if include_store:
        parser.add_argument("--store", metavar="DIR", nargs="?",
                            const=default_store_path(), default=None,
                            help="persist characterizations/results under "
                                 "DIR (default when DIR is omitted: "
                                 f"{default_store_path()})")
        parser.add_argument("--quiet", action="store_true",
                            help="suppress progress events on stderr")


# ---------------------------------------------------------------------- #
# argument helpers


def parse_frame(text: str) -> Tuple[int, int]:
    try:
        width, height = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"invalid frame size {text!r}; expected WxH, "
                         f"e.g. 1024x768") from None
    if width < 1 or height < 1:
        raise ValueError(f"frame must be at least 1x1 (got {text})")
    return width, height


def parse_windows(text: Optional[str]) -> Optional[Tuple[int, ...]]:
    if text is None:
        return None
    return tuple(int(part) for part in text.split(",") if part.strip())


def _constraints_from(args: argparse.Namespace) -> Optional[DseConstraints]:
    if (args.min_fps is None and args.max_area_kluts is None
            and not args.device_only):
        return None
    return DseConstraints(
        min_frames_per_second=args.min_fps,
        max_area_luts=(None if args.max_area_kluts is None
                       else args.max_area_kluts * 1000.0),
        device_only=args.device_only,
    )


def workload_from_args(args: argparse.Namespace) -> Workload:
    frame_width, frame_height = parse_frame(args.frame)
    windows = parse_windows(args.windows)
    keywords = dict(
        device=resolve_device(args.device),
        data_format=DataFormat(args.format),
        frame_width=frame_width,
        frame_height=frame_height,
        iterations=args.iterations,
        max_depth=args.max_depth,
        max_cones_per_depth=args.max_cones,
        synthesize_all=args.synthesize_all,
        constraints=_constraints_from(args),
        stream=args.stream,
    )
    if windows is not None:
        keywords["window_sides"] = windows
    return Workload.from_algorithm(args.algorithm, **keywords)


def _session(args: argparse.Namespace) -> Session:
    store = getattr(args, "store", None)
    quiet = getattr(args, "quiet", False) or getattr(args, "json", False)
    if quiet:
        return Session(store=store)
    return Session(on_event=_print_event, store=store)


def _print_event(event: SessionEvent) -> None:
    if event.kind == "stage-finished":
        print(f"  [{event.workload.name}] {event.stage:<12} "
              f"{event.elapsed_s:7.3f}s", file=sys.stderr)
    elif event.kind == "cache-hit":
        print(f"  [{event.workload.name}] cache hit "
              f"({event.detail or 'characterization'})", file=sys.stderr)
    elif event.kind == "workload-failed":
        print(f"  [{event.workload.name}] FAILED: {event.detail}",
              file=sys.stderr)
    elif event.kind in ("job-queued", "job-coalesced", "job-finished",
                        "job-failed"):
        # service-mode lifecycle stream (the detail carries the job id)
        elapsed = ("" if event.elapsed_s is None
                   else f" {event.elapsed_s:7.3f}s")
        print(f"  [{event.workload.name}] {event.kind[4:]:<12} "
              f"{event.detail}{elapsed}", file=sys.stderr)


def _write_payload(payload: object, args: argparse.Namespace) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {output}", file=sys.stderr)
    else:
        print(text)


# ---------------------------------------------------------------------- #
# subcommands


def cmd_list(args: argparse.Namespace) -> int:
    if args.json:
        payload = {
            "algorithms": {
                name: {"description": spec.description,
                       "default_iterations": spec.default_iterations,
                       "paper_section": spec.paper_section}
                for name, spec in sorted(ALGORITHMS.items())
            },
        }
        if args.devices:
            payload["devices"] = {name: device.to_dict()
                                  for name, device in
                                  sorted(DEVICE_CATALOG.items())}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("registered algorithms:")
    for name, spec in sorted(ALGORITHMS.items()):
        print(f"  {name:<10} {spec.description} "
              f"(default {spec.default_iterations} iterations)")
    if args.devices:
        print()
        print("device catalog:")
        for name, device in sorted(DEVICE_CATALOG.items()):
            print(f"  {name:<12} {device.family:<14} "
                  f"{device.slice_luts:>8} LUTs, "
                  f"{device.typical_clock_hz / 1e6:6.1f} MHz")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    workload = workload_from_args(args)
    session = _session(args)
    result = session.run(workload)
    if args.json or args.output:
        _write_payload(result.to_dict(), args)
        return 0
    from repro.flow.report import flow_summary, pareto_table
    print(flow_summary(result.exploration))
    print()
    print(pareto_table(result.pareto))
    return 0


def cmd_codegen(args: argparse.Namespace) -> int:
    import os

    workload = workload_from_args(args)
    session = _session(args)
    result = session.run(workload)
    point = (result.point_by_label(args.point) if args.point
             else result.best_fitting_point())
    if point is None:
        print("error: no design point fits the device; relax the "
              "constraints or pick --point explicitly", file=sys.stderr)
        return 1
    files = session.generate_vhdl(workload, point=point)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, code in sorted(files.items()):
            with open(os.path.join(args.out, name), "w",
                      encoding="utf-8") as handle:
                handle.write(code)
        print(f"wrote {len(files)} VHDL files for {point.label} "
              f"to {args.out}")
    elif args.json:
        print(json.dumps({"point": point.to_dict(),
                          "files": {name: len(code)
                                    for name, code in sorted(files.items())}},
                         indent=2, sort_keys=True))
    else:
        print(f"design point: {point.summary()}")
        for name, code in sorted(files.items()):
            print(f"  {name} ({len(code.splitlines())} lines)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    algorithms = [name.strip() for name in args.algorithms.split(",")
                  if name.strip()]
    frames = [parse_frame(part) for part in args.frames.split(",")
              if part.strip()]
    devices = [resolve_device(name.strip())
               for name in args.devices.split(",") if name.strip()]
    formats = [DataFormat(part.strip())
               for part in args.formats.split(",") if part.strip()]
    windows = parse_windows(args.windows)
    workloads: List[Workload] = []
    for name in algorithms:
        get_algorithm(name)  # fail fast on unknown names
        for device in devices:
            for data_format in formats:
                for frame_width, frame_height in frames:
                    keywords = dict(device=device,
                                    data_format=data_format,
                                    frame_width=frame_width,
                                    frame_height=frame_height,
                                    iterations=args.iterations,
                                    max_depth=args.max_depth,
                                    max_cones_per_depth=args.max_cones,
                                    stream=args.stream)
                    if windows is not None:
                        keywords["window_sides"] = windows
                    workloads.append(Workload.from_algorithm(name, **keywords))

    session = _session(args)
    results = session.run_many(workloads)
    stats = session.stats

    summaries = []
    for workload, result in zip(workloads, results):
        best = result.best_fitting_point()
        summaries.append({
            "algorithm": workload.algorithm,
            "kernel": workload.name,
            "device": workload.device.name,
            "format": workload.data_format.value,
            "frame": [workload.frame_width, workload.frame_height],
            "iterations": workload.iterations,
            "design_points": len(result.design_points),
            "pareto_points": len(result.pareto),
            "synthesis_runs": result.exploration.synthesis_runs,
            "streaming": result.exploration.streaming,
            "best_fitting": None if best is None else best.to_dict(),
        })
    payload = {"workloads": summaries, "session": stats.to_dict()}

    if args.json or args.output:
        _write_payload(payload, args)
        return 0
    print(f"swept {len(workloads)} workloads "
          f"({len(algorithms)} algorithms x {len(frames)} frames x "
          f"{len(devices)} devices x {len(formats)} formats)")
    for summary in summaries:
        best = summary["best_fitting"]
        fps = ("-" if best is None
               else f"{best['performance']['frames_per_second']:8.2f} fps")
        print(f"  {summary['kernel']:<10} {summary['device']:<12} "
              f"{summary['format']:<8} "
              f"{summary['frame'][0]}x{summary['frame'][1]:<5} "
              f"{summary['design_points']:>5} points  best {fps}")
    print(f"synthesis runs: {stats.synthesis_runs} "
          f"(cache hits {stats.characterization_cache_hits}, "
          f"tool time avoided ~{stats.tool_runtime_avoided_s:.0f}s)")
    if session.store is not None:
        print(f"persistent store: {stats.store_disk_hits} disk hit(s), "
              f"{stats.store_writes} write(s) under {session.store.root}")
    return 0


# ---------------------------------------------------------------------- #
# service mode


def _serve_until_shutdown(endpoint: Any, name: str,
                          address: Tuple[str, int],
                          notes: Sequence[str]) -> int:
    """The foreground loop of ``serve`` and ``fleet``: print the bound
    address and ``notes``, block until ``POST /shutdown``, SIGTERM or
    Ctrl-C, then drain and close ``endpoint``."""
    import signal

    def _terminate(_signum, _frame):
        raise KeyboardInterrupt

    try:
        # before the address line: a supervisor may signal once it reads it
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        pass  # not on the main thread (tests drive the commands directly)
    try:
        # stdout, flushed: the smokes (scripts/*_smoke.py) parse this line
        # to discover an ephemeral --port 0 binding
        print(f"repro {name} listening on http://{address[0]}:{address[1]}",
              flush=True)
        for note in notes:
            print(note, file=sys.stderr)
        endpoint.wait()
    except KeyboardInterrupt:
        print(f"interrupt: draining the {name}...", file=sys.stderr)
    endpoint.close()
    print(f"repro {name} stopped", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import DEFAULT_PORT, ReproServer

    session = _session(args)
    server = ReproServer(session=session, max_pending=args.max_pending,
                         worker_id=args.worker_id)
    port = DEFAULT_PORT if args.port is None else args.port
    host, bound_port = server.serve_http(args.host, port)
    notes = []
    if session.store is not None:
        notes.append(f"  persistent store: {session.store.root}")
    notes.append("  POST /shutdown or Ctrl-C drains and stops")
    if args.announce:
        from repro.service.client import ReproClient
        reply = ReproClient(args.announce).register(
            {"url": f"http://{host}:{bound_port}", "name": args.worker_id})
        notes.append(f"  announced to fleet router {args.announce} "
                     f"({reply.get('workers_alive')}/"
                     f"{reply.get('workers_total')} workers alive)")
    return _serve_until_shutdown(server, "service", (host, bound_port),
                                 notes)


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet.router import FleetRouter
    from repro.service.server import DEFAULT_PORT

    if args.worker:
        specs = []
        for item in args.worker:
            # NAME=URL pins the ring identity; a bare URL names itself
            head = item.split("://", 1)[0]
            if "=" in head:
                name, url = item.split("=", 1)
                specs.append((name, url))
            else:
                specs.append(item)
        router = FleetRouter(
            specs, healthcheck_interval_s=args.healthcheck_interval,
            close_workers=False)
    else:
        router = FleetRouter.local(
            args.workers, store=args.store, max_pending=args.max_pending,
            healthcheck_interval_s=args.healthcheck_interval)
    port = DEFAULT_PORT if args.port is None else args.port
    address = router.serve_http(args.host, port)
    counters = router.membership.counters()
    notes = [f"  {counters['workers_alive']}/{counters['workers_total']} "
             f"worker(s) alive (POST /shutdown or Ctrl-C drains the fleet)"]
    if args.store and not args.worker:
        notes.append(f"  shared persistent store: {args.store}")
    return _serve_until_shutdown(router, "fleet", address, notes)


def cmd_validate(args: argparse.Namespace) -> int:
    workload = workload_from_args(args)
    session = _session(args)
    result = session.validate(workload, window_side=args.window,
                              mode=args.mode)
    if args.json or args.output:
        _write_payload(result.to_dict(), args)
    else:
        print(result.summary())
    return 0 if result.passed else 1


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.api.results import ValidationResult
    from repro.obs import trace as obs_trace
    from repro.service.client import ReproClient
    from repro.service.jobs import ServiceError, check_wait

    workload = workload_from_args(args)
    check_wait(args.timeout)  # refuse a bad wait before filing the job
    client = ReproClient(args.fleet or args.server, retries=args.retries)
    # root the trace in this process so the server-side spans join the
    # caller's trace id (propagated via the X-Repro-Trace header)
    obs_trace.auto_enable()
    try:
        with obs_trace.span("cli.submit", workload=workload.name):
            handle = client.submit(workload, job=args.job)
            if args.no_wait:
                print(handle.id)
                if handle.trace_id:
                    print(f"trace: {handle.trace_id}", file=sys.stderr)
                return 0
            result = handle.result(timeout=args.timeout)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if handle.trace_id:
        print(f"trace: {handle.trace_id} "
              f"(fetch with `python -m repro trace {handle.trace_id}`)",
              file=sys.stderr)
    if args.json or args.output:
        _write_payload(result.to_dict(), args)
        return 0
    if isinstance(result, ValidationResult):
        print(result.summary())
        return 0 if result.passed else 1
    from repro.flow.report import flow_summary, pareto_table
    print(flow_summary(result.exploration))
    print()
    print(pareto_table(result.pareto))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import trace as obs_trace
    from repro.service.client import ReproClient
    from repro.service.jobs import ServiceError

    client = ReproClient(args.server)
    try:
        payload = client.trace(args.trace_id)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.trace_id is None:
        if args.json or args.output:
            _write_payload(payload, args)
            return 0
        traces = payload.get("traces", [])
        if not traces:
            print("no traces recorded")
            return 0
        for entry in traces:
            print(f"{entry['trace_id']}  {entry['spans']:>4} span(s)  "
                  f"{entry['wall_s'] * 1e3:9.1f} ms  root {entry['root']}")
        return 0
    spans = payload.get("spans", [])
    if args.chrome:
        text = json.dumps(obs_trace.to_chrome_trace(spans),
                          indent=2, sort_keys=True) + "\n"
    else:
        text = obs_trace.to_jsonl(spans)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(spans)} span(s) to {args.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------- #
# cache maintenance


def _store_from(args: argparse.Namespace) -> ArtifactStore:
    return ArtifactStore(args.store or default_store_path())


def cmd_cache_stats(args: argparse.Namespace) -> int:
    description = _store_from(args).describe()
    if args.json or args.output:
        _write_payload(description, args)
        return 0
    print(f"store {description['root']} (schema v{description['schema']}):")
    for kind, entry in description["kinds"].items():
        print(f"  {kind:<18} {entry['artifacts']:>5} artifact(s)  "
              f"{entry['bytes']:>9} bytes")
    print(f"  {'total':<18} {description['artifacts']:>5} artifact(s)  "
          f"{description['bytes']:>9} bytes")
    if description["stale_artifacts"]:
        print(f"  {'stale':<18} "
              f"{description['stale_artifacts']:>5} file(s)      "
              f"{description['stale_bytes']:>9} bytes "
              f"(old schemas/interrupted writes; reclaimed by `cache clear`)")
    return 0


def cmd_cache_clear(args: argparse.Namespace) -> int:
    store = _store_from(args)
    removed = store.clear()
    print(f"removed {removed} artifact(s) from {store.root}")
    return 0


def cmd_cache_export(args: argparse.Namespace) -> int:
    _write_payload(_store_from(args).export_payload(), args)
    return 0
