#!/usr/bin/env bash
# CI/local gate: byte-compile the whole package, then run the tier-1 suite.
#
#   scripts/check.sh            # full suite, then --examples, --figures,
#                               # --large and the three live smokes of
#                               # --service, --fleet and --obs (what CI
#                               # runs)
#   scripts/check.sh --fast     # skip bench-style tests (-m "not slow")
#
# Every mode first runs the import-hygiene guard: the engine, simulation,
# observability and symbolic modules must import with nothing beyond
# NumPy + the stdlib, from `src` alone (so production never imports a
# test oracle, such as the interpreter in tests/symbolic/).
#   scripts/check.sh --service  # service smoke: boot `python -m repro
#                               # serve` on an ephemeral port, submit two
#                               # workloads over HTTP, assert digests match
#                               # direct Session.run, clean shutdown
#   scripts/check.sh --fleet    # fleet smoke: boot a router + 2 worker
#                               # subprocesses sharing one store, route
#                               # over HTTP, assert digests match direct
#                               # Session.run and the whole fleet drains
#                               # cleanly
#   scripts/check.sh --large    # out-of-core smoke: stream a >=10^5-
#                               # candidate space under a hard RSS ceiling,
#                               # adding one cost-cache entry of 45 x 361
#                               # rows (its largest saturation count, not
#                               # its 2,300 counts), and assert streamed
#                               # results are digest-identical to the
#                               # in-memory exploration on the paper-scale
#                               # subspace, which must read the same from
#                               # a cold and a warm cost cache; then answer
#                               # 60 seeded what-if requests there (frame
#                               # sizes, fps floors, LUT caps, port widths)
#                               # in memory and streamed in one-group
#                               # chunks, both from the warm cost cache
#                               # (2 x 60 hits), with equal Pareto sets and
#                               # admitted/pruned counts, and 10 of them
#                               # with every admitted design point and the
#                               # streamed Pareto set equal to the
#                               # per-point scalar oracle's
#                               # (tests/dse/scalar_oracle.py); last, stream
#                               # the large space uncapped, with no floor
#                               # and at 30 fps, and match each Pareto set
#                               # to the in-memory answer on the space
#                               # narrowed to its largest saturation count
#                               # (361 counts) (~3 s in all)
#   scripts/check.sh --sim      # simulation tier: the vectorized-vs-scalar
#                               # differential suite plus the frame/golden
#                               # boundary-contract regressions (both run
#                               # against the oracles in tests/simulation),
#                               # the throughput model against the cycle
#                               # oracle, the pinned validation digests, and
#                               # the wide random-kernel sweep (1,500 drawn
#                               # kernels through every symbolic oracle, new
#                               # ones each run), with a wall-clock budget so
#                               # the Hypothesis suites can't silently
#                               # balloon
#   scripts/check.sh --figures  # paper figures: the nine Section 4 scripts
#                               # benchmarks/bench_*.py (Figures 5-10 and
#                               # Sections 4.1-4.3) in one pytest session,
#                               # which shares the case-study explorations;
#                               # fails on the first failing script
#   scripts/check.sh --obs      # observability tier: the tracing/metrics/
#                               # propagation suite, then a live-server
#                               # smoke — client root span rides the
#                               # X-Repro-Trace header across a real
#                               # process boundary, the trace comes back
#                               # via GET /trace/<id> and the CLI, and
#                               # /metrics strict-parses as 0.0.4 with
#                               # correctly typed families
#   scripts/check.sh --memory   # memory gate: 600 distinct explore jobs
#                               # through one in-process server; fails
#                               # when peak RSS at job 600 exceeds peak
#                               # RSS at job 200 by more than 30 MB (a
#                               # server that keeps every result grows
#                               # ~0.45 MB per job)
#   scripts/check.sh --examples # run every examples/*.py with
#                               # PYTHONPATH=src; fails naming the first
#                               # script that exits non-zero
#   scripts/check.sh -k store   # extra args are passed through to pytest
set -euo pipefail
cd "$(dirname "$0")/.."

run_pytest() {
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest "$@"
}

run_figures() {
    # pytest collects the bench scripts only when they are named.
    run_pytest -x -q benchmarks/bench_*.py "$@"
}

run_smoke() {
    # scripts/<name>_smoke.py: boots `python -m repro serve` (and, for the
    # fleet, `fleet`) as real processes and stops them over POST /shutdown
    local name=$1
    shift
    echo "== scripts/${name}_smoke.py"
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python "scripts/${name}_smoke.py" "$@"
}

run_examples() {
    for example in examples/*.py; do
        echo "== $example"
        if ! PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
                python "$example" > /dev/null; then
            echo "error: $example exited non-zero" >&2
            return 1
        fi
    done
}

check_imports() {
    # Import hygiene: the exploration evaluator, the simulation/validation
    # layer behind the `validate` job class, the observability layer
    # every server and session records into, and the symbolic layer that
    # builds every cone must import with nothing beyond NumPy and the
    # stdlib — test-only/optional packages sneaking into their import
    # closure would break minimal production deployments.  The blocked
    # import hook fails the build the moment one is touched, naming the
    # module being imported.  No tests/ directory is on the path, so a
    # production import of a test oracle (the symbolic interpreter in
    # tests/symbolic/, the simulation oracles in tests/simulation/) fails
    # it too.
    python - <<'PYEOF'
import builtins
import importlib
import sys

sys.path.insert(0, "src")
MODULES = ("repro.dse.engine", "repro.dse.stream",
           "repro.simulation", "repro.simulation.validation",
           "repro.obs", "repro.obs.trace", "repro.obs.metrics",
           "repro.symbolic", "repro.symbolic.cone_expression",
           "repro.symbolic.invariance")
BLOCKED = ("hypothesis", "pytest", "matplotlib", "pandas", "scipy", "yaml")
real_import = builtins.__import__
importing = None


def guarded(name, *args, **kwargs):
    root = name.split(".")[0]
    if root in BLOCKED:
        raise SystemExit(
            f"error: {importing} pulled optional dependency {root!r} "
            f"into its import closure (only NumPy + stdlib are allowed)")
    return real_import(name, *args, **kwargs)


builtins.__import__ = guarded
for importing in MODULES:
    importlib.import_module(importing)  # the guard is the side effect

non_stdlib = [name for name in BLOCKED if name in sys.modules]
assert not non_stdlib, non_stdlib
print(f"import guard ok: {len(MODULES)} modules checked "
      f"({len(sys.modules)} loaded, numpy {sys.modules['numpy'].__version__})")
PYEOF
}

# The guard is cheap, so every mode runs it (CI's flagless invocation too).
check_imports

PYTEST_ARGS=(-x -q)
FLAGLESS=$(( $# == 0 ))
case "${1:-}" in
--fast)
    shift
    PYTEST_ARGS+=(-m "not slow")
    ;;
--service)
    shift
    python -m compileall -q src
    run_smoke service "$@"
    exit $?
    ;;
--fleet)
    shift
    python -m compileall -q src
    run_smoke fleet "$@"
    exit $?
    ;;
--large)
    shift
    python -m compileall -q src
    # A fresh process so ru_maxrss measures the streaming run alone.
    python scripts/large_smoke.py "$@"
    exit $?
    ;;
--sim)
    shift
    python -m compileall -q src
    # Budgeted differential run: the property suite is the bit-identity
    # oracle for every vectorized path, and it must stay fast enough to run
    # on every push.  `timeout` turns a runaway Hypothesis search into a
    # hard failure instead of a stalled CI job.
    sim_status=0
    timeout 300 env PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest -x -q \
        tests/property/test_simulator_differential.py \
        tests/simulation/test_frame_and_golden.py \
        tests/simulation/test_cone_simulator.py \
        tests/simulation/test_validation_anchors.py \
        tests/service/test_validate_job.py \
        tests/symbolic/sweep_random_kernels.py "$@" || sim_status=$?
    if [ "$sim_status" -eq 124 ]; then
        echo "error: simulation tier exceeded its 300s wall-clock budget" >&2
    fi
    exit "$sim_status"
    ;;
--figures)
    shift
    python -m compileall -q src
    run_figures "$@"
    exit $?
    ;;
--memory)
    shift
    python -m compileall -q src
    # A fresh process so ru_maxrss measures the server's jobs alone.
    python scripts/memory_smoke.py "$@"
    exit $?
    ;;
--examples)
    shift
    python -m compileall -q src
    run_examples
    exit $?
    ;;
--obs)
    shift
    python -m compileall -q src
    # The full observability suite first (span trees, header codec,
    # span capture, typed exposition, propagation edges), then
    # the live smoke: a real `python -m repro serve` subprocess proves
    # the X-Repro-Trace header joins traces across a process boundary
    # and /metrics survives the strict 0.0.4 parser.
    run_pytest -x -q tests/obs "$@"
    run_smoke obs
    exit $?
    ;;
esac

python -m compileall -q src
run_pytest "${PYTEST_ARGS[@]}" "$@"
if [ "$FLAGLESS" -eq 1 ]; then
    # The examples and the Section 4 scripts are the public API's only
    # callers outside tests/; the large smoke is the only gate on a
    # >=10^5-candidate space; the other smokes are the only gates that run
    # `serve` and `fleet` as real processes.
    run_examples
    run_figures
    python scripts/large_smoke.py
    run_smoke service
    run_smoke fleet
    run_smoke obs
fi
