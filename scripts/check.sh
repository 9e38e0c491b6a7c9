#!/usr/bin/env bash
# CI/local gate: byte-compile the whole package, then run the tier-1 suite.
#
#   scripts/check.sh            # full suite (what CI runs)
#   scripts/check.sh --fast     # skip bench-style tests (-m "not slow")
#
# Every mode first runs the import-hygiene guard: the engine, simulation
# and observability modules must import with nothing beyond NumPy + the
# stdlib.
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
#                               # candidate space under a hard RSS ceiling
#                               # and assert streamed results are digest-
#                               # identical to the in-memory exploration on
#                               # the paper-scale subspace
#   scripts/check.sh --sim      # simulation tier: the vectorized-vs-scalar
#                               # differential suite plus the frame/golden
#                               # boundary-contract regressions, with a
#                               # wall-clock budget so the Hypothesis suite
#                               # can't silently balloon
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

check_imports() {
    # Import hygiene: the exploration evaluator, the simulation/validation
    # layer behind the `validate` job class, and the observability layer
    # every server and session records into must import with nothing
    # beyond NumPy and the stdlib — test-only/optional packages sneaking
    # into their import closure would break minimal production deployments.
    # The blocked import hook fails the build the moment one is touched,
    # naming the module being imported.
    python - <<'PYEOF'
import builtins
import importlib
import sys

sys.path.insert(0, "src")
MODULES = ("repro.dse.engine", "repro.dse.stream",
           "repro.simulation", "repro.simulation.validation",
           "repro.obs", "repro.obs.trace", "repro.obs.metrics")
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
case "${1:-}" in
--fast)
    shift
    PYTEST_ARGS+=(-m "not slow")
    ;;
--service)
    shift
    python -m compileall -q src
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python scripts/service_smoke.py "$@"
    exit $?
    ;;
--fleet)
    shift
    python -m compileall -q src
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python scripts/fleet_smoke.py "$@"
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
        tests/service/test_validate_job.py "$@" || sim_status=$?
    if [ "$sim_status" -eq 124 ]; then
        echo "error: simulation tier exceeded its 300s wall-clock budget" >&2
    fi
    exit "$sim_status"
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
    for example in examples/*.py; do
        echo "== $example"
        if ! PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
                python "$example" > /dev/null; then
            echo "error: $example exited non-zero" >&2
            exit 1
        fi
    done
    exit 0
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
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python scripts/obs_smoke.py
    exit $?
    ;;
esac

python -m compileall -q src
run_pytest "${PYTEST_ARGS[@]}" "$@"
