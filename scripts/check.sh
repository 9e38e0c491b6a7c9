#!/usr/bin/env bash
# CI/local gate: byte-compile the whole package, then run the tier-1 suite.
#
#   scripts/check.sh            # full suite (what CI runs)
#   scripts/check.sh --fast     # skip bench-style tests (-m "not slow")
#
# Every mode first runs the engine import-hygiene guard: repro.dse.engine
# and repro.dse.stream must import with nothing beyond NumPy + the stdlib.
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
#                               # the paper-scale subspace, then repeat the
#                               # large run with --jobs 2 chunk-shard
#                               # workers (same ceiling, digest identity
#                               # vs the serial fold)
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
#   scripts/check.sh -k store   # extra args are passed through to pytest
set -euo pipefail
cd "$(dirname "$0")/.."

run_pytest() {
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest "$@"
}

check_engine_imports() {
    # Import hygiene: the exploration evaluator must import with nothing
    # beyond NumPy and the stdlib — test-only/optional packages sneaking
    # into its import closure would break minimal production deployments.  The
    # blocked import hook fails the build the moment one is touched.
    python - <<'PYEOF'
import builtins
import sys

sys.path.insert(0, "src")
BLOCKED = ("hypothesis", "pytest", "matplotlib", "pandas", "scipy", "yaml")
real_import = builtins.__import__


def guarded(name, *args, **kwargs):
    root = name.split(".")[0]
    if root in BLOCKED:
        raise SystemExit(
            f"error: repro.dse.engine pulled optional dependency {root!r} "
            f"into its import closure (only NumPy + stdlib are allowed)")
    return real_import(name, *args, **kwargs)


builtins.__import__ = guarded
import repro.dse.engine  # noqa: F401  (the guard is the side effect)
import repro.dse.stream  # noqa: F401  (same deployment footprint)

non_stdlib = [name for name in BLOCKED if name in sys.modules]
assert not non_stdlib, non_stdlib
print(f"engine import guard ok ({len(sys.modules)} modules, "
      f"numpy {sys.modules['numpy'].__version__})")
PYEOF
}

check_simulation_imports() {
    # Same deployment-footprint rule for the simulation/validation layer:
    # it backs the `validate` job class in production services, so it must
    # import with nothing beyond NumPy + the stdlib.
    python - <<'PYEOF'
import builtins
import sys

sys.path.insert(0, "src")
BLOCKED = ("hypothesis", "pytest", "matplotlib", "pandas", "scipy", "yaml")
real_import = builtins.__import__


def guarded(name, *args, **kwargs):
    root = name.split(".")[0]
    if root in BLOCKED:
        raise SystemExit(
            f"error: repro.simulation pulled optional dependency {root!r} "
            f"into its import closure (only NumPy + stdlib are allowed)")
    return real_import(name, *args, **kwargs)


builtins.__import__ = guarded
import repro.simulation  # noqa: F401  (the guard is the side effect)
import repro.simulation.validation  # noqa: F401  (validate job backend)

non_stdlib = [name for name in BLOCKED if name in sys.modules]
assert not non_stdlib, non_stdlib
print(f"simulation import guard ok ({len(sys.modules)} modules, "
      f"numpy {sys.modules['numpy'].__version__})")
PYEOF
}

check_obs_imports() {
    # The observability layer ships everywhere the engine does (every
    # server mounts a TraceStore, every session records metrics), so it
    # gets the same deployment-footprint rule: NumPy + stdlib only.
    python - <<'PYEOF'
import builtins
import sys

sys.path.insert(0, "src")
BLOCKED = ("hypothesis", "pytest", "matplotlib", "pandas", "scipy", "yaml")
real_import = builtins.__import__


def guarded(name, *args, **kwargs):
    root = name.split(".")[0]
    if root in BLOCKED:
        raise SystemExit(
            f"error: repro.obs pulled optional dependency {root!r} "
            f"into its import closure (only NumPy + stdlib are allowed)")
    return real_import(name, *args, **kwargs)


builtins.__import__ = guarded
import repro.obs  # noqa: F401  (the guard is the side effect)
import repro.obs.trace  # noqa: F401
import repro.obs.metrics  # noqa: F401

non_stdlib = [name for name in BLOCKED if name in sys.modules]
assert not non_stdlib, non_stdlib
print(f"obs import guard ok ({len(sys.modules)} modules, "
      f"numpy {sys.modules['numpy'].__version__})")
PYEOF
}

# The guards are cheap, so every mode runs them (CI's flagless invocation too).
check_engine_imports
check_simulation_imports
check_obs_imports

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
    # A fresh process so ru_maxrss measures the streaming run alone.  The
    # parallel variant (--jobs 2) runs the serial fold and the two-worker
    # fan-out in the same process under the same RSS ceiling and fails on
    # any digest divergence between them.
    python scripts/large_smoke.py --jobs 2 "$@"
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
