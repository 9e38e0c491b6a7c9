"""Differential property tests: cone simulator vs. the golden model, and
the vectorized simulation paths vs. their scalar oracles.

Two layers of evidence:

* *semantic* — the functional cone simulator must agree with the
  whole-frame golden executor for randomized frame geometries, simulator
  modes, and algorithm picks.  The architectural contract (see
  :class:`FunctionalConeSimulator`): every output element whose
  dependency cone does not touch the frame border is bit-identical to
  Algorithm 1's result; border elements may differ only inside the clamp
  band of width ``radius * iterations``.
* *implementation* — the vectorized golden step and both cone-simulator
  modes must be **bit-identical** — not merely close — to their scalar
  walks on the same inputs, including degenerate 1×1 and 1×N frames:
  ``GoldenExecutor.run`` to the per-pixel ``golden_oracle`` and
  ``FunctionalConeSimulator.run`` to its tile loop ``run_scalar``.
"""

import os
import sys

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

# the golden model's oracle lives beside the simulation tests
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "simulation"))
from golden_oracle import run_scalar  # noqa: E402

from repro.algorithms import ALGORITHMS as REGISTERED_ALGORITHMS
from repro.algorithms import get_algorithm
from repro.simulation.cone_simulator import FunctionalConeSimulator
from repro.simulation.frame import FrameSet
from repro.simulation.golden import GoldenExecutor

#: Single-state-field algorithms cheap enough for randomized sweeps (the
#: multi-field Chambolle case is covered by its own dedicated test below).
ALGORITHMS = ("blur", "jacobi", "heat", "erode")

#: Every registered algorithm, multi-field kernels included: the
#: bit-identity suite must cover whatever the registry can simulate.
ALL_ALGORITHMS = tuple(sorted(REGISTERED_ALGORITHMS))


def interior(array, margin):
    return array[..., margin:-margin, margin:-margin]


def run_differential(algorithm, height, width, seed, iterations, window,
                     mode):
    """Compare simulator and golden output on the cone-interior region."""
    kernel = get_algorithm(algorithm).kernel()
    margin = kernel.radius * iterations + 1
    assume(height > 2 * margin and width > 2 * margin)
    frames = FrameSet.for_kernel(kernel, height, width, seed=seed)
    golden = GoldenExecutor(kernel).run(frames, iterations)
    simulated = FunctionalConeSimulator(kernel).run(frames, iterations,
                                                    window, mode=mode)
    for name in kernel.state_field_names:
        np.testing.assert_allclose(
            interior(simulated[name].data, margin),
            interior(golden[name].data, margin),
            rtol=1e-9, atol=1e-12, err_msg=f"{algorithm}/{name} ({mode})")
    # outside the interior the simulator must still return finite values of
    # the right shape (the clamp band is approximate, never garbage)
    for name in kernel.state_field_names:
        assert simulated[name].data.shape == golden[name].data.shape
        assert np.all(np.isfinite(simulated[name].data))


@given(algorithm=st.sampled_from(ALGORITHMS),
       height=st.integers(min_value=7, max_value=16),
       width=st.integers(min_value=7, max_value=16),
       seed=st.integers(min_value=0, max_value=2**16),
       iterations=st.integers(min_value=1, max_value=3),
       window=st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_region_mode_matches_golden(algorithm, height, width, seed,
                                    iterations, window):
    """Region mode (NumPy tile evaluation) vs. golden, randomized."""
    run_differential(algorithm, height, width, seed, iterations, window,
                     mode="region")


@given(algorithm=st.sampled_from(ALGORITHMS),
       height=st.integers(min_value=7, max_value=11),
       width=st.integers(min_value=7, max_value=11),
       seed=st.integers(min_value=0, max_value=2**16),
       iterations=st.integers(min_value=1, max_value=2),
       window=st.integers(min_value=1, max_value=3))
@settings(max_examples=10, deadline=None)
def test_expression_mode_matches_golden(algorithm, height, width, seed,
                                        iterations, window):
    """Expression mode exercises the full symbolic cone DAG — the strongest
    differential check of the symbolic layer, on a reduced input range
    (scalar DAG evaluation is orders of magnitude slower than NumPy)."""
    run_differential(algorithm, height, width, seed, iterations, window,
                     mode="expression")


@given(height=st.integers(min_value=9, max_value=13),
       width=st.integers(min_value=9, max_value=13),
       seed=st.integers(min_value=0, max_value=2**16),
       window=st.integers(min_value=1, max_value=3))
@settings(max_examples=6, deadline=None)
def test_multi_field_chambolle_matches_golden(height, width, seed, window):
    """The multi-field Chambolle kernel: every state field must agree."""
    run_differential("chamb", height, width, seed, iterations=2,
                     window=window, mode="region")


@given(height=st.integers(min_value=8, max_value=14),
       width=st.integers(min_value=8, max_value=14),
       seed=st.integers(min_value=0, max_value=2**16),
       iterations=st.integers(min_value=1, max_value=2),
       window_a=st.integers(min_value=1, max_value=4),
       window_b=st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_modes_and_tilings_agree_with_each_other(height, width, seed,
                                                 iterations, window_a,
                                                 window_b):
    """Expression and region modes are two implementations of the same
    semantics: full-frame outputs (border band included) must match for any
    tiling — the border behaviour is defined by the architecture (clamped
    level-0 reads), not by the evaluation strategy."""
    kernel = get_algorithm("blur").kernel()
    frames = FrameSet.for_kernel(kernel, height, width, seed=seed)
    simulator = FunctionalConeSimulator(kernel)
    expression = simulator.run(frames, iterations, window_a,
                               mode="expression")
    region = simulator.run(frames, iterations, window_a, mode="region")
    np.testing.assert_allclose(expression["f"].data, region["f"].data,
                               rtol=1e-9, atol=1e-12)
    # tiling is an implementation detail: the interior is tile-invariant
    other = simulator.run(frames, iterations, window_b, mode="region")
    margin = kernel.radius * iterations + 1
    assume(height > 2 * margin and width > 2 * margin)
    np.testing.assert_allclose(interior(region["f"].data, margin),
                               interior(other["f"].data, margin),
                               rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------- #
# vectorized paths vs. their scalar oracles (bit-identity, not closeness)


def assert_frames_identical(vectorized, scalar, context):
    for name in vectorized.names():
        assert np.array_equal(vectorized[name].data, scalar[name].data), (
            f"{context}: field {name!r} diverged from the scalar oracle "
            f"(max abs diff "
            f"{np.max(np.abs(vectorized[name].data - scalar[name].data))})")


@given(algorithm=st.sampled_from(ALL_ALGORITHMS),
       height=st.integers(min_value=1, max_value=12),
       width=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2**16),
       iterations=st.integers(min_value=0, max_value=2),
       window=st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None)
def test_region_mode_bit_identical_to_scalar(algorithm, height, width, seed,
                                             iterations, window):
    """Region mode: the stacked clamped-gather evaluation must reproduce
    the per-tile scalar walk bit for bit — degenerate 1×1 and 1×N frames
    (where the halo is wider than the frame) included."""
    kernel = get_algorithm(algorithm).kernel()
    frames = FrameSet.for_kernel(kernel, height, width, seed=seed)
    simulator = FunctionalConeSimulator(kernel)
    vectorized = simulator.run(frames, iterations, window, mode="region")
    scalar = simulator.run_scalar(frames, iterations, window, mode="region")
    assert_frames_identical(vectorized, scalar,
                            f"{algorithm} region {height}x{width} "
                            f"w{window} i{iterations}")


@given(algorithm=st.sampled_from(ALL_ALGORITHMS),
       height=st.integers(min_value=1, max_value=9),
       width=st.integers(min_value=1, max_value=9),
       seed=st.integers(min_value=0, max_value=2**16),
       iterations=st.integers(min_value=1, max_value=2),
       window=st.integers(min_value=1, max_value=3))
@settings(max_examples=10, deadline=None)
def test_expression_mode_bit_identical_to_scalar(algorithm, height, width,
                                                 seed, iterations, window):
    """Expression mode: one ``evaluate_array`` pass over every cone DAG vs.
    the per-tile scalar DAG evaluation (reduced ranges — the scalar side
    re-evaluates the DAG once per tile)."""
    kernel = get_algorithm(algorithm).kernel()
    frames = FrameSet.for_kernel(kernel, height, width, seed=seed)
    simulator = FunctionalConeSimulator(kernel)
    vectorized = simulator.run(frames, iterations, window, mode="expression")
    scalar = simulator.run_scalar(frames, iterations, window,
                                  mode="expression")
    assert_frames_identical(vectorized, scalar,
                            f"{algorithm} expression {height}x{width} "
                            f"w{window} i{iterations}")


@given(algorithm=st.sampled_from(ALL_ALGORITHMS),
       height=st.integers(min_value=1, max_value=8),
       width=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**16),
       iterations=st.integers(min_value=0, max_value=2))
@settings(max_examples=10, deadline=None)
def test_golden_step_bit_identical_to_scalar(algorithm, height, width, seed,
                                             iterations):
    """The whole-frame golden step vs. its per-pixel scalar oracle."""
    kernel = get_algorithm(algorithm).kernel()
    frames = FrameSet.for_kernel(kernel, height, width, seed=seed)
    executor = GoldenExecutor(kernel)
    vectorized = executor.run(frames, iterations)
    scalar = run_scalar(executor, frames, iterations)
    assert_frames_identical(vectorized, scalar,
                            f"golden {algorithm} {height}x{width} "
                            f"i{iterations}")
