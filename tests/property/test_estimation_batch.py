"""Property tests: ``estimate_batch()`` ≡ the per-point estimates.

The area model's scalar path delegates to its batch twin, and the
throughput model has only the batch path, so these tests pin the batch
implementations against *independent* per-point references written out
longhand here (the per-point recursions), and additionally assert that
evaluating a whole count axis at once is bit-identical to evaluating its
elements one by one.  Equality is exact (``==``, not approx): the
exploration's byte-identical-results guarantee rests on it.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.architecture.enumeration import single_depth_split
from repro.architecture.template import ConeArchitecture
from repro.estimation.area_model import CalibrationPoint, RegisterAreaModel
from repro.estimation.throughput_model import ConePerformance, ThroughputModel
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import VIRTEX6_XC6VLX760


# ---------------------------------------------------------------------- #
# area model


def reference_estimate_series(model, register_counts):
    """The per-point Equation-1 recursion, written out longhand."""
    anchor = model.anchor
    keys = sorted(register_counts)
    estimates = {anchor.key: anchor.actual_area_luts}
    previous_key, previous_regs = anchor.key, anchor.register_count
    for key in keys:
        if key <= anchor.key:
            continue
        regs = register_counts[key]
        estimates[key] = (estimates[previous_key]
                          + (regs - previous_regs)
                          * model.size_reg_luts * model.alpha)
        previous_key, previous_regs = key, regs
    previous_key, previous_regs = anchor.key, anchor.register_count
    for key in sorted((k for k in keys if k < anchor.key), reverse=True):
        regs = register_counts[key]
        estimates[key] = (estimates[previous_key]
                          - (previous_regs - regs)
                          * model.size_reg_luts * model.alpha)
        previous_key, previous_regs = key, regs
    return {key: estimates[key] for key in keys}


area_families = st.builds(
    lambda entries, anchor_area, slope: (entries, anchor_area, slope),
    st.dictionaries(st.integers(min_value=1, max_value=400),
                    st.integers(min_value=1, max_value=100_000),
                    min_size=2, max_size=24),
    st.floats(min_value=10.0, max_value=1e5, allow_nan=False),
    st.floats(min_value=0.05, max_value=40.0, allow_nan=False))


@given(area_families)
@settings(max_examples=120, deadline=None)
def test_area_estimate_batch_matches_scalar_recursion_exactly(family):
    register_counts, anchor_area, slope = family
    keys = sorted(register_counts)
    first, second = keys[0], keys[1]
    if register_counts[first] == register_counts[second]:
        register_counts[second] = register_counts[first] + 1
    model = RegisterAreaModel(size_reg_luts=4.0)
    # two reference syntheses consistent with a positive alpha
    growth = abs(register_counts[second] - register_counts[first]) * slope
    low, high = sorted((register_counts[first], register_counts[second]))
    if register_counts[first] == high:
        # anchor (smallest key) has the larger register count: area shrinks
        model.calibrate([
            CalibrationPoint(first, register_counts[first],
                             anchor_area + growth),
            CalibrationPoint(second, register_counts[second], anchor_area),
        ])
    else:
        model.calibrate([
            CalibrationPoint(first, register_counts[first], anchor_area),
            CalibrationPoint(second, register_counts[second],
                             anchor_area + growth),
        ])

    reference = reference_estimate_series(model, register_counts)
    batch = model.estimate_batch(
        np.asarray(keys, dtype=np.int64),
        np.asarray([register_counts[k] for k in keys], dtype=np.int64))
    assert [float(value) for value in batch] == [reference[k] for k in keys]

    series = model.estimate_series(register_counts)
    assert [e.estimated_area_luts for e in series] == [reference[k]
                                                       for k in keys]


def test_area_estimate_batch_validates_inputs():
    model = RegisterAreaModel(size_reg_luts=4.0)
    import pytest
    with pytest.raises(RuntimeError, match="calibrate"):
        model.estimate_batch(np.asarray([1]), np.asarray([10]))
    model.calibrate([CalibrationPoint(1, 10, 100.0),
                     CalibrationPoint(4, 40, 220.0)])
    with pytest.raises(ValueError, match="unique"):
        model.estimate_batch(np.asarray([1, 1]), np.asarray([10, 20]))
    with pytest.raises(ValueError, match="equal length"):
        model.estimate_batch(np.asarray([1, 2]), np.asarray([10]))


# ---------------------------------------------------------------------- #
# throughput model


def reference_compute_cycles(model, architecture, cone_performance):
    """The per-point per-level accumulation, written out longhand."""
    executions_per_level = architecture.executions_per_level()
    cycles = 0.0
    for level_index, depth in enumerate(architecture.level_depths):
        perf = cone_performance[depth]
        instances = architecture.cone_counts.get(depth, 1)
        executions = executions_per_level[level_index]
        serialised = math.ceil(executions / max(1, instances))
        interval = model.execution_interval_cycles(architecture, depth, perf)
        cycles += perf.latency_cycles + serialised * interval
    return cycles


throughput_cases = st.builds(
    lambda window, iterations, depth, counts, latency, radius, components: (
        window, iterations, min(depth, iterations), counts, latency,
        radius, components),
    st.integers(min_value=1, max_value=6),    # window side
    st.integers(min_value=1, max_value=9),    # total iterations
    st.integers(min_value=1, max_value=4),    # primary depth
    st.integers(min_value=1, max_value=8),    # max instance count
    st.integers(min_value=1, max_value=24),   # cone latency (cycles)
    st.integers(min_value=1, max_value=2),    # stencil radius
    st.integers(min_value=1, max_value=3))    # state components


def reference_figures(model, architecture, cone_performance, frame_width,
                      frame_height):
    """One architecture's count-dependent figures, written out longhand
    from the per-level accumulation."""
    compute = reference_compute_cycles(model, architecture, cone_performance)
    transfer, _bytes = model.transfer_cycles_per_tile(architecture)
    cycles = max(compute, transfer) + model.tile_overhead_cycles
    seconds = (cycles * model.tiles_per_frame(architecture, frame_width,
                                              frame_height)
               / model.device.typical_clock_hz)
    return {"compute_cycles_per_tile": compute, "cycles_per_tile": cycles,
            "seconds_per_frame": seconds,
            "frames_per_second": 1.0 / seconds if seconds > 0 else 0.0,
            "compute_bound": compute >= transfer}


@given(throughput_cases)
@settings(max_examples=120, deadline=None)
def test_throughput_estimate_batch_matches_the_longhand_model(case):
    window, iterations, depth, max_count, latency, radius, components = case
    split = single_depth_split(iterations, depth)
    depths = sorted(set(split))
    primary = depths[-1]
    model = ThroughputModel(VIRTEX6_XC6VLX760, DataFormat.FIXED16,
                            readonly_components=components - 1)
    cone_performance = {
        d: ConePerformance(d, window, latency_cycles=latency + d)
        for d in depths
    }
    group = [ConeArchitecture(kernel_name="k", window_side=window,
                              level_depths=list(split),
                              cone_counts={**{d: 1 for d in depths},
                                           primary: count},
                              radius=radius, components=components)
             for count in range(1, max_count + 1)]

    columns = model.estimate_batch(
        group[0], cone_performance, 320, 240,
        np.arange(1, max_count + 1, dtype=np.int64))
    for index, architecture in enumerate(group):
        # each architecture's own one-count call, bit-identical column by
        # column
        own = model.estimate_batch(architecture, cone_performance, 320, 240,
                                   np.asarray([index + 1], dtype=np.int64))
        for name, column in columns.items():
            if isinstance(column, np.ndarray):
                assert column[index].tobytes() == own[name][0].tobytes(), name
            else:
                assert column == own[name], name
        # ... and identical to the longhand per-level accumulation
        reference = reference_figures(model, architecture, cone_performance,
                                      320, 240)
        for name, value in reference.items():
            assert columns[name][index].item() == value, name


def test_throughput_estimate_batch_rejects_matrix_counts():
    import pytest
    model = ThroughputModel(VIRTEX6_XC6VLX760, DataFormat.FIXED16)
    architecture = ConeArchitecture(kernel_name="k", window_side=2,
                                    level_depths=[1], cone_counts={1: 1},
                                    radius=1)
    performance = {1: ConePerformance(1, 2, latency_cycles=3)}
    with pytest.raises(ValueError, match="1-D"):
        model.estimate_batch(architecture, performance, 64, 64,
                             np.ones((2, 2), dtype=np.int64))
