"""Unit tests for the FPGA device models."""

import pytest

from repro.api import Workload
from repro.ir.operators import ResourceVector
from repro.synth.fpga_device import (
    DEVICE_CATALOG,
    SPARTAN6_XC6SLX45,
    VIRTEX2P_XC2VP30,
    VIRTEX6_XC6VLX760,
    FpgaDevice,
    resolve_device,
)

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3)


def test_catalog_contains_paper_devices():
    assert "XC6VLX760" in DEVICE_CATALOG
    assert "XC2VP30" in DEVICE_CATALOG


def test_device_lookup_case_insensitive():
    assert resolve_device("xc6vlx760") is VIRTEX6_XC6VLX760
    with pytest.raises(KeyError):
        resolve_device("XC7Z020")


def test_every_catalog_device_is_resolvable():
    for name in ("XC6VLX760", "XC6VLX240T", "XC2VP30", "XC6SLX45"):
        assert resolve_device(name) is DEVICE_CATALOG[name]


def test_device_instances_pass_through():
    assert resolve_device(SPARTAN6_XC6SLX45) is SPARTAN6_XC6SLX45


def test_unknown_device_is_a_key_error_listing_the_catalog():
    with pytest.raises(KeyError, match="unknown device 'XC999'.*XC6VLX760"):
        resolve_device("XC999")


def test_workload_accepts_catalog_device_names():
    workload = Workload.from_algorithm("blur", device="xc2vp30", **SMALL)
    assert workload.device is VIRTEX2P_XC2VP30


def test_a_custom_board_is_passed_as_the_model():
    board = FpgaDevice(
        name="TEST9000", family="Test", slice_luts=1000, slice_ffs=2000,
        dsp_slices=4, bram_kbits=100, typical_clock_hz=1e8,
        offchip_bandwidth_bytes_per_s=1e9)
    workload = Workload.from_algorithm("blur", device=board, **SMALL)
    assert workload.device is board
    # the wire format carries the full model, not a name to look up
    assert Workload.from_dict(workload.to_dict()) == workload
    with pytest.raises(KeyError, match="TEST9000"):
        resolve_device("TEST9000")


def test_virtex6_is_much_larger_than_virtex2pro():
    assert VIRTEX6_XC6VLX760.slice_luts > 10 * VIRTEX2P_XC2VP30.slice_luts
    assert (VIRTEX6_XC6VLX760.onchip_memory_bytes
            > VIRTEX2P_XC2VP30.onchip_memory_bytes)


def test_capacity_vector_and_usable_fraction():
    device = VIRTEX6_XC6VLX760
    assert device.capacity.luts == device.slice_luts
    assert device.usable_capacity.luts == pytest.approx(
        device.slice_luts * device.usable_fraction)


def test_paper_clock_frequency():
    """The design-space tables of the paper run the Virtex-6 at 97.16 MHz."""
    assert VIRTEX6_XC6VLX760.typical_clock_hz == pytest.approx(97.16e6, rel=1e-3)


def test_max_instances():
    device = VIRTEX6_XC6VLX760
    unit = ResourceVector(luts=100_000, ffs=10_000)
    assert device.max_instances(unit) == 4
    tiny = ResourceVector(luts=1)
    assert device.max_instances(tiny) > 100_000
    assert device.max_instances(ResourceVector()) == 0


def test_onchip_memory_too_small_for_a_1024x768_frame():
    """The premise of the paper: whole frames do not fit in on-chip memory."""
    frame_bytes = 1024 * 768 * 4
    assert VIRTEX6_XC6VLX760.onchip_memory_bytes < 2 * frame_bytes
    assert VIRTEX2P_XC2VP30.onchip_memory_bytes < frame_bytes
