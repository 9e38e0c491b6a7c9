"""Unit tests for the memory hierarchy models of the cycle oracle."""

import pytest

from cycle_oracle import OffChipMemoryModel, OnChipBufferModel

from repro.synth.fpga_device import VIRTEX6_XC6VLX760


class TestOffChipMemory:
    def test_transfer_accounting(self):
        memory = OffChipMemoryModel(VIRTEX6_XC6VLX760, bytes_per_element=4)
        record = memory.transfer(1000, "tile load")
        assert record.bytes == 4000
        assert record.cycles == pytest.approx(4000 / memory.bytes_per_cycle)
        memory.transfer(500)
        assert memory.total_bytes == 6000
        assert memory.total_cycles > record.cycles
        memory.reset()
        assert memory.total_bytes == 0

    def test_bytes_per_cycle_derived_from_device(self):
        memory = OffChipMemoryModel(VIRTEX6_XC6VLX760)
        expected = (VIRTEX6_XC6VLX760.offchip_bandwidth_bytes_per_s
                    / VIRTEX6_XC6VLX760.typical_clock_hz)
        assert memory.bytes_per_cycle == pytest.approx(expected)


class TestOnChipBuffer:
    def test_access_cycles_rounding(self):
        buffer = OnChipBufferModel(capacity_bytes=1 << 20, elements_per_cycle=16)
        assert buffer.access_cycles(0) == 0
        assert buffer.access_cycles(16) == 1
        assert buffer.access_cycles(17) == 2

    def test_occupancy_tracking_and_overflow(self):
        buffer = OnChipBufferModel(capacity_bytes=1000, bytes_per_element=4)
        buffer.occupy(100)
        assert buffer.peak_occupancy_bytes == 400
        assert buffer.fits
        with pytest.raises(MemoryError):
            buffer.occupy(300)
        assert buffer.peak_occupancy_bytes == 1200
        assert not buffer.fits
