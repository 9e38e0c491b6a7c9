"""Timing analysis of synthesised cones."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.scheduling import Schedule
from repro.synth.fpga_device import FpgaDevice


@dataclass(frozen=True)
class TimingReport:
    """Timing outcome for a datapath on a given device."""

    critical_path_ns: float
    clock_period_ns: float
    achieved_frequency_hz: float
    pipeline_stages: int
    latency_cycles: int
    latency_seconds: float
    initiation_interval: int


class TimingModel:
    """Computes achievable clocking and latency of a cone on a device.

    The flow targets the device's typical system clock (the paper's tables use
    97.16 MHz on the Virtex-6) and pipelines the cone until every stage meets
    that period; the resulting pipeline depth is the core latency.
    """

    def __init__(self, device: FpgaDevice) -> None:
        self.device = device

    @property
    def target_period_ns(self) -> float:
        return 1e9 / self.device.typical_clock_hz

    def analyze(self, schedule: Schedule) -> TimingReport:
        """Timing of a cone pipelined by ``schedule`` at the target period."""
        frequency = min(self.device.typical_clock_hz, schedule.max_frequency_hz)
        latency_s = schedule.latency_cycles / frequency if frequency > 0 else float("inf")
        return TimingReport(
            critical_path_ns=schedule.critical_path_ns,
            clock_period_ns=self.target_period_ns,
            achieved_frequency_hz=frequency,
            pipeline_stages=schedule.pipeline_stages,
            latency_cycles=schedule.latency_cycles,
            latency_seconds=latency_s,
            initiation_interval=schedule.initiation_interval,
        )
