"""Whole-GPU simulation driver.

The paper simulates 16 SMs; every SM runs the same kernel on its share
of the grid, so per-SM behaviour is statistically identical and every
figure is a per-SM ratio. The driver therefore simulates one SM — SM
0 — and gives it the CTAs a ``num_sms``-SM GPU would assign it
round-robin (ctaid = 0, num_sms, 2·num_sms, ...).
``max_ctas_per_sm_sim`` optionally caps the simulated waves —
experiments use a few waves of CTAs, which is enough for steady-state
behaviour while keeping pure-Python simulation fast.

:func:`simulate` is the main entry point used by examples, tests and
the benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch import GPUConfig
from repro.isa.kernel import Kernel
from repro.launch import LaunchConfig
from repro.sim.core import SMCore
from repro.sim.memory import GlobalMemory
from repro.sim.stats import SimStats


@dataclass
class SimulationResult:
    """Outcome of one kernel launch simulation."""

    stats: SimStats
    config: GPUConfig
    launch: LaunchConfig
    mode: str
    ctas_simulated: int

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions


class GPU:
    """A GPU executing one kernel launch, simulated as its SM 0."""

    def __init__(
        self,
        config: GPUConfig,
        kernel: Kernel,
        launch: LaunchConfig,
        mode: str = "baseline",
        threshold: int = 0,
        max_ctas_per_sm_sim: int | None = None,
        sample_interval: int = 0,
        trace_warp_slots: tuple[int, ...] = (),
        spill_enabled: bool = True,
        cycle_skip: bool | None = None,
    ):
        self.config = config
        self.launch = launch
        self.mode = mode
        self.gmem = GlobalMemory()
        self.core = SMCore(
            config,
            kernel,
            launch,
            mode=mode,
            threshold=threshold,
            gmem=self.gmem,
            sample_interval=sample_interval,
            trace_warp_slots=trace_warp_slots,
            spill_enabled=spill_enabled,
            cycle_skip=cycle_skip,
        )
        waves = math.ceil(launch.grid_ctas / config.num_sms)
        if max_ctas_per_sm_sim is not None:
            waves = min(waves, max_ctas_per_sm_sim)
        self.core.cta_queue = [
            wave * config.num_sms
            for wave in range(waves)
            if wave * config.num_sms < launch.grid_ctas
        ]
        self.ctas_simulated = len(self.core.cta_queue)

    def run(self, max_cycles: int = 50_000_000) -> SimulationResult:
        """Simulate SM 0's share of the launch to completion."""
        stats = self.core.run(max_cycles=max_cycles)
        return SimulationResult(
            stats=stats,
            config=self.config,
            launch=self.launch,
            mode=self.mode,
            ctas_simulated=self.ctas_simulated,
        )


def simulate(
    kernel: Kernel,
    launch: LaunchConfig,
    config: GPUConfig | None = None,
    mode: str = "baseline",
    threshold: int = 0,
    max_ctas_per_sm_sim: int | None = None,
    sample_interval: int = 0,
    trace_warp_slots: tuple[int, ...] = (),
    spill_enabled: bool = True,
    max_cycles: int = 50_000_000,
    cycle_skip: bool | None = None,
) -> SimulationResult:
    """Simulate one kernel launch and return its statistics.

    ``mode`` selects register management: ``baseline`` (conventional,
    pin-per-CTA), ``flags`` (the paper's virtualization; the kernel
    should be compiled with release metadata and ``threshold`` set to
    the compile-time exemption count), or ``redefine`` (hardware-only
    renaming [46]).
    """
    gpu = GPU(
        config or GPUConfig.baseline(),
        kernel,
        launch,
        mode=mode,
        threshold=threshold,
        max_ctas_per_sm_sim=max_ctas_per_sm_sim,
        sample_interval=sample_interval,
        trace_warp_slots=trace_warp_slots,
        spill_enabled=spill_enabled,
        cycle_skip=cycle_skip,
    )
    return gpu.run(max_cycles=max_cycles)
