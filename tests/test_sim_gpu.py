"""GPU driver tests: SM 0's grid share, wave cap, result fields."""

from repro.arch import GPUConfig
from repro.launch import LaunchConfig
from repro.sim.gpu import GPU, simulate


def test_round_robin_cta_distribution(straight_kernel):
    launch = LaunchConfig(40, 32, conc_ctas_per_sm=2)
    gpu = GPU(GPUConfig.baseline(), straight_kernel, launch,
              mode="baseline")
    # 40 CTAs over 16 SMs: SM 0 gets ctaids 0, 16, 32.
    assert gpu.core.cta_queue == [0, 16, 32]
    assert gpu.ctas_simulated == 3


def test_wave_cap_limits_ctas(straight_kernel):
    launch = LaunchConfig(64, 32, conc_ctas_per_sm=2)
    gpu = GPU(GPUConfig.baseline(), straight_kernel, launch,
              mode="baseline", max_ctas_per_sm_sim=2)
    assert gpu.core.cta_queue == [0, 16]
    assert gpu.ctas_simulated == 2


def test_result_fields(straight_kernel):
    launch = LaunchConfig(4, 32, conc_ctas_per_sm=1)
    result = simulate(straight_kernel.clone(), launch, mode="baseline")
    assert result.mode == "baseline"
    assert result.cycles == result.stats.cycles
    assert result.instructions == result.stats.instructions
    assert result.launch is launch


def test_stores_land_in_gpu_global_memory(barrier_kernel):
    launch = LaunchConfig(32, 64, conc_ctas_per_sm=1)
    gpu = GPU(GPUConfig.baseline(), barrier_kernel, launch,
              mode="baseline")
    assert gpu.core.gmem is gpu.gmem
    gpu.run()
    assert len(gpu.gmem) > 0
