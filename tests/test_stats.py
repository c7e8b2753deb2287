"""SimStats derived-property tests."""

from repro.sim.stats import SimStats


def test_derived_properties_empty():
    stats = SimStats()
    assert stats.dynamic_code_increase == 0.0
    assert stats.mean_subarrays_active == 0.0
    assert stats.ipc == 0.0


def test_dynamic_code_increase():
    stats = SimStats()
    stats.instructions = 100
    stats.pir_decoded = 5
    stats.pbr_decoded = 5
    assert stats.dynamic_metadata == 10
    assert stats.dynamic_code_increase == 0.1


def test_mean_subarrays_active():
    stats = SimStats()
    stats.cycles = 100
    stats.subarray_active_cycles = 400.0
    assert stats.mean_subarrays_active == 4.0
