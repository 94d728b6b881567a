"""Table II configuration encodings."""

import pytest

from repro.config.dram import DDR4_3200, HBM2, scaled_dram
from repro.config.schemes import BackendTopology, NomadConfig, TDCConfig, TiDConfig
from repro.config.system import CacheConfig, paper_system, scaled_system


def test_paper_system_matches_table2():
    cfg = paper_system()
    assert cfg.num_cores == 8
    assert cfg.l1.size_bytes == 32 * 1024
    assert cfg.l2.size_bytes == 256 * 1024
    assert cfg.l3.size_bytes == 16 * 1024 * 1024
    assert cfg.hbm.name == "HBM2"
    assert cfg.ddr.name == "DDR4-3200"
    assert cfg.dc_pages == (4 * 1024**3) // 4096


def test_hbm_outbandwidths_ddr():
    # The heterogeneous-memory premise: on-package >> off-package.
    assert HBM2.peak_gbps() > 4 * DDR4_3200.peak_gbps()


def test_ddr_peak_bandwidth():
    assert DDR4_3200.peak_gbps() == pytest.approx(25.6)


def test_scaled_system_preserves_ratios():
    cfg = scaled_system(num_cores=4, dc_megabytes=64)
    assert cfg.dc_pages == 64 * 1024 * 1024 // 4096
    # L3 shrinks with the DC.
    assert cfg.l3.size_bytes < 16 * 1024 * 1024
    # Timings untouched.
    assert cfg.hbm.burst_ns == HBM2.burst_ns


def test_scaled_dram_keeps_timings():
    small = scaled_dram(HBM2, 8 * 1024 * 1024)
    assert small.capacity_bytes == 8 * 1024 * 1024
    assert small.trcd_ns == HBM2.trcd_ns
    assert small.peak_gbps() == HBM2.peak_gbps()


def test_cache_config_sets():
    c = CacheConfig("x", 64 * 1024, 8, 4, 16)
    assert c.num_sets == 64 * 1024 // (64 * 8)


def test_nomad_config_defaults():
    cfg = NomadConfig()
    assert cfg.num_pcshrs == 16
    assert cfg.resolved_copy_buffers() == 16
    assert cfg.tag_mgmt_latency == 400
    assert cfg.topology == BackendTopology.CENTRALIZED
    assert cfg.frontend_mutex


def test_nomad_config_area_optimized():
    cfg = NomadConfig(num_pcshrs=32, num_copy_buffers=8)
    assert cfg.resolved_copy_buffers() == 8


def test_tid_config_geometry():
    cfg = TiDConfig()
    assert cfg.line_size == 1024
    assert cfg.ways == 4
    assert cfg.sub_blocks_per_line == 16


def test_tdc_config():
    cfg = TDCConfig()
    assert cfg.tag_mgmt_latency == 400


def test_with_cores():
    cfg = paper_system().with_cores(2)
    assert cfg.num_cores == 2


def test_cycles_per_second():
    cfg = paper_system()
    assert cfg.cycles_per_second == pytest.approx(cfg.core.freq_ghz * 1e9)


def test_rows_per_bank_positive():
    assert HBM2.rows_per_bank() > 0
    assert DDR4_3200.rows_per_bank() > 0


def test_dram_cycles_rounds_up():
    assert HBM2.cycles(1.0, 3.6) == 4
    assert HBM2.cycles(0.1, 3.6) == 1


@pytest.mark.parametrize("kwargs, field", [
    ({"num_pcshrs": 0}, "num_pcshrs"),
    ({"num_pcshrs": -1}, "num_pcshrs"),
    ({"num_copy_buffers": 0}, "num_copy_buffers"),
    ({"sub_entries_per_pcshr": 0}, "sub_entries_per_pcshr"),
])
def test_nomad_config_rejects_empty_budgets(kwargs, field):
    with pytest.raises(ValueError, match=f"NomadConfig.{field} must be at least 1"):
        NomadConfig(**kwargs)
    with pytest.raises(ValueError, match=field):
        NomadConfig.from_dict({**NomadConfig().to_dict(), **kwargs})


def test_nomad_config_accepts_smallest_budgets():
    cfg = NomadConfig(num_pcshrs=1, num_copy_buffers=1, sub_entries_per_pcshr=1)
    assert cfg.resolved_copy_buffers() == 1
    assert NomadConfig(num_copy_buffers=None).resolved_copy_buffers() == 16
