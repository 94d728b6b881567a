"""Distributed back-ends (Fig. 8b / Fig. 16)."""

import pytest

from repro.config.dram import DDR4_3200, HBM2, scaled_dram
from repro.config.schemes import NomadConfig
from repro.core.distributed import DistributedBackend
from repro.dram.device import DRAMDevice


def make(sim, num_backends=4, **cfg_kw):
    cfg = NomadConfig(**cfg_kw)
    hbm = DRAMDevice(sim, "hbm", scaled_dram(HBM2, 1 << 26), 3.6)
    ddr = DRAMDevice(sim, "ddr", scaled_dram(DDR4_3200, 1 << 28), 3.6)
    return DistributedBackend(sim, cfg, hbm, ddr, num_backends=num_backends)


def test_budget_split_evenly(sim):
    d = make(sim, num_backends=4, num_pcshrs=16)
    assert len(d.backends) == 4
    assert all(b.num_pcshrs == 4 for b in d.backends)


def test_commands_route_by_cfn(sim):
    d = make(sim, num_backends=4, num_pcshrs=16)
    for cfn in range(8):
        d.fill(cfn, 100 + cfn, 0, lambda: None, lambda t: None)
    # FIFO cfn allocation spreads uniformly (paper Section III-F).
    assert all(b.outstanding_copies == 2 for b in d.backends)
    sim.run()


def test_probe_routes(sim):
    d = make(sim, num_backends=2, num_pcshrs=4)
    d.fill(3, 100, 0, lambda: None, lambda t: None)
    assert d.probe(3) is not None
    assert d.probe(2) is None
    sim.run()


def test_read_data_miss_routed_to_owner(sim):
    d = make(sim, num_backends=2, num_pcshrs=4)
    d.fill(5, 100, 0, lambda: None, lambda t: None)
    pcshr = d.probe(5)
    done = []
    d.read_data_miss(pcshr, 63, done.append)
    sim.run()
    assert done


def test_frame_busy_routed(sim):
    d = make(sim, num_backends=2, num_pcshrs=4)
    d.fill(5, 100, 0, lambda: None, lambda t: None)
    assert d.frame_busy(5)
    assert not d.frame_busy(4)
    sim.run()


def test_aggregated_buffer_hit_ratio(sim):
    d = make(sim, num_backends=2, num_pcshrs=4)
    d.fill(0, 100, 0, lambda: None, lambda t: None)
    p = d.probe(0)
    d.write_data_miss(p, 1)
    assert d.buffer_hit_ratio() == 1.0
    sim.run()


def test_zero_backends_rejected(sim):
    with pytest.raises(ValueError):
        make(sim, num_backends=0)


def test_command_wait_mean_aggregates(sim):
    d = make(sim, num_backends=2, num_pcshrs=2)
    for cfn in range(6):
        d.fill(cfn, 100 + cfn, 0, lambda: None, lambda t: None)
    sim.run()
    assert d.command_wait_mean() >= 0
