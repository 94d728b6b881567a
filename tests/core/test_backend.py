"""Back-end hardware: interface admission, page copies, data misses."""

import random
from collections import deque

import pytest

from repro.common.types import TrafficClass
from repro.config.dram import DDR4_3200, HBM2, scaled_dram
from repro.config.schemes import NomadConfig
from repro.core.backend import Backend
from repro.core.pcshr import CommandType
from repro.dram.device import DRAMDevice
from repro.guard.checkers import check_pcshrs


def make_backend(sim, **cfg_kw):
    cfg = NomadConfig(**cfg_kw)
    hbm = DRAMDevice(sim, "hbm", scaled_dram(HBM2, 1 << 26), 3.6)
    ddr = DRAMDevice(sim, "ddr", scaled_dram(DDR4_3200, 1 << 28), 3.6)
    return Backend(sim, cfg, hbm, ddr), hbm, ddr


def test_fill_accepts_and_resumes_immediately(sim):
    be, hbm, ddr = make_backend(sim, num_pcshrs=4)
    events = []
    be.fill(1, 2, 0, on_offloaded=lambda: events.append(("off", sim.now)),
            on_resume=lambda t: events.append(("res", t)))
    assert events == [("off", 0), ("res", 0)]
    assert be.outstanding_copies == 1


def test_fill_moves_page_through_both_devices(sim):
    be, hbm, ddr = make_backend(sim, num_pcshrs=4)
    be.fill(1, 2, 0, on_offloaded=lambda: None, on_resume=lambda t: None)
    sim.run()
    assert ddr.bytes_by_class()[TrafficClass.FILL] == 4096  # reads
    assert hbm.bytes_by_class()[TrafficClass.FILL] == 4096  # writes
    assert be.outstanding_copies == 0


def test_writeback_moves_page_out(sim):
    be, hbm, ddr = make_backend(sim, num_pcshrs=4)
    be.writeback(1, 2, on_offloaded=lambda: None)
    sim.run()
    assert hbm.bytes_by_class()[TrafficClass.WRITEBACK] == 4096
    assert ddr.bytes_by_class()[TrafficClass.WRITEBACK] == 4096


def test_interface_blocks_without_free_pcshr(sim):
    be, _, _ = make_backend(sim, num_pcshrs=1)
    accepted = []
    be.fill(1, 2, 0, lambda: accepted.append(1), lambda t: None)
    be.fill(3, 4, 0, lambda: accepted.append(2), lambda t: None)
    assert accepted == [1]
    assert be.interface_busy
    sim.run()  # first copy completes, second admitted
    assert accepted == [1, 2]


def test_command_wait_recorded(sim):
    be, _, _ = make_backend(sim, num_pcshrs=1)
    be.fill(1, 2, 0, lambda: None, lambda t: None)
    be.fill(3, 4, 0, lambda: None, lambda t: None)
    sim.run()
    wait = be.stats.get("command_wait")
    assert wait.count == 2
    assert wait.max > 0


def test_same_cfn_command_defers(sim):
    """A second command for an in-flight CFN waits for completion."""
    be, _, _ = make_backend(sim, num_pcshrs=4)
    order = []
    be.fill(1, 2, 0, lambda: order.append("fill"), lambda t: None)
    be.writeback(1, 2, on_offloaded=lambda: order.append("wb"))
    assert order == ["fill"]
    sim.run()
    assert order == ["fill", "wb"]


def test_probe_matches_only_inflight(sim):
    be, _, _ = make_backend(sim, num_pcshrs=4)
    be.fill(7, 2, 0, lambda: None, lambda t: None)
    assert be.probe(7) is not None
    assert be.probe(8) is None
    sim.run()
    assert be.probe(7) is None  # completed


def test_frame_busy_only_for_fills(sim):
    be, _, _ = make_backend(sim, num_pcshrs=4)
    be.fill(1, 2, 0, lambda: None, lambda t: None)
    be.writeback(3, 4, on_offloaded=lambda: None)
    assert be.frame_busy(1)
    assert not be.frame_busy(3)  # writeback does not block eviction scans


def test_read_data_miss_waits_for_arrival(sim):
    be, _, _ = make_backend(sim, num_pcshrs=4)
    be.fill(1, 2, 0, lambda: None, lambda t: None)
    pcshr = be.probe(1)
    done = []
    be.read_data_miss(pcshr, 63, done.append)  # last sub-block
    assert not done
    sim.run()
    assert done
    assert be.stats.get("sub_entry_waits").value == 1


def test_read_data_miss_buffer_hit(sim):
    be, _, _ = make_backend(sim, num_pcshrs=4)
    be.fill(1, 2, sub_block=9, on_offloaded=lambda: None, on_resume=lambda t: None)
    pcshr = be.probe(1)
    arrival = pcshr.buffer_ready_time(9)  # prioritized: earliest
    done = []

    def later():
        be.read_data_miss(pcshr, 9, done.append)

    sim.schedule_at(arrival + 1, later)
    sim.run()
    assert done
    assert be.stats.get("buffer_hits").value == 1


def test_critical_data_first_earliest_arrival(sim):
    be, _, _ = make_backend(sim, num_pcshrs=1)
    be.fill(1, 2, sub_block=40, on_offloaded=lambda: None, on_resume=lambda t: None)
    pcshr = be.probe(1)
    arrivals = pcshr.arrival_times
    assert arrivals[40] == min(arrivals)


def test_no_critical_data_first_sequential(sim):
    be, _, _ = make_backend(sim, num_pcshrs=1, critical_data_first=False)
    be.fill(1, 2, sub_block=40, on_offloaded=lambda: None, on_resume=lambda t: None)
    arrivals = be.probe(1).arrival_times
    assert arrivals[0] == min(arrivals)


def test_write_data_miss_merges_into_buffer(sim):
    be, _, _ = make_backend(sim, num_pcshrs=4)
    be.fill(1, 2, 0, lambda: None, lambda t: None)
    pcshr = be.probe(1)
    t = be.write_data_miss(pcshr, 50)
    assert t >= sim.now
    assert pcshr.sub_block_in_buffer(50, now=sim.now)
    assert be.stats.get("buffer_write_merges").value == 1


def test_buffer_hit_ratio_counts_merges(sim):
    be, _, _ = make_backend(sim, num_pcshrs=4)
    be.fill(1, 2, 0, lambda: None, lambda t: None)
    pcshr = be.probe(1)
    be.write_data_miss(pcshr, 50)
    be.read_data_miss(pcshr, 63, lambda t: None)
    assert be.buffer_hit_ratio() == pytest.approx(0.5)
    sim.run()


def test_area_optimized_waits_for_buffer(sim):
    be, _, _ = make_backend(sim, num_pcshrs=4, num_copy_buffers=1)
    accepted = []
    be.fill(1, 2, 0, lambda: accepted.append(1), lambda t: None)
    be.fill(3, 4, 0, lambda: accepted.append(2), lambda t: None)
    # Both commands accepted (PCSHRs free)...
    assert accepted == [1, 2]
    # ...but only one copy launched (one buffer).
    p2 = be.probe(3)
    assert not p2.launched
    sim.run()
    assert be.outstanding_copies == 0


def test_area_optimized_pending_read_serviced(sim):
    be, _, _ = make_backend(sim, num_pcshrs=4, num_copy_buffers=1)
    be.fill(1, 2, 0, lambda: None, lambda t: None)
    be.fill(3, 4, 0, lambda: None, lambda t: None)
    p2 = be.probe(3)
    done = []
    be.read_data_miss(p2, 0, done.append)
    assert not done  # not even launched
    sim.run()
    assert done


def test_serve_from_copy_buffer_ablation(sim):
    be, _, _ = make_backend(sim, num_pcshrs=4, serve_from_copy_buffer=False)
    be.fill(1, 2, 0, lambda: None, lambda t: None)
    pcshr = be.probe(1)
    done = []
    be.read_data_miss(pcshr, 0, done.append)
    sim.run()
    assert done
    assert be.stats.get("buffer_hits").value == 0


def test_fill_and_writeback_counters(sim):
    be, _, _ = make_backend(sim, num_pcshrs=8)
    be.fill(1, 2, 0, lambda: None, lambda t: None)
    be.writeback(3, 4, on_offloaded=lambda: None)
    assert be.stats.get("fill_commands").value == 1
    assert be.stats.get("writeback_commands").value == 1
    sim.run()


# -- on-demand PCSHR file --------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("num_pcshrs, num_copy_buffers", [(1, None), (3, None), (4, 2)])
def test_admission_order_matches_prefilled_deque(sim, seed, num_pcshrs, num_copy_buffers):
    """Registers are created on first use, yet every command gets the
    index a deque pre-filled with all registers would have given it:
    never-used registers in index order, then released ones FIFO."""
    be, _, _ = make_backend(sim, num_pcshrs=num_pcshrs,
                            num_copy_buffers=num_copy_buffers)
    log = []
    complete = be._complete

    def _logged_complete(pcshr):
        log.append(("release", pcshr.index))
        complete(pcshr)

    be._complete = _logged_complete
    rng = random.Random(seed)
    for _ in range(40):
        cfn, pfn, sub = rng.randrange(6), rng.randrange(100), rng.randrange(64)

        def admitted(cfn=cfn):
            log.append(("admit", be.probe(cfn).index))

        if rng.random() < 0.6:
            send = lambda c=cfn, p=pfn, s=sub, a=admitted: be.fill(
                c, p, s, a, lambda t: None)
        else:
            send = lambda c=cfn, p=pfn, a=admitted: be.writeback(c, p, a)
        sim.schedule_at(rng.randrange(20_000), send)
    sim.run()

    reference = deque(range(num_pcshrs))
    for event, index in log:
        if event == "admit":
            assert index == reference.popleft()
        else:
            reference.append(index)
    admits = [index for event, index in log if event == "admit"]
    assert len(admits) == 40
    # Exactly the registers some command used were created.
    assert [p.index for p in be.pcshrs] == sorted(set(admits))
    # The budget was spent, so the later admits reused released registers.
    assert len(be.pcshrs) == num_pcshrs
    assert be.free_pcshrs == num_pcshrs
    assert check_pcshrs(be, sim) == []


def test_no_register_before_first_command(sim):
    be, _, _ = make_backend(sim, num_pcshrs=1 << 16)
    assert be.pcshrs == [] and be.free_pcshrs == 1 << 16
    assert be.guard_state()["free_pcshrs"] == 1 << 16
    assert not be.interface_busy
    be.fill(1, 2, 0, lambda: None, lambda t: None)
    assert len(be.pcshrs) == 1 and be.free_pcshrs == (1 << 16) - 1
    sim.run()
    assert len(be.pcshrs) == 1 and be.free_pcshrs == 1 << 16
