"""Builder and scheme registry."""

import gc

import pytest

from repro.config.schemes import NomadConfig
from repro.config.system import scaled_system
from repro.engine.simulator import Simulator
from repro.system.builder import SCHEME_REGISTRY, build_machine, make_scheme


def test_registry_contents():
    assert set(SCHEME_REGISTRY) == {
        "baseline", "tid", "tdc", "nomad", "ideal", "unthrottled"
    }


def test_make_scheme_unknown_raises(tiny_cfg):
    with pytest.raises(KeyError):
        make_scheme("magic", Simulator(), tiny_cfg)


def test_make_scheme_passes_nomad_cfg(tiny_cfg):
    s = make_scheme("nomad", Simulator(), tiny_cfg, nomad_cfg=NomadConfig(num_pcshrs=2))
    assert s.backend.num_pcshrs == 2


def test_build_machine_by_name(tiny_cfg):
    m = build_machine("baseline", workload_name="sop", cfg=tiny_cfg, num_mem_ops=200)
    r = m.run()
    assert r.workload == "sop"


def test_build_machine_requires_workload(tiny_cfg):
    with pytest.raises(ValueError):
        build_machine("baseline", cfg=tiny_cfg)


def test_prewarm_populates_dc(tiny_cfg):
    m = build_machine("tdc", workload_name="sop", cfg=tiny_cfg, num_mem_ops=100)
    # sop is zipf: its hot set should be pre-cached.
    assert m.scheme.frontend.free_queue.allocated > 0


def test_no_prewarm(tiny_cfg):
    m = build_machine("tdc", workload_name="sop", cfg=tiny_cfg, num_mem_ops=100,
                      prewarm=False)
    assert m.scheme.frontend.free_queue.allocated == 0


def test_default_config_is_scaled():
    m = build_machine("baseline", workload_name="sop", num_mem_ops=50)
    assert m.cfg.num_cores == 4
    assert m.cfg.dc_pages == 16384


def test_ideal_creates_registers_only_when_used(tiny_cfg):
    m = build_machine("ideal", workload_name="cact", cfg=tiny_cfg,
                      num_mem_ops=800)
    backend = m.scheme.backend
    assert backend.num_pcshrs == 1 << 16
    assert backend.pcshrs == []
    used = set()
    launch = backend._launch

    def _recording_launch(pcshr):
        used.add(pcshr.index)
        launch(pcshr)

    backend._launch = _recording_launch
    m.run()
    assert used
    assert len(backend.pcshrs) == len(used)


def _tracked_objects_added_by_build(scheme, cfg):
    gc.collect()
    before = len(gc.get_objects())
    machine = build_machine(scheme, workload_name="cact", cfg=cfg,
                            num_mem_ops=4000)
    gc.collect()
    added = len(gc.get_objects()) - before
    del machine
    return added


def test_ideal_build_allocates_like_nomad():
    """Ideal and NOMAD share the front end and differ only in the back
    end's PCSHR budget (64 Ki vs 16), which costs nothing until a copy
    needs a register.  A ratio of gc-tracked objects is a work counter
    that does not depend on the host or the Python version."""
    cfg = scaled_system(num_cores=4, dc_megabytes=64)
    _tracked_objects_added_by_build("nomad", cfg)  # warm the trace cache
    nomad = _tracked_objects_added_by_build("nomad", cfg)
    ideal = _tracked_objects_added_by_build("ideal", cfg)
    assert ideal <= 1.05 * nomad
