"""to_dict/from_dict round trips for configs and results."""

import json

import pytest

from repro.campaign import RunRecord, run_campaign
from repro.campaign.executor import QUARANTINED
from repro.config.schemes import (
    BackendTopology,
    NomadConfig,
    TDCConfig,
    TiDConfig,
)
from repro.harness.runner import RunConfig, run_workload
from repro.service.protocol import record_to_item
from repro.system.machine import MachineResult


def _json_round_trip(obj):
    return json.loads(json.dumps(obj))


def test_nomad_config_round_trip_with_enum():
    cfg = NomadConfig(num_pcshrs=8, num_copy_buffers=4,
                      topology=BackendTopology.DISTRIBUTED)
    d = _json_round_trip(cfg.to_dict())
    assert d["topology"] == "distributed"
    assert NomadConfig.from_dict(d) == cfg


def test_tdc_and_tid_round_trip():
    for cfg in (TDCConfig(max_parallel_copies=8), TiDConfig(ways=8)):
        assert type(cfg).from_dict(_json_round_trip(cfg.to_dict())) == cfg


def test_run_config_round_trip_nested():
    cfg = RunConfig(
        scheme="nomad", workload="sop", num_mem_ops=300, num_cores=2,
        dc_megabytes=8, seed=3, prewarm=False,
        nomad_cfg=NomadConfig(num_pcshrs=8),
        tdc_cfg=TDCConfig(),
        tid_cfg=TiDConfig(),
    )
    back = RunConfig.from_dict(_json_round_trip(cfg.to_dict()))
    assert back == cfg


def test_run_config_round_trip_none_nested():
    cfg = RunConfig(scheme="baseline", workload="sop")
    d = cfg.to_dict()
    assert d["nomad_cfg"] is None
    assert RunConfig.from_dict(d) == cfg


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        RunConfig.from_dict({"scheme": "baseline", "workload": "sop",
                             "warp_drive": True})
    with pytest.raises(ValueError, match="unknown keys"):
        NomadConfig.from_dict({"num_pcshrs": 8, "bogus": 1})


def test_dict_is_stable_cache_key_material():
    a = RunConfig(scheme="nomad", workload="sop",
                  nomad_cfg=NomadConfig(num_pcshrs=8))
    b = RunConfig(scheme="nomad", workload="sop",
                  nomad_cfg=NomadConfig(num_pcshrs=8))
    assert json.dumps(a.to_dict(), sort_keys=True) == \
        json.dumps(b.to_dict(), sort_keys=True)


def test_machine_result_round_trip():
    res = run_workload(RunConfig(scheme="baseline", workload="sop",
                                 num_mem_ops=300, num_cores=2,
                                 dc_megabytes=8))
    back = MachineResult.from_dict(_json_round_trip(res.to_dict()))
    assert back == res


def test_machine_result_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        MachineResult.from_dict({"nope": 1})


def test_run_record_wire_round_trip():
    cfg = RunConfig(scheme="nomad", workload="sop", num_mem_ops=300,
                    num_cores=2, dc_megabytes=8)
    observed = run_campaign([cfg], telemetry=True).records[0]
    assert observed.telemetry and observed.result is not None
    quarantined = RunRecord(
        3, cfg.with_(seed=2), QUARANTINED, source="store",
        error="InvariantViolation: leaked MSHR", attempts=2,
        failure_kind="invariant", bundle_path="/bundles/nomad-sop.json",
    )
    failed = run_campaign([cfg.with_(num_mem_ops=-5)]).records[0]
    assert "Traceback" in failed.traceback
    for rec in (observed, quarantined, failed):
        item = _json_round_trip(record_to_item(rec, rec.index))
        assert RunRecord.from_dict(item, rec.index) == rec
