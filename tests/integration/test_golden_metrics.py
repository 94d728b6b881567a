"""Golden-metrics determinism: fixed seeds must be bit-identical.

The perf work inlines several hot paths (event loop, SRAM probes, MSHR
allocation, DRAM bank state machine) under the invariant that none of it
may change the simulated event stream.  These tests pin that invariant:

* every entry in ``tests/golden/golden_metrics.json`` must reproduce its
  recorded :class:`MachineResult` *exactly* (``to_dict`` equality, no
  tolerances), and
* two fresh interpreter processes given the same seed must emit
  byte-identical JSON (guards against accidental dependence on hash
  randomization, set ordering, or interpreter state).

If an intentional model change shifts these numbers, regenerate the
golden file with ``PYTHONPATH=src python tests/golden/regen.py`` in the
same commit and say so in the commit message.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.runner import (
    RunConfig,
    cache_stats,
    clear_cache,
    clear_snapshot_cache,
    run_workload,
)
from repro.workloads.synthetic import clear_trace_cache

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "golden_metrics.json"

with GOLDEN_PATH.open() as f:
    _GOLDEN = json.load(f)

_IDS = [
    f"{e['config']['scheme']}-{e['config']['workload']}-s{e['config']['seed']}"
    for e in _GOLDEN["entries"]
]


@pytest.mark.parametrize("entry", _GOLDEN["entries"], ids=_IDS)
def test_golden_entry_bit_identical(entry):
    # Memoized results/traces/snapshots would mask a divergence in the
    # fresh path.
    clear_cache()
    clear_trace_cache()
    clear_snapshot_cache()
    cfg = RunConfig.from_dict(entry["config"])
    result = run_workload(cfg)
    assert result.to_dict() == entry["expected"]


# Schemes the snapshot cache forks (see repro.snapshot: baseline is
# fork-unprofitable and always builds fresh).
_FORKABLE = [
    e for e in _GOLDEN["entries"] if e["config"]["scheme"] != "baseline"
]
_FORK_IDS = [
    f"{e['config']['scheme']}-{e['config']['workload']}-s{e['config']['seed']}"
    for e in _FORKABLE
]


@pytest.mark.parametrize("entry", _FORKABLE, ids=_FORK_IDS)
def test_golden_entry_forked_bit_identical(entry):
    """A run served by forking a machine snapshot matches the golden
    numbers exactly -- the cache must be invisible in every result."""
    clear_cache()
    clear_trace_cache()
    clear_snapshot_cache()
    cfg = RunConfig.from_dict(entry["config"])
    # Prime the snapshot cache with a different-ROI run of the same
    # build key, then run the golden config: it must take the fork path.
    run_workload(cfg.with_(seed=cfg.seed + 1))
    assert cache_stats()["snapshot"]["stores"] == 1
    result = run_workload(cfg)
    assert cache_stats()["snapshot"]["hits"] == 1
    assert result.to_dict() == entry["expected"]
    clear_snapshot_cache()


def _run_cli_json(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    out = subprocess.run(
        [
            sys.executable, "-m", "repro", "run",
            "--scheme", "nomad", "--workload", "cact",
            "--ops", "800", "--cores", "2", "--dc-mb", "16",
            "--seed", str(seed), "--json",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(out.stdout)


def test_cross_process_determinism():
    """Two fresh processes, same seed -> identical result payloads."""
    first = _run_cli_json(seed=3)
    second = _run_cli_json(seed=3)
    assert first == second
    # Sanity: the payload is a real run, not an empty stub.
    assert first["result"]["instructions"] > 0
