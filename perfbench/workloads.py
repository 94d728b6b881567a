"""The benchmark's workloads: what one rep runs, and what it must return.

Load shape: closed loop, one client.  The benchmark process drives every
call itself and waits for each answer; the sweep runs serially
(``jobs=1``) through an in-process broker with one runner thread (two
runner threads were slower on a 2-core host: GIL contention).

Cold state: before each timed operation the run memo, the trace cache and
the snapshot cache are cleared, stores and indexes start in a fresh
directory, and ``gc.collect()`` runs.  Inside a simulation the modelled
SRAM caches, TLBs and DRAM row buffers start empty, while the DRAM cache
is prewarmed by ``build_machine`` (the paper's fast-forward warm-up).
"""

from __future__ import annotations

import gc
import random
import shutil
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.campaign import executor
from repro.campaign.store import ResultStore
from repro.cli import COMPARE_SCHEMES
from repro.config.system import scaled_system
from repro.harness import runner
from repro.harness.runner import RunConfig
from repro.obs.metrics import parse_exposition
from repro.service import coordinator
from repro.service.broker import Broker, BrokerServer
from repro.service.index import ResultIndex
from repro.service.runner import runner_loop
from repro.system import builder
from repro.workloads.synthetic import clear_trace_cache

from perfbench import layers

SWEEP_SCHEMES = ("baseline", "tid", "tdc", "nomad")
SWEEP_PRESETS = ("cact", "sop", "mcf")
POLL_S = 0.05


COMPARE_OPS = 4000  # memory ops per core, 4 cores, 64 MB DC
SWEEP_OPS = 400  # memory ops per core, 2 cores, 48 MB DC
# 4 schemes x 3 presets x this many seeds.  Two seeds keep a rep near 3 s,
# so a run's median is taken over 6 or more reps, and the second seed of
# every (scheme, preset) still forks the first one's snapshot.
SWEEP_SEEDS = 2
# Cached re-runs of the grid in each rep's read phase.  A fixed count
# keeps the store reads an exact counter across reps and runs.
READ_PASSES = 10


def trace_seeds(seed: int, n: int) -> List[int]:
    """The workload-generator seeds a benchmark ``--seed`` stands for."""
    return random.Random(seed).sample(range(1, 1_000_000), n)


@dataclass
class Rep:
    """What one rep of a workload measured and produced."""

    wall_s: float  # write phase: first call until the last result is in
    cpu_s: float  # process CPU seconds (all threads) over the write phase
    configs: int
    # One wall per cached re-run of the whole grid (sweep-service only:
    # ``repro compare`` has no store, so a comparison has no read phase).
    read_s: List[float] = field(default_factory=list)
    failed: int = 0  # configs that failed or returned a wrong result
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    store_files: Dict[str, bytes] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    service: Dict[str, float] = field(default_factory=dict)


def _statuses_ok(campaign, want, reference, rep: Rep, phase: str) -> None:
    """Count records that failed, have the wrong status or a wrong result."""
    for record in campaign.records:
        rep.attempted += 1
        bad = None
        if record.status not in want:
            bad = f"status {record.status!r} ({record.error})"
        elif reference is not None and \
                record.result.to_dict() != reference[record.config]:
            bad = "result differs from the first simulation of this config"
        if bad:
            rep.failed += 1
            rep.problems.append(
                f"{phase} {layers.config_id(record.config)}: {bad}")


def store_files(root: Path) -> Dict[str, bytes]:
    """The result records of a store directory, path -> bytes."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.glob("*/*.json")) if len(p.parent.name) == 2
    }


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._dirs = 0
        self.memo = {"hits": 0, "misses": 0}
        self.configs: List[RunConfig] = []

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"store-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def clear_memo(self) -> None:
        stats = runner.cache_stats()["memo"]
        self.memo["hits"] += stats["hits"]
        self.memo["misses"] += stats["misses"]
        runner.clear_cache()

    def cold(self) -> None:
        """Empty every in-process cache, then collect garbage."""
        self.clear_memo()
        runner.clear_snapshot_cache()
        clear_trace_cache()
        gc.collect()

    def warm_up(self) -> None:
        """Untimed work on the measured path, so lazy imports and
        first-touch costs land outside the measurement."""
        raise NotImplementedError

    def rep(self) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Compare(Workload):
    """``repro compare``: the paper's five schemes on one preset."""

    preset = ""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        trace_seed = trace_seeds(seed, 1)[0]
        self.configs = [
            RunConfig(scheme=scheme, workload=self.preset,
                      num_mem_ops=COMPARE_OPS, num_cores=4,
                      dc_megabytes=64, seed=trace_seed)
            for scheme in COMPARE_SCHEMES
        ]

    @staticmethod
    def build(cfg: RunConfig):
        return builder.build_machine(
            cfg.scheme, workload_name=cfg.workload,
            cfg=scaled_system(num_cores=cfg.num_cores,
                              dc_megabytes=cfg.dc_megabytes),
            num_mem_ops=cfg.num_mem_ops, seed=cfg.seed,
        )

    def warm_up(self) -> None:
        self.cold()
        nomad = next(c for c in self.configs if c.scheme == "nomad")
        self.build(nomad).run()

    def rep(self) -> Rep:
        wall = cpu = 0.0
        for cfg in self.configs:
            self.cold()
            layers.set_config(cfg)
            c0 = time.process_time()
            t0 = time.perf_counter()
            machine = self.build(cfg)
            machine.run()
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            del machine
        layers.set_config(None)
        return Rep(wall, cpu, len(self.configs), attempted=len(self.configs))


class CompareExcess(Compare):
    name = "compare-excess"
    why = ("five schemes on cact (Excess RMHB): DC misses offload page "
           "copies to the PCSHR back end, so miss handling does the most work")
    preset = "cact"


class CompareFew(Compare):
    name = "compare-few"
    why = ("five schemes on sop (Few RMHB): the DC almost always hits, so the "
           "hit path carries the run and the miss back end idles")
    preset = "sop"


class SweepService(Workload):
    """A design-space sweep through the distributed campaign service."""

    name = "sweep-service"
    why = ("24-config design-space sweep through an in-process broker and one "
           "runner thread into a fresh store: build, fork, store, index and "
           "service layers dominate")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.configs = [
            RunConfig(scheme=scheme, workload=preset,
                      num_mem_ops=SWEEP_OPS, num_cores=2,
                      dc_megabytes=48, seed=s)
            for scheme in SWEEP_SCHEMES
            for preset in SWEEP_PRESETS
            for s in trace_seeds(seed, SWEEP_SEEDS)
        ]

    def warm_up(self) -> None:
        # A serial sweep of the same grid is both the warm-up and the
        # reference the service's store records must match byte for byte.
        root = self.fresh_dir()
        self.cold()
        executor.run_campaign(self.configs, jobs=1, store=ResultStore(root))
        self.reference_files = store_files(root)
        shutil.rmtree(root, ignore_errors=True)

    def rep(self) -> Rep:
        root = self.fresh_dir()
        rep = Rep(0.0, 0.0, len(self.configs))
        broker = Broker(root, lease_s=60.0)
        server = BrokerServer(broker).start()
        stop = threading.Event()
        thread = threading.Thread(
            target=runner_loop, args=(server.url,),
            kwargs=dict(jobs=1, runner_id="bench-runner", poll_s=POLL_S,
                        stop=stop, give_up_after_s=None,
                        install_signal_handlers=False),
            name="bench-runner", daemon=True,
        )
        thread.start()
        index = ResultIndex(root)

        def distributed():
            return coordinator.run_distributed_campaign(
                self.configs, server.url, store=ResultStore(root),
                jobs=1, poll_s=POLL_S, max_wait_s=600.0,
            )

        try:
            self.cold()
            c0 = time.process_time()
            t0 = time.perf_counter()
            campaign = distributed()
            rep.wall_s = time.perf_counter() - t0
            rep.cpu_s = time.process_time() - c0
            _statuses_ok(campaign, ("completed",), None, rep, "write")
            rep.counts = snapshot_counts()
            reference = {r.config: r.result.to_dict()
                         for r in campaign.records if r.result is not None}
            # Every config is in the store now, so the read phase needs no
            # runner; stopping it keeps its idle claim polls (one HTTP
            # request per POLL_S) out of the millisecond-long read passes.
            stop.set()
            thread.join(timeout=60)
            self._read(rep, reference, distributed, index, root)
            with urllib.request.urlopen(server.url + "/metrics",
                                        timeout=30) as resp:
                samples, _types = parse_exposition(resp.read().decode())
            rep.service = service_metrics(samples)
        finally:
            index.close()
            stop.set()
            thread.join(timeout=60)
            server.shutdown()
            broker.journal.close()
        if thread.is_alive():
            rep.problems.append("runner thread did not stop")
            rep.failed += 1
        rep.store_files = store_files(root)
        if rep.store_files != self.reference_files:
            rep.problems.append(
                "service store records differ from the serial sweep's")
            rep.failed += len(self.configs)
        shutil.rmtree(root, ignore_errors=True)
        return rep

    def _read(self, rep: Rep, reference, rerun, index: ResultIndex,
              root: Path) -> None:
        """Time cached re-runs of the grid, each followed by what
        ``repro results --where scheme=nomad`` does: sync, then query."""
        want_rows = sum(c.scheme == "nomad" for c in self.configs)
        for _ in range(READ_PASSES):
            self.clear_memo()
            gc.collect()
            t0 = time.perf_counter()
            campaign = rerun()
            index.sync_from_store(ResultStore(root))
            rows = index.query(where={"scheme": "nomad"})
            rep.read_s.append(time.perf_counter() - t0)
            _statuses_ok(campaign, ("cached",), reference, rep, "read")
            if len(rows) != want_rows:
                rep.problems.append(
                    f"index query returned {len(rows)} rows, want {want_rows}")
                rep.failed += 1


def snapshot_counts() -> Dict[str, int]:
    snap = runner.cache_stats()["snapshot"]
    return {"snapshot.hits": snap["hits"], "snapshot.misses": snap["misses"]}


def service_metrics(samples) -> Dict[str, float]:
    """Broker /metrics families summed over their labels."""
    wanted = {
        "service.requests": "repro_broker_requests_total",
        "service.request_s": "repro_broker_request_seconds_sum",
        "service.journal_fsync_s": "repro_broker_journal_fsync_seconds_sum",
        "service.ingest_s": "repro_broker_ingest_seconds_sum",
        "service.lease_expiries": "repro_broker_lease_expiries_total",
        "service.backoff_retries": "repro_runner_backoff_retries_total",
    }
    out = {}
    for metric, family in wanted.items():
        out[metric] = sum(v for (name, _labels), v in samples.items()
                          if name == family)
    return out


WORKLOADS = {w.name: w for w in (CompareExcess, CompareFew, SweepService)}
