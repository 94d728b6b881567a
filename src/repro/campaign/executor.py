"""Campaign execution: expand a grid, fan out, merge deterministically.

``run_campaign`` is the one entry point every grid in the repository
goes through -- ``run_matrix``, ``repro sweep``, ``repro compare`` and
the figure experiments all submit here.  It

1. expands the :class:`GridSpec` (or accepts an explicit config list),
2. skips configs the :class:`ResultStore` has quarantined, then serves
   what it can from the in-process memo cache and the store,
3. maps the remainder through one task function, in this process
   (``jobs <= 1``) or over a fault-tolerant process pool (``jobs > 1``,
   with per-campaign stall timeout and bounded retry of crashed/hung
   workers); either way the same outcomes come back,
4. decodes every outcome into a record in one place -- which is also
   the only place results are written to the caches, so a pool worker
   never writes the store -- and gives each guard failure one
   confirmation attempt,
5. merges results back in grid order and reports a
   :class:`CampaignSummary` (completed/cached/failed/quarantined +
   cache counters) instead of aborting the whole grid on one bad run.

Failure taxonomy (``RunRecord.failure_kind``): ``timeout`` (the stall
watchdog killed a hung worker), ``crash`` (the run raised or the worker
process died), ``invariant`` (a guarded run tripped a checker or the
forward-progress watchdog).  A failure observed identically on two
attempts is deterministic: the config is marked ``quarantined``, written
to the store's quarantine (with its diagnostic bundle path), and never
retried past the second attempt -- by this campaign or any later one
sharing the store.

``guard=`` opts the whole campaign into paranoid mode (a
:class:`~repro.guard.GuardConfig` shipped to every run).  Guarded runs
bypass the memo cache and the result store in both directions.
"""

from __future__ import annotations

import os
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.campaign import pool as _pool
from repro.campaign.grid import GridSpec
from repro.harness import runner
from repro.harness.runner import RunConfig
from repro.system.machine import MachineResult

# Record statuses.
COMPLETED = "completed"  # freshly simulated this campaign
CACHED = "cached"  # served from the memo cache or the disk store
FAILED = "failed"  # simulation raised, or worker crashed out of retries
TIMEOUT = "timeout"  # hung out of retries
QUARANTINED = "quarantined"  # failed deterministically; pinned in the store


class CampaignError(RuntimeError):
    """Raised when a caller needs every run and some failed."""


@dataclass
class RunRecord:
    """One grid point's fate."""

    index: int
    config: RunConfig
    status: str
    result: Optional[MachineResult] = None
    source: str = ""  # "memo" | "store" | "simulated"
    error: str = ""
    attempts: int = 0
    failure_kind: str = ""  # "" | "timeout" | "crash" | "invariant"
    bundle_path: str = ""  # diagnostic bundle of a guarded failure
    traceback: str = ""  # formatted traceback (post-mortems without reruns)
    telemetry: Optional[dict] = None  # trace summary of an observed run

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "status": self.status,
            "source": self.source,
            "error": self.error,
            "attempts": self.attempts,
            "failure_kind": self.failure_kind,
            "bundle_path": self.bundle_path,
            "traceback": self.traceback,
            "result": self.result.to_dict() if self.result else None,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, d: dict, index: int) -> "RunRecord":
        """Inverse of :meth:`to_dict`; ``index`` is the record's grid
        position, which the dict does not carry.  Missing fields take
        their defaults (journal-restored wire items drop the bulky ones).
        """
        result = d.get("result")
        return cls(
            index=index,
            config=RunConfig.from_dict(d["config"]),
            status=d.get("status", FAILED),
            result=MachineResult.from_dict(result) if result else None,
            source=d.get("source", ""),
            error=d.get("error", ""),
            attempts=int(d.get("attempts", 0)),
            failure_kind=d.get("failure_kind", ""),
            bundle_path=d.get("bundle_path", ""),
            traceback=d.get("traceback", ""),
            telemetry=d.get("telemetry"),
        )


@dataclass
class CampaignSummary:
    """What the campaign did, for humans and for ``--json``."""

    total: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0
    quarantined: int = 0
    elapsed_s: float = 0.0
    memo: Dict[str, int] = field(default_factory=dict)
    store: Dict[str, object] = field(default_factory=dict)
    # Machine-snapshot and trace-cache counters: the in-process view
    # plus, for pool campaigns, the summed per-batch worker deltas.
    snapshot: Dict[str, int] = field(default_factory=dict)
    trace: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "completed": self.completed,
            "cached": self.cached,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "elapsed_s": self.elapsed_s,
            "memo": dict(self.memo),
            "store": dict(self.store),
            "snapshot": dict(self.snapshot),
            "trace": dict(self.trace),
        }

    def describe(self) -> str:
        head = (
            f"{self.total} runs: {self.completed} simulated, "
            f"{self.cached} cached, {self.failed} failed"
        )
        if self.quarantined:
            head += f", {self.quarantined} quarantined"
        parts = [head + f" in {self.elapsed_s:.2f}s"]
        if self.memo:
            parts.append(
                f"memo cache: {self.memo.get('hits', 0)} hits / "
                f"{self.memo.get('misses', 0)} misses "
                f"({self.memo.get('size', 0)}/{self.memo.get('maxsize', 0)} entries)"
            )
        if self.snapshot:
            parts.append(
                f"snapshot cache: {self.snapshot.get('hits', 0)} forks / "
                f"{self.snapshot.get('misses', 0)} misses "
                f"({self.snapshot.get('stores', 0)} images stored)"
            )
        if self.trace:
            line = (
                f"trace cache: {self.trace.get('hits', 0)} hits / "
                f"{self.trace.get('misses', 0)} misses"
            )
            if self.trace.get("disk_hits", 0) or self.trace.get("disk_dir"):
                line += f" / {self.trace.get('disk_hits', 0)} disk hits"
            parts.append(line)
        if self.store:
            parts.append(
                f"result store: {self.store.get('hits', 0)} hits / "
                f"{self.store.get('misses', 0)} misses / "
                f"{self.store.get('writes', 0)} writes at {self.store.get('root', '')}"
            )
        return "\n".join(parts)


class CampaignResult:
    """Ordered records plus the summary."""

    def __init__(self, records: List[RunRecord], summary: CampaignSummary):
        self.records = records
        self.summary = summary

    @property
    def ok(self) -> bool:
        return all(r.status in (COMPLETED, CACHED) for r in self.records)

    def failures(self) -> List[RunRecord]:
        return [r for r in self.records if r.status not in (COMPLETED, CACHED)]

    def results(self) -> List[Optional[MachineResult]]:
        return [r.result for r in self.records]

    def as_matrix(self) -> Dict[Tuple[str, str], MachineResult]:
        """``{(scheme, workload): result}``; raises on failures/collisions."""
        bad = self.failures()
        if bad:
            detail = "; ".join(
                f"{r.config.scheme}/{r.config.workload}: {r.status} ({r.error})"
                for r in bad[:5]
            )
            raise CampaignError(f"{len(bad)} campaign run(s) failed: {detail}")
        out: Dict[Tuple[str, str], MachineResult] = {}
        for rec in self.records:
            key = (rec.config.scheme, rec.config.workload)
            if key in out:
                raise CampaignError(
                    f"grid has multiple runs per {key}; use .records instead "
                    f"of .as_matrix()"
                )
            out[key] = rec.result
        return out

    def to_dict(self) -> dict:
        return {
            "runs": [r.to_dict() for r in self.records],
            "summary": self.summary.to_dict(),
        }


# ---------------------------------------------------------------------------
# Failure classification helpers
# ---------------------------------------------------------------------------

def _failure_info(exc: BaseException) -> Dict[str, str]:
    """Flatten an exception into the transportable failure taxonomy."""
    return {
        "failure_kind": getattr(exc, "failure_kind", "crash"),
        "error": f"{type(exc).__name__}: {exc}",
        "checker": str(getattr(exc, "checker", "") or ""),
        "bundle_path": str(getattr(exc, "bundle_path", "") or ""),
        "traceback": "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def _same_failure(a: Dict[str, str], b: Dict[str, str]) -> bool:
    """Two attempts failed "the same way": kind, checker, and exception
    type all match (messages may carry run-varying detail)."""
    return (
        a.get("failure_kind") == b.get("failure_kind")
        and a.get("checker") == b.get("checker")
        and a.get("error", "").split(":", 1)[0]
        == b.get("error", "").split(":", 1)[0]
    )


def _quarantine(store, cfg: RunConfig, info: Dict[str, str]) -> None:
    if store is not None and hasattr(store, "put_failure"):
        store.put_failure(cfg, info)


def _failed_record(index: int, cfg: RunConfig, status: str,
                   info: Dict[str, str], attempts: int,
                   source: str = "") -> RunRecord:
    return RunRecord(
        index, cfg, status,
        source=source,
        error=info.get("error", ""),
        attempts=attempts,
        failure_kind=info.get("failure_kind", ""),
        bundle_path=info.get("bundle_path", ""),
        traceback=info.get("traceback", ""),
    )


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------

# Shared with repro.service runners; see harness.runner.
_cache_counts = runner.cache_counts
_cache_delta = runner.cache_delta
_merge_counts = runner.merge_cache_counts


def _simulate_payload(payload: dict) -> dict:
    """The campaign task: dict in, dict out (keeps transport JSON-clean).

    Runs in a pool worker, or in the campaign's own process when
    ``jobs <= 1``.  A ``__guard__`` key (a serialized GuardConfig) arms
    paranoid mode; guard failures come back as a structured
    ``__failure__`` value rather than an exception, so the pool does not
    burn its crash-retry budget on deterministic invariant violations.  A ``__telemetry__``
    key (a serialized TelemetryConfig) arms observability; the trace
    summary rides back under the same out-of-band key, keeping
    ``MachineResult`` itself untouched.

    A ``__batch__`` key carries a list of config payloads that share a
    machine-snapshot key: running them sequentially in one worker means
    the first run builds+snapshots and the rest fork from this process's
    snapshot cache.  Per-item exceptions come back as ``__failure__``
    entries so one bad config cannot poison its batch siblings, and the
    worker reports its amortization-cache counter deltas alongside.
    An ``__amortize__`` key (e.g. ``{"trace_dir": ...}``) points this
    worker at the shared on-disk trace cache; it is idempotent, so every
    payload of a campaign carries it.
    """
    payload = dict(payload)
    amortize = payload.pop("__amortize__", None)
    if amortize and amortize.get("trace_dir"):
        from repro.workloads.synthetic import configure_trace_cache

        configure_trace_cache(disk_dir=amortize["trace_dir"])
    batch = payload.pop("__batch__", None)
    if batch is not None:
        before = _cache_counts()
        results = []
        for item in batch:
            try:
                results.append(_simulate_one(dict(item)))
            except Exception as exc:
                results.append({"__failure__": _failure_info(exc)})
        return {
            "__batch__": results,
            "__cache_stats__": _cache_delta(before, _cache_counts()),
        }
    return _simulate_one(payload)


def _simulate_one(payload: dict) -> dict:
    """Simulate one config; never touches the result caches.

    Caching is the campaign process's job (:func:`_decode`): a forked
    worker inherits the parent's installed store, and writing it from
    here would store every result twice.
    """
    guard_dict = payload.pop("__guard__", None)
    tel_dict = payload.pop("__telemetry__", None)
    cfg = RunConfig.from_dict(payload)
    guard_cfg = None
    if guard_dict is not None:
        from repro.guard import GuardConfig

        guard_cfg = GuardConfig.from_dict(guard_dict)
    # A fresh Telemetry per attempt: a failed attempt's half-built trace
    # must not leak into the retry's.
    tel_obj = None
    if tel_dict is not None:
        from repro.telemetry import Telemetry, TelemetryConfig

        tel_obj = Telemetry(TelemetryConfig.from_dict(tel_dict))
    try:
        result, _machine = runner.simulate(
            cfg, guard=guard_cfg, telemetry=tel_obj
        )
    except Exception as exc:
        if guard_cfg is None:
            raise
        return {"__failure__": _failure_info(exc)}
    out = result.to_dict()
    if tel_obj is not None:
        out["__telemetry__"] = tel_obj.summary
    return out


# ---------------------------------------------------------------------------
# Outcome -> record
# ---------------------------------------------------------------------------

def _unbatch(group: List[int], outcome: _pool.TaskOutcome,
             pool_caches: Dict[str, Dict[str, int]]):
    """Yield ``(grid index, per-config outcome)`` for one task.

    A batch task's outcome fans out to its members: all share the
    task's failure, or each gets its own item of the batch value.
    """
    if len(group) == 1:
        yield group[0], outcome
        return
    if not outcome.ok:
        for i in group:
            yield i, outcome
        return
    _merge_counts(pool_caches, outcome.value.get("__cache_stats__"))
    for i, item in zip(group, outcome.value["__batch__"]):
        yield i, _pool.TaskOutcome(
            index=i, status=_pool.OK, value=item, attempts=outcome.attempts
        )


def _decode(index: int, cfg: RunConfig, outcome: _pool.TaskOutcome,
            store, guarded: bool,
            first: Optional[_pool.TaskOutcome] = None) -> Optional[RunRecord]:
    """The one place a worker outcome becomes a :class:`RunRecord`.

    ``first`` is the failed first attempt when *outcome* is its
    confirmation.  Returns None when a guard failure needs that
    confirmation attempt.  Unguarded results are primed into the memo
    cache and the store here, in the campaign process -- the only cache
    writer.
    """
    attempts = outcome.attempts + (first.attempts if first else 0)
    if not outcome.ok:  # the task raised, or its worker crashed or hung
        timed_out = outcome.status == _pool.TIMEOUT
        info = {
            "failure_kind": "timeout" if timed_out else "crash",
            "error": outcome.error,
            "checker": "",
            "bundle_path": "",
            "traceback": outcome.traceback,
        }
        if timed_out:
            return _failed_record(index, cfg, TIMEOUT, info, attempts)
        if outcome.status == _pool.CRASHED and attempts >= 2:
            # Crashed on every attempt: deterministic, quarantine it.
            _quarantine(store, cfg, info)
            return _failed_record(index, cfg, QUARANTINED, info, attempts)
        return _failed_record(index, cfg, FAILED, info, attempts)
    value = outcome.value
    failure = value.get("__failure__")
    if failure is not None:
        if not guarded:  # a batch item's own exception
            return _failed_record(index, cfg, FAILED, failure, attempts)
        if first is None:
            return None
        # Reproduced -> deterministic -> quarantine; else transient.
        if _same_failure(first.value["__failure__"], failure):
            _quarantine(store, cfg, failure)
            return _failed_record(index, cfg, QUARANTINED, failure, attempts)
        return _failed_record(index, cfg, FAILED, failure, attempts)
    telemetry = value.pop("__telemetry__", None)
    result = MachineResult.from_dict(value)
    if not guarded:
        runner.prime(cfg, result)
    error = ""
    if first is not None:
        error = ("transient failure on first attempt: "
                 f"{first.value['__failure__'].get('error', '')}")
    return RunRecord(
        index, cfg, COMPLETED, result, source="simulated",
        attempts=attempts, error=error, telemetry=telemetry,
    )


def _plan_batches(pending: List[int], configs: Sequence[RunConfig],
                  jobs: int, batching: bool) -> List[List[int]]:
    """Partition pending grid indices into worker tasks.

    Runs sharing a machine-snapshot key are grouped (the first run of a
    group builds+snapshots in its worker, the rest fork), but each group
    is chunked so a sweep with few distinct keys still spreads across
    all ``jobs`` workers.  Ineligible configs stay singleton tasks.
    Groups are submitted in grid order of their first member, and
    records are merged by index, so batching never perturbs output
    order.
    """
    if not batching:
        return [[i] for i in pending]
    from repro.snapshot import snapshot_eligible, snapshot_key

    by_key: Dict[str, List[int]] = {}
    singles: List[int] = []
    for i in pending:
        cfg = configs[i]
        if snapshot_eligible(cfg):
            by_key.setdefault(snapshot_key(cfg), []).append(i)
        else:
            singles.append(i)
    # ceil(pending/jobs): with this chunk bound even a single-key sweep
    # produces >= jobs tasks.
    max_chunk = max(2, -(-len(pending) // max(1, jobs)))
    groups: List[List[int]] = []
    for members in by_key.values():
        for off in range(0, len(members), max_chunk):
            groups.append(members[off:off + max_chunk])
    groups.extend([i] for i in singles)
    groups.sort(key=lambda g: g[0])
    return groups


# ---------------------------------------------------------------------------
# Shared campaign building blocks (run_campaign + repro.service)
# ---------------------------------------------------------------------------

def prescan(
    configs: Sequence[RunConfig],
    records: List[Optional[RunRecord]],
    store,
    skip_caches: bool = False,
) -> List[int]:
    """Resolve every config the caches already answer; return the rest.

    Fills ``records`` in place with QUARANTINED records for configs the
    store has pinned and CACHED records for memo/store hits (unless
    ``skip_caches`` -- guarded/observed campaigns always simulate).
    The returned indices are the still-pending work, in grid order.
    This is the resume primitive: a distributed campaign re-running
    after a broker restart prescans against the same store and only
    re-enqueues what is missing.
    """
    # cached_result() consults the module-installed store; install the
    # one we were handed so standalone callers (the distributed
    # coordinator) see store hits, not just run_campaign's own flow.
    prev_store = runner.set_result_store(store)
    try:
        pending: List[int] = []
        for i, cfg in enumerate(configs):
            if store is not None and hasattr(store, "get_failure"):
                known = store.get_failure(cfg)
                if known:
                    records[i] = _failed_record(
                        i, cfg, QUARANTINED, known, attempts=0, source="store"
                    )
                    continue
            if not skip_caches:
                result, source = runner.cached_result(cfg)
                if result is not None:
                    records[i] = RunRecord(
                        i, cfg, CACHED, result, source=source
                    )
                    continue
            pending.append(i)
        return pending
    finally:
        runner.set_result_store(prev_store)


def summarize_records(
    records: List[RunRecord],
    elapsed_s: float,
    store,
    extra_caches: Optional[Dict[str, Dict[str, int]]] = None,
) -> CampaignSummary:
    """Fold finished records plus cache counters into a summary.

    ``extra_caches`` carries out-of-process counter deltas (pool-worker
    batches, service runners) to merge with this process's own.
    """
    caches = runner.cache_stats()
    snapshot_counts = dict(caches["snapshot"])
    trace_counts = dict(caches["trace"])
    _merge_counts(
        {"snapshot": snapshot_counts, "trace": trace_counts}, extra_caches
    )
    return CampaignSummary(
        total=len(records),
        completed=sum(r.status == COMPLETED for r in records),
        cached=sum(r.status == CACHED for r in records),
        failed=sum(r.status in (FAILED, TIMEOUT) for r in records),
        quarantined=sum(r.status == QUARANTINED for r in records),
        elapsed_s=elapsed_s,
        memo=caches["memo"],
        snapshot=snapshot_counts,
        trace=trace_counts,
        store=store.stats() if store is not None else {},
    )


def _as_campaign_guard(guard):
    """Normalize ``guard=`` (``True``, a GuardConfig or a Guard) to a
    GuardConfig (or None)."""
    if guard is None or guard is False:
        return None
    from repro.guard import Guard, GuardConfig

    if isinstance(guard, GuardConfig):
        return guard
    if isinstance(guard, Guard):
        return guard.config
    return GuardConfig()


def _as_campaign_telemetry(telemetry):
    """Normalize ``telemetry=`` to a TelemetryConfig (or None).

    ``True`` selects the campaign default categories -- everything but
    the per-burst ``dram`` spans, which are too hot for a whole sweep.
    """
    if telemetry is None or telemetry is False:
        return None
    from repro.telemetry import DEFAULT_CAMPAIGN_CATEGORIES, TelemetryConfig

    if isinstance(telemetry, TelemetryConfig):
        return telemetry
    if isinstance(telemetry, dict):
        return TelemetryConfig.from_dict(telemetry)
    if telemetry is True:
        return TelemetryConfig(categories=DEFAULT_CAMPAIGN_CATEGORIES)
    raise TypeError(
        f"campaign telemetry must be None, bool, dict, or TelemetryConfig, "
        f"not {type(telemetry).__name__}"
    )


def _as_progress(progress):
    """Normalize ``progress=`` to an ``on_event(kind, info)`` callable."""
    if progress is None or progress is False:
        return None
    if progress is True:
        import sys

        def _print(kind: str, info: dict) -> None:
            print(
                f"campaign: {info['completed']}/{info['total']} done, "
                f"{info['outstanding']} running"
                + (" (heartbeat)" if kind == "heartbeat" else ""),
                file=sys.stderr,
            )

        return _print
    return progress


def _campaign_options(store, guard, telemetry, progress,
                      trace_dir: Optional[str] = None):
    """Normalize the settings :func:`run_campaign` and the distributed
    coordinator share.

    Returns ``(guard, telemetry, on_event, trace_dir)``: the guard and
    telemetry configs in wire form (dicts, None when off), the progress
    callback, and the on-disk trace cache that plain (unguarded,
    unobserved) campaigns share -- ``trace_dir``, else ``<store>/traces``
    for a store with a root.
    """
    guard_cfg = _as_campaign_guard(guard)
    tel_cfg = _as_campaign_telemetry(telemetry)
    if guard_cfg is not None or tel_cfg is not None:
        trace_dir = None
    elif trace_dir is None and getattr(store, "root", None):
        trace_dir = os.path.join(str(store.root), "traces")
    return (
        guard_cfg.to_dict() if guard_cfg is not None else None,
        tel_cfg.to_dict() if tel_cfg is not None else None,
        _as_progress(progress),
        trace_dir,
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_campaign(
    grid: Union[GridSpec, Iterable[RunConfig]],
    jobs: int = 1,
    store=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    guard=None,
    telemetry=None,
    progress=None,
    trace_dir: Optional[str] = None,
) -> CampaignResult:
    """Execute every run of *grid*; never raises for individual runs.

    ``store=None`` uses the globally installed result store (if any);
    pass a :class:`ResultStore` to use -- and install for the duration --
    a specific one.  ``guard`` (``True`` or a ``GuardConfig``) runs the
    whole campaign in paranoid mode.

    ``telemetry`` (``True`` or a ``TelemetryConfig``) observes every
    simulated run; each record carries the trace summary in
    ``RunRecord.telemetry``.  Telemetry runs always simulate (a cached
    result has no trace), but their results still prime the caches when
    unguarded.  ``progress`` (``True`` for a stderr printer, or a
    callable) reports live ``done``/``heartbeat`` events.  ``trace_dir``
    points pool workers at a shared on-disk trace cache (defaults to
    ``<store>/traces`` when a store with a root is installed; service
    runners pass the broker's).  ``timeout`` and ``retries`` govern the
    pool's stall watchdog and crash retries.
    """
    t0 = time.monotonic()
    configs = grid.expand() if isinstance(grid, GridSpec) else list(grid)
    records: List[Optional[RunRecord]] = [None] * len(configs)
    effective_store = store if store is not None else runner.get_result_store()
    guard_dict, tel_dict, on_event, trace_dir = _campaign_options(
        effective_store, guard, telemetry, progress, trace_dir
    )
    guarded = guard_dict is not None
    plain = not guarded and tel_dict is None
    prev_store = runner.set_result_store(effective_store)
    # Worker-reported amortization-cache counter deltas (pool batches).
    pool_caches: Dict[str, Dict[str, int]] = {}
    try:
        pending = prescan(
            configs, records, effective_store, skip_caches=not plain
        )
        # In-process runs already share one snapshot cache, so only the
        # pool batches; guarded/observed runs keep per-run tasks (their
        # confirmation pass needs task granularity).
        in_process = jobs <= 1 or len(pending) <= 1
        groups = _plan_batches(
            pending, configs, jobs, batching=plain and not in_process
        )

        def _payload(i: int) -> dict:
            payload = configs[i].to_dict()
            if guard_dict is not None:
                payload["__guard__"] = guard_dict
            if tel_dict is not None:
                payload["__telemetry__"] = tel_dict
            return payload

        def _task(group: List[int]) -> dict:
            if len(group) == 1:
                payload = _payload(group[0])
            else:
                payload = {"__batch__": [_payload(i) for i in group]}
            # Never in-process: it would repoint this process's own
            # (process-global) trace cache for good.
            if trace_dir and not in_process:
                payload["__amortize__"] = {"trace_dir": trace_dir}
            return payload

        def _map(payloads: List[dict], watchdog: Optional[float],
                 extra_attempts: int):
            if in_process:
                return _pool.map_in_process(
                    _simulate_payload, payloads, on_event=on_event
                )
            return _pool.map_with_retries(
                _simulate_payload, payloads, jobs=jobs, timeout=watchdog,
                retries=extra_attempts,
                heartbeat=2.0 if on_event is not None else None,
                on_event=on_event,
            )

        # The stall watchdog sees one completion per *task*; a batch
        # is one task doing len(batch) runs, so scale its budget.
        max_batch = max((len(g) for g in groups), default=1)
        outcomes = _map(
            [_task(g) for g in groups],
            timeout * max_batch if timeout is not None else None, retries,
        )
        confirm: List[Tuple[int, _pool.TaskOutcome]] = []
        for group, outcome in zip(groups, outcomes):
            for i, task in _unbatch(group, outcome, pool_caches):
                rec = _decode(i, configs[i], task, effective_store, guarded)
                if rec is None:
                    confirm.append((i, task))
                else:
                    records[i] = rec
        # Guard failures get exactly one confirmation attempt.
        outcomes = _map([_payload(i) for i, _ in confirm], timeout, 0)
        for (i, first), outcome in zip(confirm, outcomes):
            records[i] = _decode(
                i, configs[i], outcome, effective_store, guarded, first
            )
    finally:
        runner.set_result_store(prev_store)

    done = [r for r in records if r is not None]
    summary = summarize_records(
        done, time.monotonic() - t0, effective_store, pool_caches
    )
    return CampaignResult(done, summary)


def speedup_matrix(
    schemes: Sequence[str],
    workloads: Sequence[str],
    base: Optional[RunConfig] = None,
    baseline: str = "baseline",
    jobs: int = 1,
    store=None,
) -> Dict[Tuple[str, str], Tuple[MachineResult, float]]:
    """The shared scheme-comparison helper.

    Runs ``[baseline] + schemes`` on every workload through the campaign
    layer and returns ``{(scheme, workload): (result, ipc_rel)}`` where
    ``ipc_rel`` is IPC relative to *baseline* on the same workload.
    Both ``repro compare`` and the Fig. 9 experiment build their
    baseline-relative columns from this instead of hand-rolled loops.
    """
    ordered = list(dict.fromkeys([baseline, *schemes]))
    matrix = runner.run_matrix(ordered, workloads, base, jobs=jobs, store=store)
    out: Dict[Tuple[str, str], Tuple[MachineResult, float]] = {}
    for wl in workloads:
        ref = matrix[(baseline, wl)]
        for scheme in ordered:
            result = matrix[(scheme, wl)]
            out[(scheme, wl)] = (result, result.speedup_over(ref))
    return out
