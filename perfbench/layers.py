"""Instrumentation the benchmark installs around the program's public calls.

Nothing here edits a program file: every hook is a wrapper set on the
module or class attribute through which callers reach a public call, and
every wrapper is removed again when its :class:`Patches` is undone.
Three hooks exist:

* :class:`RunProbe` -- always on.  Times each ``Machine.run`` and keeps
  what the end-to-end metrics and the correctness checks need from the
  finished machine (memory ops, events, LLC misses, the result and the
  full ``Machine.metrics()`` dump).  Its cost is two clock reads and one
  counter dump per simulated config, plus copying the result to a dict.
* :class:`SpanTracer` -- traced runs only.  One span per call into a
  layer boundary (name, start, end, parent, config id), kept in memory.
* the probe's optional cProfile pass -- traced runs only.  Profiles the
  inside of ``Machine.run`` per scheme and groups tottime and ncalls by
  the ``repro`` subpackage that defines each function.
"""

from __future__ import annotations

import cProfile
import functools
import hashlib
import itertools
import json
import pstats
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# The model packages whose code runs inside Machine.run.
IN_RUN_LAYERS = ("engine", "cpu", "cache", "vm", "common", "core",
                 "schemes", "dram")


def call_sites() -> Dict[str, List[Tuple[object, str]]]:
    """Every attribute through which the program reaches each public call.

    A function imported by name into several modules is bound in each of
    them; all bindings are patched so no caller slips past a hook.
    """
    import repro
    import repro.campaign as campaign_pkg
    import repro.service as service_pkg
    from repro.campaign import executor
    from repro.campaign.store import ResultStore
    from repro.harness import runner
    from repro.service import coordinator
    from repro.service import runner as service_runner
    from repro.service.index import ResultIndex
    from repro.system import builder
    from repro.system.machine import Machine
    from repro.workloads import synthetic

    return {
        "build_machine": [(builder, "build_machine"),
                          (runner, "build_machine"),
                          (repro, "build_machine")],
        "materialized_trace": [(synthetic, "materialized_trace"),
                               (builder, "materialized_trace")],
        "Machine.run": [(Machine, "run")],
        "Machine.snapshot": [(Machine, "snapshot")],
        "Machine.restore": [(Machine, "restore")],
        "Machine.metrics": [(Machine, "metrics")],
        "run_campaign": [(executor, "run_campaign"),
                         (campaign_pkg, "run_campaign"),
                         (service_runner, "run_campaign")],
        "ResultStore.put": [(ResultStore, "put")],
        "ResultStore.get": [(ResultStore, "get")],
        "ResultIndex.sync_from_store": [(ResultIndex, "sync_from_store")],
        "ResultIndex.query": [(ResultIndex, "query")],
        "run_distributed_campaign": [
            (coordinator, "run_distributed_campaign"),
            (service_pkg, "run_distributed_campaign"),
        ],
        # Not traced: the campaign layer's once-per-config call, used to
        # name the config the spans below it belong to.
        "run_workload": [(runner, "run_workload")],
    }


class Patches:
    """Wrap public calls at every call site; :meth:`undo` restores them."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, call: str, make: Callable[[Callable], Callable]) -> None:
        """Replace *call* with ``make(original)`` at each of its sites."""
        sites = call_sites()[call]
        owner, attr = sites[0]
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapper = functools.wraps(func)(make(func))
        new = classmethod(wrapper) if is_classmethod else wrapper
        for owner, attr in sites:
            current = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            self._saved.append((owner, attr, current))
            setattr(owner, attr, new)

    def undo(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def config_id(cfg) -> str:
    """Short stable name of a RunConfig (unique within one workload)."""
    return f"{cfg.scheme}-{cfg.workload}-s{cfg.seed}"


class _Context(threading.local):
    config: Optional[str] = None


_CONTEXT = _Context()


def set_config(cfg) -> None:
    """Name the config the calling thread works on (for span ids)."""
    _CONTEXT.config = config_id(cfg) if cfg is not None else None


def install_config_context(patches: Patches) -> None:
    """Track the current config through ``runner.run_workload``."""
    def make(run_workload):
        def wrapper(cfg, *args, **kwargs):
            previous = _CONTEXT.config
            _CONTEXT.config = config_id(cfg)
            try:
                return run_workload(cfg, *args, **kwargs)
            finally:
                _CONTEXT.config = previous
        return wrapper

    patches.wrap("run_workload", make)


# -- run probe -----------------------------------------------------------------


class RunProbe:
    """Per-``Machine.run`` record: host seconds plus simulated outputs.

    ``cpu_s`` is the CPU time of the thread that ran the simulation.  In
    the sweep that thread shares the GIL with the broker's handler threads,
    whose turns would count in ``run_s`` but are not simulation work."""

    def __init__(self):
        self.runs: List[dict] = []
        # scheme -> cProfile.Profile while a profile pass is active.
        self.profiles: Optional[Dict[str, cProfile.Profile]] = None

    def install(self, patches: Patches) -> None:
        probe = self

        def make(run):
            def wrapper(machine, *args, **kwargs):
                profiles = probe.profiles
                prof = None
                if profiles is not None:
                    prof = profiles.setdefault(
                        machine.scheme.scheme_name, cProfile.Profile())
                    prof.enable()
                c0 = time.thread_time()
                t0 = time.perf_counter()
                try:
                    result = run(machine, *args, **kwargs)
                finally:
                    run_s = time.perf_counter() - t0
                    cpu_s = time.thread_time() - c0
                    if prof is not None:
                        prof.disable()
                probe.runs.append({
                    "scheme": result.scheme,
                    "run_s": run_s,
                    "cpu_s": cpu_s,
                    "mem_ops": sum(core.mem_ops for core in machine.cores),
                    "events": machine.sim.events_processed,
                    "llc_misses": result.llc_misses,
                    "page_fills": result.page_fills,
                    "result": result.to_dict(),
                    "metrics": machine.metrics(),
                })
                return result
            return wrapper

        patches.wrap("Machine.run", make)

    def take(self) -> List[dict]:
        runs, self.runs = self.runs, []
        return runs


def digest(runs: List[dict]) -> str:
    """sha256 over every simulated statistic of *runs*, order-free."""
    h = hashlib.sha256()
    lines = sorted(json.dumps([r["result"], r["metrics"]], sort_keys=True)
                   for r in runs)
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def work_counters(runs: List[dict]) -> Dict[str, int]:
    """Deterministic work counts of *runs*, per scheme where they differ."""
    out: Dict[str, int] = {"engine.events": 0, "engine.llc_misses": 0}
    for r in runs:
        s = r["scheme"]
        out["engine.events"] += r["events"]
        out["engine.llc_misses"] += r["llc_misses"]
        for key, value in (
            (f"core.page_fills.{s}", r["page_fills"]),
            (f"dram.hbm_accesses.{s}", r["metrics"].get("hbm.accesses", 0)),
            (f"dram.ddr_accesses.{s}", r["metrics"].get("ddr.accesses", 0)),
            (f"mem_ops.{s}", r["mem_ops"]),
        ):
            out[key] = out.get(key, 0) + int(value)
    return out


def layer_of(filename: str) -> Optional[str]:
    """The ``repro`` subpackage (or top-level module) defining *filename*."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    head = path[at + len(marker):].split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


def profile_by_layer(profiles: Dict[str, cProfile.Profile]
                     ) -> Dict[str, Dict[str, Tuple[float, int]]]:
    """``scheme -> layer -> (tottime, ncalls)`` for the in-run layers."""
    out: Dict[str, Dict[str, Tuple[float, int]]] = {}
    for scheme, prof in profiles.items():
        layers: Dict[str, Tuple[float, int]] = {}
        for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in \
                pstats.Stats(prof).stats.items():
            layer = layer_of(filename)
            if layer not in IN_RUN_LAYERS:
                continue
            t, n = layers.get(layer, (0.0, 0))
            layers[layer] = (t + tt, n + nc)
        out[scheme] = layers
    return out


# -- spans ---------------------------------------------------------------------

# (span id, name, start, end, parent id, config id, thread name)
Span = Tuple[int, str, float, float, Optional[int], Optional[str], str]

# Calls that take the RunConfig as their first argument after self.
_CONFIG_ARG = frozenset({"ResultStore.put", "ResultStore.get"})

TRACED_CALLS = (
    "build_machine", "materialized_trace", "Machine.run", "Machine.snapshot",
    "Machine.restore", "Machine.metrics", "run_campaign", "ResultStore.put",
    "ResultStore.get", "ResultIndex.sync_from_store", "ResultIndex.query",
    "run_distributed_campaign",
)


class SpanTracer:
    """In-memory spans around :data:`TRACED_CALLS`.

    A span's parent is the innermost open span of its thread; a call on a
    thread with no open span (a service runner or broker handler) is
    parented on :attr:`root`, the span the benchmark opened for the rep.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.root: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> "_OpenSpan":
        return _OpenSpan(self, name)

    def install(self, patches: Patches) -> None:
        for call in TRACED_CALLS:
            patches.wrap(call, functools.partial(self._wrapper, call))

    def _wrapper(self, name: str, func: Callable) -> Callable:
        tracer = self
        takes_config = name in _CONFIG_ARG

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer.root
            cfg = (config_id(args[1]) if takes_config and len(args) > 1
                   else _CONTEXT.config)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, cfg,
                                     threading.current_thread().name))
        return wrapper

    def take(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans


class _OpenSpan:
    def __init__(self, tracer: SpanTracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid = next(self.tracer._ids)
        self.parent = self.tracer.root
        self.tracer.root = self.sid
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer.root = self.parent
        self.tracer.spans.append((self.sid, self.name, self.t0, t1,
                                  self.parent, None,
                                  threading.current_thread().name))
        return False


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, _n, t0, t1, parent, _c, _t in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _n, t0, t1, _p, _c, _t in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def spans_to_json(spans: List[Span]) -> List[dict]:
    keys = ("id", "name", "start", "end", "parent", "config", "thread")
    return [dict(zip(keys, s)) for s in spans]
