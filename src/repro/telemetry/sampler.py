"""The time-series sampler.

A self-rescheduling simulator event snapshots a fixed probe set every
``sample_every`` cycles.  The probes are strictly read-only: plain
attribute reads, ``len()`` of live structures, and reads that go through
:meth:`repro.common.stats.StatGroup` accessors -- whose ``set_sync``
flush is idempotent by contract, so observing a run mid-flight cannot
change where it ends up (pinned by the telemetry golden tests).

Termination: the tick only reschedules itself while *other* events are
pending.  Events are only created by events, so an empty queue during
the tick means the run has drained (or deadlocked) -- either way the
sampler must get out of the way rather than keep the heap non-empty
forever.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.config import TelemetryConfig


class Sampler:
    """Cycle-driven probe snapshots for one machine."""

    def __init__(self, config: TelemetryConfig):
        self.config = config
        self.samples: List[dict] = []
        self.dropped = 0
        self._machine = None

    # -- lifecycle -----------------------------------------------------

    def start(self, machine) -> None:
        self._machine = machine
        every = self.config.sample_every
        if every > 0:
            machine.sim.schedule_at(machine.sim.now + every, self._tick)

    def _tick(self) -> None:
        machine = self._machine
        if machine is None:
            return
        if len(self.samples) >= self.config.max_samples:
            self.dropped += 1
        else:
            self.samples.append(self.sample_now())
        sim = machine.sim
        # Reschedule only while other work is pending (see module doc).
        if sim.pending_events > 0:
            sim.schedule_at(sim.now + self.config.sample_every, self._tick)

    def final_sample(self) -> None:
        """One closing snapshot at the current time (run completion)."""
        if self._machine is None:
            return
        if len(self.samples) >= self.config.max_samples:
            self.dropped += 1
            return
        sample = self.sample_now()
        if self.samples and self.samples[-1]["t"] == sample["t"]:
            self.samples[-1] = sample
        else:
            self.samples.append(sample)

    # -- probes --------------------------------------------------------

    def sample_now(self) -> dict:
        """Snapshot the probe set (documented in docs/architecture.md)."""
        machine = self._machine
        sim = machine.sim
        scheme = machine.scheme
        now = sim.now
        insts = 0
        rob = []
        core_insts = []
        for core in machine.cores:
            insts += core.inst_count
            rob.append(len(core.outstanding))
            core_insts.append(core.inst_count)

        sample: Dict[str, object] = {
            "t": now,
            "instructions": insts,
            "ipc": insts / now if now else 0.0,
            "rob": rob,
            "core_insts": core_insts,
            "pending_events": sim.pending_events,
        }

        hierarchy = getattr(scheme, "hierarchy", None)
        if hierarchy is not None:
            sample["llc_accesses"] = hierarchy.llc_access_count
            sample["llc_misses"] = hierarchy.llc_miss_count
            sample["mshr_outstanding"] = len(hierarchy.mshrs._entries)
            sample["mshr_overflow"] = len(hierarchy.mshrs._overflow)

        frontend = getattr(scheme, "frontend", None)
        if frontend is not None:
            sample["free_frames"] = frontend.free_queue.num_free

        # NOMAD back-end(s): PCSHR + page-copy-buffer occupancy.  A
        # DistributedBackend exposes .backends; a Backend is itself the
        # single element.
        backend = getattr(scheme, "backend", None)
        if backend is not None:
            backends = getattr(backend, "backends", None) or [backend]
            active = free = queued = in_use = hits = misses = 0
            for b in backends:
                active += b.outstanding_copies
                free += b.free_pcshrs
                queued += len(b._cmd_waiters)
                in_use += b.buffers.in_use
                hits += b.stats.get("data_hits").value
                misses += b.stats.get("data_misses").value
            sample["active_copies"] = active
            sample["free_pcshrs"] = free
            sample["queued_copy_cmds"] = queued
            sample["copy_buffers_in_use"] = in_use
            sample["dc_data_hits"] = hits
            sample["dc_data_misses"] = misses
            probes = hits + misses
            sample["dc_data_hit_rate"] = hits / probes if probes else 0.0

        # TDC's blocking copy manager has no PCSHRs; its in-flight fill
        # set is the comparable occupancy probe.
        data_manager = getattr(scheme, "data_manager", None)
        if data_manager is not None and hasattr(data_manager, "_busy_fills"):
            sample["active_copies"] = len(data_manager._busy_fills)

        # DC access time through the StatGroup read path (exercises the
        # set_sync flush mid-run -- idempotent by contract).
        if hasattr(scheme, "stats") and "dc_access_time" in scheme.stats:
            mean = scheme.stats.get("dc_access_time")
            sample["dc_access_time_mean"] = mean.mean

        for label in ("hbm", "ddr"):
            device = getattr(scheme, label, None)
            if device is None:
                continue
            sample[f"{label}_row_hit_rate"] = device.row_hit_rate
            sample[f"{label}_bytes"] = {
                tc.name: b for tc, b in device.bytes_by_class().items()
            }
        return sample

    # -- derived series (for the tracer's counter events) --------------

    def counter_series(self, cycles_per_second: float):
        """Yield ``(name, ts, {series: value})`` per-window counter rows.

        Gauges are emitted as-is; cumulative probes (instructions,
        bytes) are differenced into per-window rates.
        """
        prev: Optional[dict] = None
        for s in self.samples:
            t = s["t"]
            yield ("rob_occupancy", t,
                   {f"core{i}": v for i, v in enumerate(s["rob"])})
            gauges = {}
            for key in ("active_copies", "copy_buffers_in_use",
                        "mshr_outstanding", "free_frames",
                        "queued_copy_cmds"):
                if key in s:
                    gauges[key] = s[key]
            if gauges:
                yield ("occupancy", t, gauges)
            if prev is not None:
                dt = t - prev["t"]
                if dt > 0:
                    dinst = s["instructions"] - prev["instructions"]
                    yield ("ipc_window", t, {"ipc": dinst / dt})
                    seconds = dt / cycles_per_second
                    for label in ("hbm", "ddr"):
                        cur = s.get(f"{label}_bytes")
                        if cur is None:
                            continue
                        old = prev.get(f"{label}_bytes", {})
                        rates = {
                            tc: (b - old.get(tc, 0)) / seconds / 1e9
                            for tc, b in cur.items()
                        }
                        if rates:
                            yield (f"{label}_gbps", t, rates)
            prev = s
