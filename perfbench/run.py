"""The repository benchmark: scheme comparisons and design-space sweeps.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compare-excess --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` interleaves untraced reps with span-traced reps, then makes
two cProfile passes over the inside of ``Machine.run``, and reports the
per-layer metrics plus the tracing overhead.  Both modes check outputs:
the 12 golden configs must replay bit-identically, every rep of the
workload must produce the same digest of every simulated statistic and
the same work counts, and every config must complete with the result its
first simulation gave.  The last line of standard output is one JSON
object; everything above it is for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "golden_metrics.json"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
MIN_REPS = 3  # timed reps per run, whatever --seconds says
MIN_TRACED_REPS = 2  # of each kind, in a traced run
SETUP_REPS = 3  # fresh interpreters timed per run for setup_s

SCHEMES = ("baseline", "tid", "tdc", "nomad", "ideal")
WORKLOAD_NAMES = ("compare-excess", "compare-few", "sweep-service")

# (name, unit, better, bound) -- bound is the share of the parent's
# median by which the metric may worsen before a change is a regression.
# On the shared 2-vCPU VM the benchmark was tuned on, the speed of the
# same code swings by up to 2x within minutes, and longer runs did not
# narrow the run-to-run spread (README), so every bound sits at the 0.25
# cap.  Peak RSS of the service workload spreads by ~10% as well.
END_TO_END = (
    ("sim_mem_ops_per_s", "1/s", "higher", 0.25),
    ("runs_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_run", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
)


def per_layer_spec() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in report order."""
    from perfbench.layers import IN_RUN_LAYERS

    spec = [
        ("engine.events", "count", "lower"),
        ("engine.events_per_llc_miss", "ratio", "lower"),
        ("engine.run_s", "s", "lower"),
    ]
    for layer in IN_RUN_LAYERS:
        for scheme in SCHEMES:
            spec.append((f"{layer}.self_s.{scheme}", "s", "lower"))
            spec.append((f"{layer}.calls.{scheme}", "calls/op", "lower"))
    for scheme in SCHEMES:
        spec.append((f"core.page_fills.{scheme}", "count", "lower"))
        spec.append((f"dram.hbm_accesses.{scheme}", "count", "lower"))
        spec.append((f"dram.ddr_accesses.{scheme}", "count", "lower"))
    spec += [
        ("core.buffer_hit_ratio", "ratio", "higher"),
        ("core.data_hit_ratio", "ratio", "higher"),
        ("workloads.trace_s", "s", "lower"),
        ("system.build_s", "s", "lower"),
        ("snapshot.snapshot_s", "s", "lower"),
        ("snapshot.restore_s", "s", "lower"),
        ("snapshot.hit_ratio", "ratio", "higher"),
        ("campaign.self_s", "s", "lower"),
        ("campaign.store.put_s", "s", "lower"),
        ("campaign.store.puts", "count", "lower"),
        ("campaign.store.get_s", "s", "lower"),
        ("campaign.store.gets", "count", "lower"),
        ("campaign.memo.hit_ratio", "ratio", "higher"),
        ("campaign.cached_runs_per_s", "1/s", "higher"),
        ("service.requests", "count", "lower"),
        ("service.request_s", "s", "lower"),
        ("service.journal_fsync_s", "s", "lower"),
        ("service.ingest_s", "s", "lower"),
        ("service.runner_batch_s", "s", "lower"),
        ("service.wait_s", "s", "lower"),
        ("service.lease_expiries", "count", "lower"),
        ("service.backoff_retries", "count", "lower"),
        ("service.index.sync_s", "s", "lower"),
        ("service.index.query_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
    ]
    return spec


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="how long the timed reps run (at least "
                        f"{MIN_REPS} reps are made)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@dataclass
class RepRecord:
    """One rep: the workload's own report plus what the hooks saw."""

    rep: object  # workloads.Rep
    digest: str  # layers.digest() of the rep's simulations
    counters: Dict[str, int]  # layers.work_counters()
    mem_ops: int
    run_cpu_s: float  # thread CPU seconds inside Machine.run
    # RunProbe records, kept for one rep only: holding every rep's would
    # make peak RSS grow with the number of reps the host had time for.
    runs: List[dict]
    spans: Optional[list] = None
    profile: Optional[dict] = None  # layers.profile_by_layer()


def run_rep(workload, probe, tracer=None, profile=False,
            keep_runs=False) -> RepRecord:
    from perfbench import layers

    patches = layers.Patches()
    if tracer is not None:
        tracer.install(patches)
    if profile:
        probe.profiles = {}
    try:
        if tracer is not None:
            with tracer.open("rep"):
                rep = workload.rep()
        else:
            rep = workload.rep()
    finally:
        patches.undo()
        profiles, probe.profiles = probe.profiles, None
    runs = probe.take()
    return RepRecord(
        rep, layers.digest(runs), layers.work_counters(runs),
        sum(x["mem_ops"] for x in runs), sum(x["cpu_s"] for x in runs),
        runs if keep_runs else [],
        spans=tracer.take() if tracer is not None else None,
        profile=layers.profile_by_layer(profiles) if profile else None,
    )


def measure(workload, seconds: float, traced: bool):
    """Warm up, then run reps for *seconds*; returns (plain, traced,
    profiled) rep records."""
    from perfbench import layers

    patches = layers.Patches()
    probe = layers.RunProbe()
    probe.install(patches)
    layers.install_config_context(patches)
    plain: List[RepRecord] = []
    spanned: List[RepRecord] = []
    profiled: List[RepRecord] = []
    try:
        workload.warm_up()
        probe.take()
        start = time.perf_counter()
        while True:
            if traced and len(spanned) < len(plain):
                spanned.append(run_rep(workload, probe, layers.SpanTracer()))
            else:
                plain.append(run_rep(workload, probe, keep_runs=not plain))
            if traced:
                enough = min(len(plain), len(spanned)) >= MIN_TRACED_REPS
            else:
                enough = len(plain) >= MIN_REPS
            if enough and time.perf_counter() - start >= seconds:
                break
        if traced:
            for _ in range(2):
                profiled.append(run_rep(workload, probe, profile=True))
    finally:
        patches.undo()
    return plain, spanned, profiled


def check_reps(records: List[RepRecord], problems: List[str]) -> int:
    """Every rep must repeat the first one exactly: simulated statistics,
    work counts and store records.  Returns configs failed by a mismatch."""
    failed = 0
    first = records[0]
    want = (first.digest, first.counters, first.rep.counts,
            first.rep.store_files)
    for i, record in enumerate(records[1:], start=1):
        got = (record.digest, record.counters, record.rep.counts,
               record.rep.store_files)
        for what, a, b in zip(("digest", "work counters", "cache counters",
                               "store records"), want, got):
            if a != b:
                problems.append(f"rep {i}: {what} differ from rep 0")
                failed += record.rep.configs
                break
    return failed


def replay_goldens(problems: List[str]):
    """Replay every golden config cold; returns (attempted, failed)."""
    from repro.harness import runner
    from repro.harness.runner import RunConfig
    from repro.workloads.synthetic import clear_trace_cache

    entries = json.loads(GOLDEN.read_text())["entries"]
    failed = 0
    for entry in entries:
        runner.clear_cache()
        runner.clear_snapshot_cache()
        clear_trace_cache()
        cfg = RunConfig.from_dict(entry["config"])
        try:
            ok = runner.run_workload(cfg).to_dict() == entry["expected"]
        except Exception as exc:  # a crash is a failed config, reported
            problems.append(f"golden {cfg.scheme}/{cfg.workload}: {exc!r}")
            failed += 1
            continue
        if not ok:
            problems.append(
                f"golden {cfg.scheme}/{cfg.workload} seed={cfg.seed}: "
                "result is not bit-identical")
            failed += 1
    runner.clear_cache()
    runner.clear_snapshot_cache()
    clear_trace_cache()
    return len(entries), failed


def time_setup(workload_name: str, workdir: Path):
    """Set-up seconds and import seconds of fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    setup, imports = [], []
    for i in range(SETUP_REPS):
        root = workdir / f"setup-{i}"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             workload_name, str(root)],
            stdout=subprocess.PIPE, cwd=str(ROOT), env=env, text=True,
        )
        try:
            line = proc.stdout.readline()
            setup.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not line:
            raise RuntimeError(f"setup probe exited with {code}")
        imports.append(json.loads(line)["import_s"])
    return statistics.median(setup), statistics.median(imports)


def end_to_end(plain: List[RepRecord], setup_s: float) -> Dict[str, float]:
    sim, runs, cpu = [], [], []
    for r in plain:
        sim.append(r.mem_ops / r.run_cpu_s)
        runs.append(r.rep.configs / r.rep.wall_s)
        cpu.append(r.rep.cpu_s / r.rep.configs)
    return {
        "sim_mem_ops_per_s": statistics.median(sim),
        "runs_per_s": statistics.median(runs),
        "cpu_s_per_run": statistics.median(cpu),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def cached_runs_per_s(plain: List[RepRecord]) -> float:
    """Configs per second of the median cached re-run of the grid; 0 for a
    workload without a read phase.  Read passes are pooled over the reps:
    each is a few milliseconds, so their median samples the whole run."""
    read_s = [t for r in plain for t in r.rep.read_s]
    if not read_s:
        return 0.0
    return plain[0].rep.configs / statistics.median(read_s)


def span_layers(record: RepRecord) -> Dict[str, float]:
    """Per-layer seconds and counts of one traced rep."""
    from perfbench import layers

    self_s = layers.self_times(record.spans)
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    for sid, name, _t0, _t1, _p, _c, _th in record.spans:
        total[name] = total.get(name, 0.0) + self_s[sid]
        count[name] = count.get(name, 0) + 1
    runner_batch = sum(t1 - t0 for _s, name, t0, t1, _p, _c, thread
                       in record.spans
                       if name == "run_campaign" and thread != "MainThread")
    service_wall = next((t1 - t0 for _s, name, t0, t1, _p, _c, _th
                         in sorted(record.spans, key=lambda s: s[2])
                         if name == "run_distributed_campaign"), 0.0)
    out = {
        "engine.run_s": total.get("Machine.run", 0.0),
        "workloads.trace_s": total.get("materialized_trace", 0.0),
        "system.build_s": total.get("build_machine", 0.0),
        "snapshot.snapshot_s": total.get("Machine.snapshot", 0.0),
        "snapshot.restore_s": total.get("Machine.restore", 0.0),
        "campaign.self_s": total.get("run_campaign", 0.0),
        "campaign.store.put_s": total.get("ResultStore.put", 0.0),
        "campaign.store.puts": count.get("ResultStore.put", 0),
        "campaign.store.get_s": total.get("ResultStore.get", 0.0),
        "campaign.store.gets": count.get("ResultStore.get", 0),
        "service.index.sync_s": total.get("ResultIndex.sync_from_store", 0.0),
        "service.index.query_s": total.get("ResultIndex.query", 0.0),
        "service.runner_batch_s": runner_batch,
        "service.wait_s": service_wall - runner_batch if service_wall else 0.0,
    }
    for key in ("service.requests", "service.request_s",
                "service.journal_fsync_s", "service.ingest_s",
                "service.lease_expiries", "service.backoff_retries"):
        out[key] = record.rep.service.get(key, 0.0)
    return out


def per_layer(workload, plain, spanned, profiled, import_s,
              problems: List[str]) -> Dict[str, float]:
    from perfbench import layers

    out: Dict[str, float] = {}
    per_rep = [span_layers(r) for r in spanned]
    for key in per_rep[0]:
        out[key] = statistics.median(d[key] for d in per_rep)
    for key in ("campaign.store.puts", "campaign.store.gets"):
        if len({d[key] for d in per_rep}) != 1:
            problems.append(f"{key} differs between traced reps")

    runs = plain[0].runs
    counts = plain[0].counters
    out["engine.events"] = counts["engine.events"]
    out["engine.events_per_llc_miss"] = (
        counts["engine.events"] / max(1, counts["engine.llc_misses"]))
    for scheme in SCHEMES:
        for key in ("core.page_fills", "dram.hbm_accesses",
                    "dram.ddr_accesses"):
            out[f"{key}.{scheme}"] = counts.get(f"{key}.{scheme}", 0)
    backend = {
        key: sum(r["metrics"].get(f"backend.{key}", 0) for r in runs
                 if r["scheme"] == "nomad")
        for key in ("buffer_hits", "buffer_write_merges", "sub_entry_waits",
                    "data_hits", "data_misses")
    }
    served = backend["buffer_hits"] + backend["buffer_write_merges"]
    waits = backend["sub_entry_waits"]
    out["core.buffer_hit_ratio"] = served / (served + waits) if served + waits else 0.0
    hits, misses = backend["data_hits"], backend["data_misses"]
    out["core.data_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    snap = plain[0].rep.counts
    forks = snap.get("snapshot.hits", 0)
    builds = snap.get("snapshot.misses", 0)
    out["snapshot.hit_ratio"] = forks / (forks + builds) if forks + builds else 0.0
    out["campaign.cached_runs_per_s"] = cached_runs_per_s(plain)
    memo = workload.memo
    out["campaign.memo.hit_ratio"] = (
        memo["hits"] / (memo["hits"] + memo["misses"])
        if memo["hits"] + memo["misses"] else 0.0)

    # In-run layers: cProfile self time (mean of the two passes) and calls
    # per simulated memory op (which must repeat exactly).
    mem_ops = {s: counts.get(f"mem_ops.{s}", 0) for s in SCHEMES}
    first, second = profiled[0].profile, profiled[1].profile
    calls_a = {s: {l: n for l, (_t, n) in d.items()} for s, d in first.items()}
    calls_b = {s: {l: n for l, (_t, n) in d.items()} for s, d in second.items()}
    if calls_a != calls_b:
        problems.append("cProfile call counts differ between profile passes")
    for layer in layers.IN_RUN_LAYERS:
        for scheme in SCHEMES:
            ta = first.get(scheme, {}).get(layer, (0.0, 0))
            tb = second.get(scheme, {}).get(layer, (0.0, 0))
            out[f"{layer}.self_s.{scheme}"] = (ta[0] + tb[0]) / 2
            out[f"{layer}.calls.{scheme}"] = (
                ta[1] / mem_ops[scheme] if mem_ops[scheme] else 0.0)

    out["cli.import_s"] = import_s
    out["trace_overhead_frac"] = (
        statistics.median(r.rep.wall_s for r in spanned)
        / statistics.median(r.rep.wall_s for r in plain) - 1.0)
    return out


def write_spans(path: Path, workload, spanned, digest: str) -> None:
    from perfbench import layers

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": workload.seed,
        "digest": digest,
        "reps": [layers.spans_to_json(r.spans) for r in spanned],
    }))


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not GOLDEN.is_file():
        print(f"error: {ROOT} is not a checkout of the repository "
              "(src/repro or the golden metrics are missing)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import layers, workloads

    workdir = WORK / f"run-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    problems: List[str] = []
    try:
        plain, spanned, profiled = measure(workload, args.seconds,
                                           bool(args.trace))
        records = plain + spanned + profiled
        attempted = sum(r.rep.attempted for r in records)
        failed = sum(r.rep.failed for r in records)
        for r in records:
            problems.extend(r.rep.problems)
        failed += check_reps(records, problems)
        setup_s, import_s = time_setup(args.workload, workdir)
        metrics = end_to_end(plain, setup_s)  # peak RSS before the goldens
        golden_attempted, golden_failed = replay_goldens(problems)
        attempted += golden_attempted
        failed += golden_failed
        digest = plain[0].digest
        if args.trace:
            before = len(problems)
            layer_metrics = per_layer(workload, plain, spanned, profiled,
                                      import_s, problems)
            failed += len(problems) - before
            write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.json",
                        workload, spanned, digest)
    finally:
        workload.close()
    # A config can fail twice over (a wrong status and a digest mismatch
    # in the same rep); count it once.
    failed = min(failed, attempted)

    units = {name: unit for name, unit, _b, _x in END_TO_END}
    print(f"workload {workload.name} seed={args.seed}: "
          f"{len(plain)} timed reps of {plain[0].rep.configs} configs")
    print(f"digest {workload.name} seed={args.seed}: {digest}")
    print(f"  {'failed_frac':<28} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} configs)")
    for problem in problems:
        print(f"  FAIL {problem}")
    if args.trace:
        spec = per_layer_spec()
        units = {name: unit for name, unit, _b in spec}
        metrics = {name: layer_metrics[name] for name, _u, _b in spec}
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
