"""Layer-injection self-test: a slowdown injected into one layer is caught.

Each case wraps one public call with a delay, then checks the metric
interaction table of
perfbench/README.md: on the workload where the layer does the most work
the named per-layer metric and the metric it predicts both move,
and on the workload where it does the least the end-to-end metric stays
within its bound.  Injected and clean reps alternate in one process, so
slow drift of the host hits both sides alike.
"""

import statistics
import time

import pytest

from perfbench import layers, run, workloads

BOUND = {name: bound for name, _u, _b, bound in run.END_TO_END}
HIGHER = {name: better == "higher"
          for name, _u, better in run.per_layer_spec()}
HIGHER.update((name, better == "higher")
              for name, _u, better, _x in run.END_TO_END)


def slowed(factor, fixed_s):
    """A wrapper factory that sleeps ``factor`` x the call's own duration
    plus ``fixed_s`` after each call."""
    def make(func):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                time.sleep(factor * (time.perf_counter() - t0) + fixed_s)
        return wrapper
    return make


def measure_ab(workload_name, call, delay, tmp_path, pairs=3):
    """Median end-to-end and per-layer metrics, clean vs injected."""
    workload = workloads.WORKLOADS[workload_name](1, tmp_path / workload_name)
    probe = layers.RunProbe()
    warm = layers.Patches()
    probe.install(warm)
    try:
        workload.warm_up()
    finally:
        warm.undo()
    probe.take()
    records = {False: [], True: []}
    try:
        for i in range(2 * pairs):
            injected = (i % 2 == 1) == (i // 2 % 2 == 0)  # ABBA order
            patches = layers.Patches()
            if injected:
                patches.wrap(call, slowed(*delay))
            probe.install(patches)
            layers.install_config_context(patches)
            try:
                records[injected].append(
                    run.run_rep(workload, probe, layers.SpanTracer()))
            finally:
                patches.undo()
    finally:
        workload.close()
    out = {}
    for injected, recs in records.items():
        for rec in recs:
            assert rec.rep.failed == 0, rec.rep.problems
        per_rep = [run.span_layers(r) for r in recs]
        layer = {k: statistics.median(d[k] for d in per_rep)
                 for k in per_rep[0]}
        layer["campaign.cached_runs_per_s"] = run.cached_runs_per_s(recs)
        out[injected] = (run.end_to_end(recs, 1.0), layer)
    return out


def worsening(metric, clean, injected):
    """Fractional change of *metric* in its worse direction."""
    if HIGHER[metric]:
        return 1.0 - injected / clean
    return injected / clean - 1.0


# call, (factor, fixed seconds) of the delay, per-layer metric, the metric
# it should move, most, least, and the end-to-end metric that must stay
# within its bound on the least workload.  Store calls are a small share of
# any wall, so they get a fixed delay (a slow disk); the others are slowed
# in proportion to their own time.  A moved metric without a bound of its
# own (a per-layer one) must move by more than the widest end-to-end bound.
CASES = [
    ("Machine.run", (1.0, 0.0), "engine.run_s", "runs_per_s",
     "compare-excess", "sweep-service", "runs_per_s"),
    # The sweep was the predicted "least" for build_machine.  Measured,
    # building is about the same share of the write phase in the
    # comparisons and the sweep (see README), so no workload does little of
    # it and the case has no "least" check.
    ("build_machine", (2.0, 0.0), "system.build_s", "runs_per_s",
     "compare-excess", None, None),
    ("Machine.restore", (6.0, 0.0), "snapshot.restore_s", "runs_per_s",
     "sweep-service", "compare-excess", "runs_per_s"),
    ("ResultStore.put", (0.0, 0.1), "campaign.store.put_s", "runs_per_s",
     "sweep-service", "compare-excess", "runs_per_s"),
    ("ResultStore.get", (0.0, 0.002), "campaign.store.get_s",
     "campaign.cached_runs_per_s", "sweep-service", "compare-excess",
     "runs_per_s"),
]


@pytest.mark.parametrize("call,delay,layer_metric,metric,most,least,kept",
                         CASES, ids=[c[0] for c in CASES])
def test_injected_slowdown_is_attributed(call, delay, layer_metric, metric,
                                         most, least, kept, tmp_path):
    results = measure_ab(most, call, delay, tmp_path)
    (e2e_clean, layer_clean), (e2e_slow, layer_slow) = (
        results[False], results[True])
    assert layer_clean[layer_metric] > 0
    # The sleep lands inside the call's span, so its self time grows.
    assert layer_slow[layer_metric] > layer_clean[layer_metric] * 1.5, (
        layer_clean[layer_metric], layer_slow[layer_metric])
    clean = {**layer_clean, **e2e_clean}
    slow = {**layer_slow, **e2e_slow}
    assert worsening(metric, clean[metric], slow[metric]) \
        > BOUND.get(metric, max(BOUND.values())), (clean, slow)

    if least is None:
        return
    results = measure_ab(least, call, delay, tmp_path)
    (e2e_clean, _layer), (e2e_slow, _layer_slow) = (
        results[False], results[True])
    assert worsening(kept, e2e_clean[kept], e2e_slow[kept]) \
        <= BOUND[kept], (e2e_clean, e2e_slow)
