"""Fault-tolerant process-pool fan-out.

:func:`map_with_retries` is the campaign's robustness layer, independent
of simulation details so it can be tested with injected crashing/hanging
workers.  Guarantees:

* a worker that **crashes** (the process dies) poisons only its own
  task: the broken pool is torn down, a fresh one is created, and the
  affected tasks are resubmitted up to ``retries`` extra times;
* a worker that **hangs** trips the stall watchdog: if no task completes
  for ``timeout`` seconds the outstanding worker processes are killed
  and their tasks retried (then marked ``"timeout"`` once the retry
  budget is spent);
* a task that raises an ordinary **exception** is deterministic, so it
  is recorded as ``"error"`` immediately and not retried;
* the returned outcomes are in submission order regardless of
  completion order, keeping campaign merges deterministic.

:func:`map_in_process` is its single-process twin (``jobs <= 1``): the
same outcomes and ``done`` events, with no processes to retry.
"""

from __future__ import annotations

import concurrent.futures as cf
import random as _random
import time as _time
import traceback as _traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence

from repro.obs.log import get_logger as _get_logger

_LOG = _get_logger("pool")

OK = "ok"
ERROR = "error"  # the task itself raised -- deterministic, no retry
CRASHED = "crashed"  # the worker process died
TIMEOUT = "timeout"  # stall watchdog fired


@dataclass(frozen=True)
class Backoff:
    """Exponential backoff with jitter, shared by every retry loop.

    ``delay(attempt)`` for attempt 1, 2, 3, ... grows as
    ``base * factor**(attempt-1)`` capped at ``cap``, then randomized
    into ``[raw * (1 - jitter), raw]`` so a fleet of retriers does not
    resynchronize into thundering herds.  Used between pool resubmission
    rounds and for runner->broker reconnects (:mod:`repro.service`).
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 30.0
    jitter: float = 0.5  # fraction of the raw delay that is randomized

    def delay(self, attempt: int, rng: Callable[[], float] = _random.random) -> float:
        raw = min(self.cap, self.base * self.factor ** max(0, attempt - 1))
        return raw * (1.0 - self.jitter * (1.0 - rng()))

    def sleep(self, attempt: int,
              sleep: Callable[[float], None] = _time.sleep) -> float:
        d = self.delay(attempt)
        sleep(d)
        return d


#: Policy applied between crash/hang resubmission rounds.  Small base:
#: a pool retry already paid a pool teardown, the backoff only has to
#: de-correlate, not throttle.
DEFAULT_POOL_BACKOFF = Backoff(base=0.05, cap=2.0)


def _format_tb(exc: BaseException) -> str:
    """Full formatted traceback; for pool exceptions this includes the
    worker-side ``_RemoteTraceback`` chained via ``__cause__``."""
    return "".join(
        _traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


@dataclass
class TaskOutcome:
    """What happened to one payload after all attempts."""

    index: int
    status: str = TIMEOUT
    value: Any = None
    error: str = ""
    attempts: int = 0
    traceback: str = ""

    @property
    def ok(self) -> bool:
        return self.status == OK


def map_in_process(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    on_event: Optional[Callable[[str, dict], None]] = None,
) -> Iterator[TaskOutcome]:
    """:func:`map_with_retries` in this process, for ``jobs <= 1``.

    Yields the same outcomes, lazily (the caller persists each result
    before the next payload runs), and reports the same ``done`` events.
    No watchdog, no retries: an exception is an ``"error"`` outcome.
    """
    n = len(payloads)
    for i, payload in enumerate(payloads):
        try:
            outcome = TaskOutcome(index=i, status=OK, value=fn(payload),
                                  attempts=1)
        except Exception as exc:
            outcome = TaskOutcome(
                index=i,
                status=ERROR,
                error=f"{type(exc).__name__}: {exc}",
                attempts=1,
                traceback=_format_tb(exc),
            )
        if on_event is not None:
            on_event("done", {
                "completed": i + 1, "outstanding": n - i - 1, "total": n,
            })
        yield outcome


def _kill_pool(pool: cf.ProcessPoolExecutor) -> None:
    """Tear a pool down even if workers are wedged."""
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def map_with_retries(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: int = 2,
    timeout: Optional[float] = None,
    retries: int = 1,
    heartbeat: Optional[float] = None,
    on_event: Optional[Callable[[str, dict], None]] = None,
    backoff: Optional[Backoff] = DEFAULT_POOL_BACKOFF,
) -> List[TaskOutcome]:
    """Apply *fn* to every payload across worker processes.

    ``timeout`` is a stall watchdog: the time with *no* task completion
    after which outstanding workers are presumed hung.  ``retries`` is
    the number of *extra* attempts granted to crashed/hung tasks;
    resubmission rounds are spaced by ``backoff`` (exponential with
    jitter; ``None`` restores immediate resubmit).

    ``heartbeat`` (seconds) slices the waits so ``on_event`` can report
    live progress: ``on_event("done", info)`` after each batch of
    completions, ``on_event("heartbeat", info)`` when a slice elapses
    with nothing finished, with ``info = {completed, outstanding,
    total}``.  The watchdog still measures time since the *last
    completion*, so a heartbeat never masks a hang.
    """
    n = len(payloads)
    outcomes = [TaskOutcome(index=i) for i in range(n)]
    attempts = [0] * n
    pending = list(range(n))

    def _notify(kind: str, outstanding: int) -> None:
        if on_event is not None:
            done_count = sum(
                1 for o in outcomes if o.status in (OK, ERROR)
            )
            on_event(kind, {
                "completed": done_count,
                "outstanding": outstanding,
                "total": n,
            })

    while pending:
        pool = cf.ProcessPoolExecutor(max_workers=max(1, min(jobs, len(pending))))
        futures = {}
        for i in pending:
            attempts[i] += 1
            futures[pool.submit(fn, payloads[i])] = i
        retry: List[int] = []
        broken = False
        not_done = set(futures)
        last_completion = _time.monotonic()
        while not_done:
            wait_t = timeout
            if timeout is not None:
                # Budget remaining before the watchdog may fire.
                wait_t = timeout - (_time.monotonic() - last_completion)
            if heartbeat is not None:
                wait_t = heartbeat if wait_t is None else min(heartbeat, wait_t)
            if wait_t is not None and wait_t < 0:
                wait_t = 0
            done, not_done = cf.wait(not_done, timeout=wait_t)
            if not done:
                stalled = (
                    timeout is not None
                    and _time.monotonic() - last_completion >= timeout
                )
                if not stalled:
                    _notify("heartbeat", len(not_done))
                    continue
                # Watchdog: nothing finished within `timeout` seconds.
                _LOG.warning(
                    "pool.watchdog", timeout_s=timeout,
                    outstanding=len(not_done),
                )
                for fut in not_done:
                    i = futures[fut]
                    outcomes[i] = TaskOutcome(
                        index=i,
                        status=TIMEOUT,
                        error=f"no completion within {timeout}s; worker killed",
                        attempts=attempts[i],
                    )
                    retry.append(i)
                broken = True
                break
            last_completion = _time.monotonic()
            for fut in done:
                i = futures[fut]
                try:
                    outcomes[i] = TaskOutcome(
                        index=i, status=OK, value=fut.result(), attempts=attempts[i]
                    )
                except cf.CancelledError:
                    retry.append(i)  # never ran; resubmit without penalty
                    attempts[i] -= 1
                except BrokenProcessPool as exc:
                    outcomes[i] = TaskOutcome(
                        index=i,
                        status=CRASHED,
                        error=str(exc) or "worker process died",
                        attempts=attempts[i],
                        traceback=_format_tb(exc),
                    )
                    retry.append(i)
                    broken = True
                except BaseException as exc:  # the task itself raised
                    outcomes[i] = TaskOutcome(
                        index=i,
                        status=ERROR,
                        error=f"{type(exc).__name__}: {exc}",
                        attempts=attempts[i],
                        traceback=_format_tb(exc),
                    )
            _notify("done", len(not_done))
        if broken:
            _kill_pool(pool)
        else:
            pool.shutdown(wait=True, cancel_futures=True)
        # Resubmit crashed/hung tasks that still have attempts left,
        # after a jittered exponential pause (a crashed worker often
        # means a transiently sick host; hammering it back-to-back just
        # burns the retry budget).
        pending = [i for i in retry if attempts[i] <= retries]
        if pending:
            _LOG.info(
                "pool.retry", tasks=len(pending),
                attempts=max(attempts[i] for i in pending),
                crashed=sum(1 for i in pending
                            if outcomes[i].status == CRASHED),
            )
        if pending and backoff is not None:
            backoff.sleep(max(attempts[i] for i in pending))
    return outcomes
