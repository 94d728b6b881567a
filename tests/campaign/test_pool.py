"""Robustness layer: crashes, hangs, retries, deterministic merge order."""

import pytest

from repro.campaign.pool import (
    CRASHED,
    ERROR,
    OK,
    TIMEOUT,
    map_in_process,
    map_with_retries,
)

from tests.campaign import workers


def test_all_ok_preserves_submission_order():
    outcomes = map_with_retries(workers.square, list(range(8)), jobs=4)
    assert [o.status for o in outcomes] == [OK] * 8
    assert [o.value for o in outcomes] == [i * i for i in range(8)]
    assert [o.index for o in outcomes] == list(range(8))


def test_deterministic_crash_exhausts_retries_and_spares_others():
    payloads = [1, 2, 3]
    outcomes = map_with_retries(
        workers.crash_if_two, payloads, jobs=2, retries=2
    )
    assert outcomes[0].status == OK and outcomes[0].value == 1
    assert outcomes[2].status == OK and outcomes[2].value == 3
    assert outcomes[1].status == CRASHED
    assert outcomes[1].attempts == 3  # 1 try + 2 retries


def test_crash_once_recovers_on_retry(tmp_path):
    marker = str(tmp_path / "attempted.marker")
    outcomes = map_with_retries(workers.crash_once, [marker], jobs=2, retries=1)
    assert outcomes[0].status == OK
    assert outcomes[0].value == "recovered"
    assert outcomes[0].attempts == 2


def test_task_exception_is_error_not_retried():
    outcomes = map_with_retries(workers.raise_value_error, [7], jobs=2,
                                retries=3)
    assert outcomes[0].status == ERROR
    assert outcomes[0].attempts == 1
    assert "bad payload 7" in outcomes[0].error


def test_hung_worker_trips_watchdog():
    outcomes = map_with_retries(
        workers.hang_if_negative, [2, -1, 3], jobs=3, timeout=1.0, retries=0
    )
    assert outcomes[0].status == OK and outcomes[0].value == 4
    assert outcomes[2].status == OK and outcomes[2].value == 9
    assert outcomes[1].status == TIMEOUT
    assert "worker killed" in outcomes[1].error


def test_heartbeat_reports_progress_without_completions():
    events = []
    outcomes = map_with_retries(
        workers.sleep_briefly, [1, 2], jobs=2,
        heartbeat=0.1, on_event=lambda kind, info: events.append((kind, info)),
    )
    assert [o.status for o in outcomes] == [OK, OK]
    kinds = [kind for kind, _ in events]
    # The workers sleep ~0.6 s, so several 0.1 s slices elapse first.
    assert "heartbeat" in kinds
    assert "done" in kinds
    final_kind, final_info = events[-1]
    assert final_kind == "done"
    assert final_info["completed"] == 2
    assert final_info["outstanding"] == 0
    assert final_info["total"] == 2
    # Heartbeats never claim more completions than have happened.
    for kind, info in events:
        if kind == "heartbeat":
            assert info["completed"] < 2


def test_heartbeat_does_not_mask_the_watchdog():
    events = []
    outcomes = map_with_retries(
        workers.hang_if_negative, [-1], jobs=1, timeout=0.8, retries=0,
        heartbeat=0.1, on_event=lambda kind, info: events.append(kind),
    )
    assert outcomes[0].status == TIMEOUT
    assert "heartbeat" in events


# -- jittered exponential backoff (shared with the service layer) -----------

def test_backoff_grows_exponentially_without_jitter():
    from repro.campaign.pool import Backoff

    b = Backoff(base=0.1, factor=2.0, cap=30.0, jitter=0.0)
    assert b.delay(1) == pytest.approx(0.1)
    assert b.delay(2) == pytest.approx(0.2)
    assert b.delay(3) == pytest.approx(0.4)
    assert b.delay(5) == pytest.approx(1.6)


def test_backoff_caps():
    from repro.campaign.pool import Backoff

    b = Backoff(base=1.0, factor=2.0, cap=5.0, jitter=0.0)
    assert b.delay(10) == pytest.approx(5.0)
    assert b.delay(100) == pytest.approx(5.0)  # no overflow blowup


def test_backoff_jitter_stays_in_band():
    from repro.campaign.pool import Backoff

    b = Backoff(base=1.0, factor=2.0, cap=30.0, jitter=0.5)
    # rng=0 -> full jitter reduction; rng=1 -> raw delay.
    assert b.delay(1, rng=lambda: 0.0) == pytest.approx(0.5)
    assert b.delay(1, rng=lambda: 1.0) == pytest.approx(1.0)
    import random
    r = random.Random(7)
    for attempt in (1, 2, 3, 4):
        raw = min(30.0, 1.0 * 2.0 ** (attempt - 1))
        for _ in range(50):
            d = b.delay(attempt, rng=r.random)
            assert raw * 0.5 <= d <= raw


def test_backoff_sleep_uses_injected_sleeper():
    from repro.campaign.pool import Backoff

    slept = []
    b = Backoff(base=0.2, jitter=0.0)
    returned = b.sleep(2, sleep=slept.append)
    assert slept == [pytest.approx(0.4)]
    assert returned == pytest.approx(0.4)


def test_map_with_retries_backs_off_between_retry_rounds(tmp_path):
    from repro.campaign.pool import Backoff

    class CountingBackoff(Backoff):
        calls = []  # class attr: instances are frozen dataclasses

        def sleep(self, attempt, sleep=None):
            CountingBackoff.calls.append(attempt)
            return 0.0

    CountingBackoff.calls = []
    marker = str(tmp_path / "attempted.marker")
    outcomes = map_with_retries(
        workers.crash_once, [marker], jobs=2, retries=1,
        backoff=CountingBackoff(base=0.01),
    )
    assert outcomes[0].status == OK
    assert CountingBackoff.calls == [1]  # one backoff before the retry


def test_map_with_retries_accepts_no_backoff():
    outcomes = map_with_retries(
        workers.square, [1, 2], jobs=2, backoff=None
    )
    assert [o.value for o in outcomes] == [1, 4]


def test_in_process_map_matches_pool_outcomes_lazily():
    calls, events = [], []

    def fn(x):
        calls.append(x)
        return workers.raise_value_error(x) if x == 2 else workers.square(x)

    outcomes = map_in_process(fn, [1, 2, 3],
                              on_event=lambda k, info: events.append(info))
    first = next(outcomes)
    # Lazy: the caller keeps each outcome before the next payload runs.
    assert calls == [1] and (first.status, first.value) == (OK, 1)
    rest = list(outcomes)
    pool = map_with_retries(workers.raise_value_error, [2], jobs=1)[0]
    assert rest[0].status == pool.status == ERROR
    assert rest[0].error == pool.error
    assert rest[0].attempts == pool.attempts == 1
    assert "Traceback" in rest[0].traceback
    assert (rest[1].index, rest[1].value) == (2, 9)
    assert [e["completed"] for e in events] == [1, 2, 3]
    assert events[-1] == {"completed": 3, "outstanding": 0, "total": 3}
