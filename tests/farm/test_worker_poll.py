"""Regression: the worker command loop polls instead of blocking.

An unbounded ``cmd_queue.get()`` meant a worker orphaned by a crashed
farm waited forever on a queue nobody would fill (LNT011).  The loop
now polls with :data:`repro.farm.worker._CMD_POLL_S` and re-checks the
parent process on every Empty.  These tests drive :func:`worker_main`
in a thread with plain queues -- in the test process
``multiprocessing.parent_process()`` is ``None``, exercising exactly
the idle-timeout -> liveness-check -> continue path.
"""

import queue
import threading

import numpy as np
import pytest

from repro.farm import ShmRing
from repro.farm import worker as worker_mod
from repro.farm.worker import worker_main


@pytest.fixture()
def ring():
    r = ShmRing(slots=4, slot_samples=16, dtype=np.complex128)
    yield r
    r.close()
    r.unlink()


def start_worker(ring, cmd_q, result_q):
    thread = threading.Thread(
        target=worker_main,
        args=(0, cmd_q, result_q, ring.name, 4, 16, "complex128"),
        daemon=True,
    )
    thread.start()
    return thread


def test_idle_polls_survive_until_stop(ring, monkeypatch):
    monkeypatch.setattr(worker_mod, "_CMD_POLL_S", 0.02)
    cmd_q, result_q = queue.Queue(), queue.Queue()
    thread = start_worker(ring, cmd_q, result_q)
    # Let the loop hit queue.Empty several times before any command.
    deadline_polls = threading.Event()
    deadline_polls.wait(0.15)
    cmd_q.put(("stop",))
    worker_id, tag, busy, wall = result_q.get(timeout=5.0)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert (worker_id, tag) == (0, "stopped")
    # Idle waiting is not billed as busy time.
    assert busy <= wall


def test_commands_after_idle_window_still_processed(ring, monkeypatch):
    monkeypatch.setattr(worker_mod, "_CMD_POLL_S", 0.02)
    cmd_q, result_q = queue.Queue(), queue.Queue()
    thread = start_worker(ring, cmd_q, result_q)
    threading.Event().wait(0.1)  # several empty polls first
    chunk = np.arange(8, dtype=np.complex128)
    slot = ring.claim()
    ring.write(slot, chunk)
    cmd_q.put(("feed", 1, slot, 8))  # unknown session would raise KeyError...
    msg = result_q.get(timeout=5.0)
    # ...which the loop reports as an error instead of hanging.
    assert msg[1] in ("free", "error")
    cmd_q.put(("stop",))
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_poll_interval_is_bounded():
    # The liveness re-check cadence: long enough to stay off the hot
    # path, short enough that an orphan exits promptly.
    assert 0 < worker_mod._CMD_POLL_S <= 5.0
