"""The warm pool's workers: private channels, exact attribution, clean exits.

Each worker owns one channel to its daemon and no other: a death fails
exactly the job that worker was running, and a worker exits as soon as
its channel reaches EOF — when its pool shuts down, and when its daemon
dies without shutting anything down.
"""

import asyncio
import os
import signal
import threading
import time

import pytest

from repro.service import LocalFleet, ServiceClient, ServiceError
from repro.service.pool import WarmPool, WorkerDied
from tests.service.test_service import one_shot_plan

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="reads process state from /proc")


def _die():  # runs in a fork worker
    os._exit(7)


def _square(x):  # runs in a fork worker
    return x * x


def _children(pid: int) -> set[int]:
    kids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            kids.add(int(entry))
    return kids


def _running(pid: int) -> bool:
    """True while *pid* runs (a zombie awaiting its reaper has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _still_running(pids, seconds: float) -> list[int]:
    deadline = time.monotonic() + seconds
    while True:
        left = [pid for pid in pids if _running(pid)]
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)


def test_workers_exit_when_their_daemon_is_killed():
    with LocalFleet(1, workers=1) as fleet:
        daemon = fleet.processes[0]
        workers = _children(daemon.pid)
        assert len(workers) == 1, workers
        fleet.kill(0, signal.SIGKILL)
        daemon.wait(timeout=10)
        left = _still_running(workers, 5.0)
        for pid in left:  # never leak an orphan, even on failure
            os.kill(pid, signal.SIGKILL)
        assert not left, f"pool worker(s) {left} outlived their daemon"


def test_a_later_pool_holds_no_channel_of_an_earlier_one():
    # The second pool forks after the first: if its worker kept a copy
    # of the first pool's channel, the first pool's worker would never
    # see EOF, and the first shutdown would wait on it forever.
    mine = os.getpid()
    before = _children(mine)
    first = WarmPool(1)
    first_workers = _children(mine) - before
    second = WarmPool(1)
    closing = threading.Thread(target=first.shutdown, daemon=True)
    try:
        closing.start()
        closing.join(timeout=10)
        assert not closing.is_alive(), \
            "the first pool's worker never saw its channel close"
        assert not _still_running(first_workers, 5.0)
    finally:
        second.shutdown()
        closing.join(timeout=10)


def test_a_death_fails_only_the_job_that_caused_it():
    pool = WarmPool(2)

    async def scenario():
        try:
            _, doomed = pool.submit(_die)
            _, innocent = pool.submit(_square, 7)
            with pytest.raises(WorkerDied):
                await doomed
            assert await innocent == 49
            # Both the survivor and the replacement serve on.
            futures = [pool.submit(_square, n)[1] for n in range(4)]
            assert await asyncio.gather(*futures) == [0, 1, 4, 9]
        finally:
            pool.shutdown()

    asyncio.run(scenario())
    assert pool.respawns == 1


def test_concurrent_respawns_keep_every_channel_private():
    # Three daemons in this process, each on its own loop thread, each
    # respawning its worker twice at once: every respawned worker must
    # still hold only its own channel, or some daemon's shutdown would
    # wait forever on a worker that never sees EOF.
    mine = os.getpid()
    before = _children(mine)
    clients = [ServiceClient(workers=1) for _ in range(3)]
    codes = []

    def poison(client):
        try:
            client.request(one_shot_plan("svc-poison", {"x": 1}))
        except ServiceError as exc:
            codes.append(exc.code)

    def close_all():
        for client in clients:
            client.close()

    closing = threading.Thread(target=close_all, daemon=True)
    try:
        callers = [threading.Thread(target=poison, args=(c,))
                   for c in clients]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
        assert codes == ["worker-died"] * 3
        assert [c.stats().pool_rebuilds for c in clients] == [2, 2, 2]
    finally:
        workers = _children(mine) - before
        closing.start()
        closing.join(timeout=30)
    assert not closing.is_alive(), "a daemon's workers never exited"
    assert not _still_running(workers, 5.0)
