"""The warm worker pool: forked workers, each on a private duplex pipe.

The daemon keeps one :class:`WarmPool` alive across requests.  Workers
are forked eagerly at construction (and pinged, so the first real
request never pays process start-up) and reused until they die or the
service shuts down — reuse is what makes the per-worker caches in
:mod:`repro.service.worker` accumulate across requests.

Each worker owns one channel and runs one job at a time, and the
daemon's event loop reads every channel, so replies and deaths are
attributed exactly: a reply resolves the job its worker was given, and
EOF on a channel (``os._exit``, OOM kill, segfault) fails that one job
with :class:`WorkerDied` and forks a replacement.  Jobs wait in the
pool, oldest first, while every worker is busy.  A job cancelled while
it waits (its deadline passed) is never sent; one cancelled while it
runs keeps its worker until it finishes, and its answer is dropped.
The loop sends and reads with plain blocking calls, which never wait on
computation: a job goes only to an idle worker, which is blocked
reading its channel, and a worker writes each reply in one piece.

A worker holds no channel but its own: at fork it closes every other
worker's channel, of this pool or any other in the process, and every
inherited listener.  When its daemon dies, however it dies, the channel
reaches EOF and the worker exits through multiprocessing's normal exit
path (so ``multiprocessing.util.Finalize`` hooks run).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
import threading
import weakref
from collections import deque
from multiprocessing import util

from repro.service.tcp import close_inherited_listeners, listener_fds
from repro.service.worker import worker_ping

__all__ = ["WarmPool", "WorkerDied"]

_FORK = multiprocessing.get_context("fork")

#: The parent end of every live worker channel in this process, across
#: pools: a fork child closes them all (its own parent end included).
_CHANNELS: "weakref.WeakSet" = weakref.WeakSet()

#: Held from a channel's creation until the parent has closed its child
#: end, so a fork in another thread never inherits a channel half-made.
_SPAWN_LOCK = threading.Lock()

#: Set at interpreter exit once every channel is closed: a worker lost
#: after that is not replaced, since nothing would ever close the
#: replacement's channel and multiprocessing would wait on it forever.
_exiting = False


def _close_channels() -> None:
    global _exiting
    with _SPAWN_LOCK:
        _exiting = True
        for channel in list(_CHANNELS):
            channel.close()


# multiprocessing joins live worker processes at interpreter exit; an
# unclosed pool's channels are closed first, so its workers see EOF.
util.Finalize(None, _close_channels, exitpriority=10)


class WorkerDied(RuntimeError):
    """The worker running a job exited before answering it."""


def _serve(channel) -> None:
    """A worker's life: run each job it is sent until its channel closes."""
    # The daemon decides when workers stop (drain closes the channels);
    # a terminal's Ctrl-C reaches the whole process group.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in list(_CHANNELS):
        other.close()
    close_inherited_listeners(listener_fds())
    while True:
        try:
            fn, args = channel.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (True, fn(*args))
        except Exception as exc:  # noqa: BLE001 — shipped to the parent
            reply = (False, exc)
        try:
            channel.send(reply)
        except OSError:
            return


class _Worker:
    __slots__ = ("process", "channel", "fd", "job")

    def __init__(self, process, channel) -> None:
        self.process = process
        self.channel = channel
        self.fd = channel.fileno()
        self.job: asyncio.Future | None = None


class WarmPool:
    """Warm fork workers on private channels, driven by the event loop."""

    def __init__(self, workers: int = 1, *, warm: bool = True) -> None:
        self.workers = max(1, int(workers))
        #: Workers forked to replace dead ones (``stats``' pool_rebuilds).
        self.respawns = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pending: deque = deque()  # (future, fn, args), oldest first
        self._live = [self._spawn() for _ in range(self.workers)]
        self._idle = list(self._live)
        if warm:
            for worker in self._live:
                worker.channel.send((worker_ping, ()))
            for worker in self._live:
                worker.channel.recv()

    def _spawn(self) -> _Worker:
        with _SPAWN_LOCK:
            channel, child_end = _FORK.Pipe()
            _CHANNELS.add(channel)
            try:
                process = _FORK.Process(target=_serve, args=(child_end,),
                                        name="repro-worker")
                process.start()
            except OSError:
                _CHANNELS.discard(channel)
                channel.close()
                raise
            finally:
                child_end.close()
        worker = _Worker(process, channel)
        if self._loop is not None:
            self._loop.add_reader(worker.fd, self._on_reply, worker)
        return worker

    def submit(self, fn, *args) -> tuple[int, asyncio.Future]:
        """Queue ``fn(*args)`` for the next free worker.

        Call on the event loop thread.  Returns ``(respawns so far,
        future)``; the future resolves with the worker's return value,
        the exception it raised, or :class:`WorkerDied`.
        """
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
            for worker in self._live:
                self._loop.add_reader(worker.fd, self._on_reply, worker)
        future = self._loop.create_future()
        self._pending.append((future, fn, args))
        if self._idle:
            self._dispatch(self._idle.pop())
        return self.respawns, future

    def _dispatch(self, worker: _Worker) -> None:
        """Send *worker* the oldest live pending job, or park it idle."""
        while self._pending:
            future, fn, args = job = self._pending.popleft()
            if future.done():  # cancelled while waiting: never sent
                continue
            try:
                worker.channel.send((fn, args))
            except OSError:  # the worker died idle; the job never ran
                self._pending.appendleft(job)
                self._lost(worker)
                return
            worker.job = future
            return
        self._idle.append(worker)

    def _on_reply(self, worker: _Worker) -> None:
        try:
            ok, value = worker.channel.recv()
        except (EOFError, OSError):
            self._lost(worker)
            return
        future, worker.job = worker.job, None
        if not future.done():  # else its deadline passed: drop the answer
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
        self._dispatch(worker)

    def _retire(self, worker: _Worker) -> None:
        """Stop reading *worker*'s channel and close it."""
        if self._loop is not None:
            self._loop.remove_reader(worker.fd)
        with _SPAWN_LOCK:
            worker.channel.close()
            _CHANNELS.discard(worker.channel)

    def _lost(self, worker: _Worker) -> None:
        """*worker*'s channel closed: fail its job, fork a replacement."""
        self._retire(worker)
        worker.process.kill()  # a no-op unless it closed without exiting
        worker.process.join()
        self._live.remove(worker)
        if worker in self._idle:
            self._idle.remove(worker)
        if worker.job is not None and not worker.job.done():
            worker.job.set_exception(WorkerDied(
                f"worker pid {worker.process.pid} exited "
                f"(code {worker.process.exitcode}) while running the job"))
        if _exiting:
            return
        replacement = self._spawn()
        self.respawns += 1
        self._live.append(replacement)
        self._dispatch(replacement)

    def shutdown(self) -> None:
        """Close every channel and wait for the workers to exit.

        A worker still running a job (one past its deadline) finishes
        it first.  Jobs still waiting are cancelled.
        """
        for future, _, _ in self._pending:
            future.cancel()
        self._pending.clear()
        for worker in self._live:
            self._retire(worker)
            if worker.job is not None:
                worker.job.cancel()
        for worker in self._live:
            worker.process.join()
        self._live.clear()
        self._idle.clear()
