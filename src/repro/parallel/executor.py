"""Multiprocess sweep executor: fan independent tasks out, merge in order.

The executor runs a list of :class:`~repro.parallel.tasks.SweepTask`
across ``jobs`` worker processes and returns their
:class:`~repro.parallel.tasks.TaskResult` in task order.  Design
contract, in priority order:

1. **Determinism** — the returned list, the order of ``on_result``
   callbacks, and any early-stop truncation are *byte-identical* for
   every job count.  :func:`run_sweep` reads results strictly in task
   order; a completion that arrives early waits for its predecessors.
   (The simulations themselves are deterministic per task; the
   message/thread id counters live per machine, not in process globals,
   so a warm worker reproduces a fresh process exactly.)
2. **One fleet** — :class:`WorkerPool` is the only code that spawns,
   reaps or tears down worker processes.  A sweep builds a private pool;
   the ``repro serve`` daemon keeps one warm across requests.  Each
   worker is created once and runs many tasks, so
   import/build cost is paid per worker, not per task: each worker
   imports the simulator before its first task (a no-op for what it
   inherited from its parent through ``fork``).
3. **Crash isolation** — each worker has its own duplex pipe, and the
   parent does the dispatch: it sends a task only to a worker it knows
   is idle, so it always knows which task each worker holds, and no
   channel is shared for a dying worker to wedge.  A worker that dies,
   busy or idle, shows up as EOF on its pipe; the task it held is
   reported as a crashed :class:`TaskResult` naming the task, and a
   replacement worker keeps the fleet at strength.  A task that merely
   *raises* never kills its worker at all (see
   :func:`~repro.parallel.tasks.execute`).
4. **No orphans** — :meth:`WorkerPool.shutdown` reaps every child on
   every exit path, including an interrupt that lands mid-teardown.
   EOF is the exit signal in both directions: a worker exits when its
   pipe closes, so a parent that dies, even by ``SIGKILL``, takes its
   workers with it.  That holds only if no other process keeps a
   parent end open, so a worker forked after others closes the parent
   ends it inherited.
5. **Pure in-process fallback** — ``jobs=1`` touches no subprocess
   machinery: the same ordered-delivery/early-stop loop runs each task
   inline, so the serial path stays as debuggable as a plain ``for``
   loop.

``--shard i/N`` support lives in :func:`~repro.parallel.tasks.shard_tasks`;
shards are plain task-list slices, so CI can split one sweep across
runner machines and the union of shards is exactly the full sweep.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import threading
import time
from collections import deque
from itertools import count
from multiprocessing import connection as mp_connection
from typing import Callable, Deque, Dict, List, Optional

from repro.parallel.tasks import SweepTask, TaskResult, execute

#: Seconds the collector waits on the worker pipes before re-reading
#: the set of live workers.  A result or a death wakes it at once.
_POLL_S = 0.1


def default_context() -> multiprocessing.context.BaseContext:
    """The preferred start method: ``fork`` where available (warm import
    state for free), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def effective_jobs(
    requested: int,
    cpu_count: Optional[int] = None,
    oversubscribe: bool = False,
) -> int:
    """Resolve a ``--jobs`` request against the visible CPU count.

    ``requested <= 0`` means "one worker per core".  A positive request
    is clamped to the visible CPU count: more simulation workers than
    cores only adds scheduling overhead (BENCH_history.jsonl records a
    ``jobs: 8`` sweep on a 1-core runner finishing *slower* than serial,
    speedup 0.79), so oversubscription is an explicit opt-in
    (``oversubscribe=True``, ``--oversubscribe`` on the CLI), never a
    silent default.  Callers that report sweep provenance should record
    both the request and the resolved value (``jobs_requested`` /
    ``jobs_effective``).
    """
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if requested <= 0:
        return cores
    if oversubscribe:
        return requested
    return min(requested, cores)


class ProgressLine:
    """A live ``done/total, failures, ETA`` line on stderr.

    On a tty the line redraws in place; otherwise (CI logs) a plain
    line is printed every ~10% so the sweep stays observable without
    flooding the log.  Progress goes to *stderr* only — stdout carries
    the sweep's aggregate output, which must stay byte-identical across
    job counts.
    """

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        stream=None,
        enabled: bool = True,
    ) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled and total > 0
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._every = max(1, total // 10)
        self._start = time.perf_counter()
        self._dirty = False

    def update(self, done: int, failures: int) -> None:
        if not self.enabled:
            return
        if not self._tty and done % self._every and done != self.total:
            return
        elapsed = time.perf_counter() - self._start
        if done and done < self.total:
            eta = elapsed * (self.total - done) / done
            eta_s = f", ETA {eta:.0f}s"
        else:
            eta_s = ""
        line = (
            f"[{self.label}] {done}/{self.total} done, "
            f"{failures} failed{eta_s}"
        )
        if self._tty:
            self.stream.write("\r\x1b[2K" + line)
            self._dirty = True
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def close(self) -> None:
        if self.enabled and self._tty and self._dirty:
            self.stream.write("\n")
            self.stream.flush()


def _worker_main(conn, inherited=()) -> None:
    """Worker loop: ``recv`` a task, ``execute`` it, ``send`` the result.

    The loop ends at EOF: the parent closed its end of the pipe, or
    died.  First the worker closes ``inherited``, the parent ends of
    every pool pipe it got through ``fork``, its own included: a copy
    held here would keep that pipe open after the parent died, and the
    worker at its other end would wait in ``recv`` forever.
    """
    for parent_end in inherited:
        parent_end.close()
    # Compile the simulator before taking a task.  The daemon and the
    # sweep commands fork workers from a process that never imported
    # it, so otherwise every worker, and every respawn, would compile
    # it inside its first task: for the daemon, inside a client's timed
    # request.  Under a parent that imported it, these are no-ops.
    import repro.machine  # noqa: F401
    import repro.runtime.collections  # noqa: F401

    try:
        while True:
            conn.send(execute(conn.recv()))
    except (EOFError, OSError):  # the parent closed its end, or died
        pass


def run_sweep(
    tasks: List[SweepTask],
    jobs: int = 1,
    on_result: Optional[Callable[[TaskResult], None]] = None,
    stop: Optional[Callable[[TaskResult], bool]] = None,
    failed: Optional[Callable[[TaskResult], bool]] = None,
    label: str = "sweep",
    show_progress: Optional[bool] = None,
) -> List[TaskResult]:
    """Run ``tasks`` across ``jobs`` processes; results in task order.

    ``on_result`` fires once per task, strictly in task order.  When
    ``stop`` returns True for an (in-order) result, the sweep aborts:
    later tasks are cancelled or discarded and the returned list ends
    with the stopping result — exactly what a serial loop that
    ``break``s produces.  ``failed`` only feeds the progress line's
    failure counter (default: ``not result.ok``).

    ``jobs == 1`` executes each task inline; ``jobs > 1`` submits every
    task to a private :class:`WorkerPool` and reads the futures in task
    order.  Either way one loop delivers the results, so the two paths
    cannot drift apart.
    """
    total = len(tasks)
    if failed is None:
        failed = lambda r: not r.ok  # noqa: E731
    if show_progress is None:
        show_progress = total > 1 and jobs > 1
    progress = ProgressLine(total, label=label, enabled=show_progress)
    if total == 0:
        return []
    jobs = max(1, min(jobs, total))
    pool = WorkerPool(jobs) if jobs > 1 else None
    results: List[TaskResult] = []
    failures = 0
    finished = False
    try:
        if pool is None:
            stream = (execute(task) for task in tasks)
        else:
            stream = (future.result() for future in pool.map(tasks))
        for result in stream:
            results.append(result)
            if failed(result):
                failures += 1
            if on_result is not None:
                on_result(result)
            progress.update(len(results), failures)
            if stop is not None and stop(result):
                break
        else:
            finished = True
    finally:
        try:
            progress.close()
        finally:
            if pool is not None:
                if finished:
                    pool.shutdown()
                else:  # stopped early or raised: cancel queued, kill in-flight
                    pool.shutdown(timeout=0, cancel_pending=True)
    return results


# ----------------------------------------------------------------------
# The worker fleet: one warm pool per sweep or daemon.
# ----------------------------------------------------------------------
class PoolFuture:
    """Outcome slot for one task submitted to a :class:`WorkerPool`."""

    __slots__ = ("_event", "_result")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Optional[TaskResult] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> TaskResult:
        """Block until the task completes; raises TimeoutError if it
        does not within ``timeout`` seconds (the task keeps running)."""
        if not self._event.wait(timeout):
            raise TimeoutError("task did not complete in time")
        return self._result

    def _resolve(self, result: TaskResult) -> None:
        self._result = result
        self._event.set()


class WorkerPool:
    """The one warm worker fleet: every sweep worker process lives here.

    :func:`run_sweep` builds a private pool per sweep; the ``repro
    serve`` daemon keeps one alive across requests.  Workers are created
    once and stay warm, and many submitter threads may share them.
    Contract:

    * :meth:`submit` is thread-safe and returns a :class:`PoolFuture`
      that resolves to the task's :class:`TaskResult`;
    * a worker that dies mid-task resolves that task's future with a
      ``crashed`` result and is replaced, so the fleet stays at
      strength — *re-dispatch policy belongs to the submitter* (the
      daemon retries once, then reports a structured error);
    * :meth:`shutdown` drains or cancels queued work, retires every
      worker (escalating terminate → kill), joins them, and resolves
      any leftover futures — idempotent and interrupt-safe, no orphan
      processes.
    """

    def __init__(
        self, jobs: int, log: Optional[Callable[[str], None]] = None
    ) -> None:
        self.jobs = max(1, jobs)
        #: Told one line per dead worker replaced (the daemon's log).
        self._log = log
        self._ctx = default_context()
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._futures: Dict[int, PoolFuture] = {}
        self._tasks: Dict[int, SweepTask] = {}
        self._tickets = count()
        self._pending: Deque[int] = deque()  # tickets not yet sent
        self._workers: List[Optional[object]] = [None] * self.jobs
        self._readers: Dict[object, int] = {}  # parent pipe end -> wid
        self._idle: List[object] = []  # parent ends of idle workers
        self._held: Dict[object, int] = {}  # parent end -> its ticket
        self._closing = False
        self._closed = False
        self.respawns = 0  #: dead workers replaced, idle or mid-task
        for wid in range(self.jobs):
            self._spawn(wid)
        self._collector = threading.Thread(
            target=self._collect, name="workerpool-collector", daemon=True
        )
        self._collector.start()

    # -- submission ----------------------------------------------------
    def submit(self, task: SweepTask) -> PoolFuture:
        """Send ``task`` to an idle worker, or queue it (thread-safe)."""
        future = PoolFuture()
        with self._lock:
            if self._closing:
                raise RuntimeError("worker pool is shut down")
            ticket = next(self._tickets)
            self._futures[ticket] = future
            self._tasks[ticket] = task
            self._pending.append(ticket)
            self._dispatch()
        return future

    def map(self, tasks: List[SweepTask]) -> List[PoolFuture]:
        """Submit ``tasks`` in order; futures in the same order."""
        return [self.submit(task) for task in tasks]

    @property
    def alive_workers(self) -> int:
        return sum(
            1 for p in self._workers if p is not None and p.is_alive()
        )

    # -- plumbing ------------------------------------------------------
    def _dispatch(self) -> None:
        """Send pending tickets to idle workers; the caller holds the lock.

        An idle worker waits in ``recv``, so a send never blocks.  A
        send that fails found a worker that died idle: its ticket goes
        back to the head of the line, and the collector reaps the
        worker at its EOF.
        """
        while self._pending and self._idle:
            conn = self._idle.pop()
            ticket = self._pending.popleft()
            try:
                conn.send(self._tasks[ticket])
            except OSError:
                self._pending.appendleft(ticket)
                continue
            self._held[conn] = ticket

    def _spawn(self, wid: int) -> None:
        conn, child_conn = self._ctx.Pipe()
        with self._lock:
            # A respawn racing shutdown: shutdown lists the workers to
            # retire after setting _closing, so start and register
            # under the lock, or not at all.
            started = not self._closing
            if started:
                # A forked child inherits every parent end, its own
                # included, and must close them (see _worker_main).
                inherited = (
                    [*self._readers, conn]
                    if self._ctx.get_start_method() == "fork"
                    else []
                )
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(child_conn, inherited),
                    daemon=True,
                )
                proc.start()
                self._workers[wid] = proc
                self._readers[conn] = wid
                self._idle.append(conn)
                self._dispatch()
        child_conn.close()  # the worker holds the only child end
        if not started:
            conn.close()

    def _resolve(self, ticket: int, result: TaskResult) -> None:
        with self._lock:
            future = self._futures.pop(ticket, None)
            self._tasks.pop(ticket, None)
        if future is not None and not future.done():
            future._resolve(result)

    def _collect(self) -> None:
        """Collector thread: route each result to its future, hand the
        worker its next ticket, reap the dead."""
        while True:
            with self._lock:
                conns = list(self._readers)
            if not conns:
                if self._closing:
                    return
                time.sleep(_POLL_S)
                continue
            ready = mp_connection.wait(conns, timeout=_POLL_S)
            for conn in ready:
                try:
                    result = conn.recv()
                except (EOFError, OSError):
                    self._reap(conn)
                    continue
                with self._lock:
                    ticket = self._held.pop(conn)
                    self._idle.append(conn)
                    self._dispatch()
                    self._drained.notify_all()
                self._resolve(ticket, result)

    def _reap(self, conn) -> None:
        """A worker's pipe hit EOF: retire it; crash-resolve a held
        task's future and keep the fleet at strength unless closing."""
        with self._lock:
            wid = self._readers.pop(conn, None)
            held = self._held.pop(conn, None)
            task = self._tasks.get(held)
            if conn in self._idle:
                self._idle.remove(conn)
            # Under the lock: shutdown hangs up on idle pipes under it.
            conn.close()
            self._drained.notify_all()
        if wid is None:  # pragma: no cover — shutdown's last resort took it
            return
        proc = self._workers[wid]
        self._workers[wid] = None
        proc.join()  # EOF means the worker is exiting: join is instant
        if task is not None:
            self._resolve(
                held,
                TaskResult(
                    index=task.index,
                    label=task.label,
                    crashed=True,
                    error=(
                        f"worker process died (exitcode "
                        f"{proc.exitcode}) while running "
                        f"{task.describe()}"
                    ),
                ),
            )
        if not self._closing:
            self.respawns += 1
            if self._log is not None:
                state = "idle" if task is None else "mid-task"
                self._log(
                    f"worker pid {proc.pid} died {state} "
                    f"(exitcode {proc.exitcode}); respawning"
                )
            self._spawn(wid)

    # -- teardown ------------------------------------------------------
    def shutdown(
        self, timeout: float = 10.0, cancel_pending: bool = False
    ) -> None:
        """Retire the fleet; reap every child.  Idempotent.

        ``cancel_pending=True`` resolves queued-but-unstarted tasks with
        a structured error instead of running them; in-flight tasks are
        given ``timeout`` seconds to finish before escalation, and
        ``timeout <= 0`` terminates them at once.

        Interrupt-safe: a ``KeyboardInterrupt`` (or any exception)
        landing mid-teardown restarts the pass in hard-abort mode
        instead of abandoning children, and is re-raised only once
        every child is reaped.
        """
        with self._lock:
            if self._closed:
                return
            self._closing = True
        interrupt: Optional[BaseException] = None
        abort = timeout <= 0
        for attempt in range(3):
            try:
                self._retire(timeout, cancel_pending, abort)
                break
            except BaseException as exc:  # noqa: BLE001 — reap first
                if attempt == 2:  # pragma: no cover — repeated interrupts
                    raise
                if interrupt is None:
                    interrupt = exc
                abort = cancel_pending = True  # retry in hard-abort mode
        if interrupt is not None:
            raise interrupt

    def _retire(
        self, timeout: float, cancel_pending: bool, abort: bool
    ) -> None:
        """One teardown pass; safe to repeat after an interrupt.

        Unless ``abort``, the pass first waits up to ``timeout`` seconds
        for the held (and, without ``cancel_pending``, the queued) tasks
        to finish.  Then it hangs up on every idle worker, which reads
        EOF and exits; ``abort`` also terminates every busy one.
        A worker still alive at the deadline is terminated, then killed.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            if cancel_pending:
                self._pending.clear()  # resolved as cancelled below
            if not abort:
                self._drained.wait_for(
                    lambda: not self._held,
                    timeout=max(0.0, deadline - time.monotonic()),
                )
            # Hang up on each idle worker: it reads EOF and exits, and
            # the collector reaps it.  A shutdown(2), because the
            # collector owns the fd, and a close would not reach the
            # worker while a collector poll on it is in progress.
            for conn in self._idle:
                with socket.fromfd(
                    conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM
                ) as sock:
                    sock.shutdown(socket.SHUT_RDWR)
            workers = [proc for proc in self._workers if proc is not None]
        for proc in workers:
            if abort and proc.is_alive():
                proc.terminate()
        for proc in workers:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover — last resort
                proc.kill()
                proc.join(timeout=5)
        # Every worker is gone, so every pipe left is at EOF: the
        # collector reaps them all and exits within a poll or two.
        self._collector.join(timeout=max(timeout, 2.0))
        with self._lock:
            for conn in list(self._readers):
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
            self._readers.clear()
            leftovers = list(self._futures.items())
            tasks = dict(self._tasks)
            self._futures.clear()
            self._tasks.clear()
            self._closed = True
        for ticket, future in leftovers:
            task = tasks.get(ticket)
            future._resolve(
                TaskResult(
                    index=task.index if task is not None else -1,
                    label=task.label if task is not None else "",
                    error="cancelled: worker pool shut down",
                )
            )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
