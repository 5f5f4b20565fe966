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
   the ``repro serve`` daemon and the space-parallel
   :class:`~repro.parallel.spacetime.SpaceFleet` keep one warm across
   requests.  Each worker is created once and runs many tasks, so
   import/build cost is paid per worker, not per task.  On platforms
   with ``fork`` the import cost is inherited outright.
3. **Crash isolation** — a worker that dies mid-task (segfault, OOM
   kill) is detected by the pool, the task it held is reported as a
   crashed :class:`TaskResult` naming the task, and a replacement
   worker keeps the fleet at strength.  A task that merely *raises*
   never kills its worker at all (see
   :func:`~repro.parallel.tasks.execute`).
4. **No orphans** — :meth:`WorkerPool.shutdown` reaps every child on
   every exit path, including an interrupt that lands mid-teardown.
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
import queue as queue_mod
import sys
import threading
import time
from itertools import count
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional

from repro.parallel.tasks import SweepTask, TaskResult, execute

#: ``current[wid]`` marker values (a task position >= 0 means "running").
_IDLE = -1
_DONE = -2

#: Seconds the parent waits on the result queue before polling worker
#: liveness.  Small enough to spot a crash quickly, large enough not to
#: spin.
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


def _worker_main(wid, task_q, conn, current) -> None:
    """Worker loop: pull ``(pos, task)`` until the None sentinel.

    Results go back over the worker's *own* pipe — a shared result
    queue's feeder lock can be orphaned by a worker that dies mid-task,
    wedging every other worker; a private pipe can't hurt anyone else,
    and its EOF doubles as the parent's instant death notification.

    ``current[wid]`` always names the task position being executed
    (or _IDLE/_DONE), so the parent can attribute a crash to the task
    the worker was holding when it died.

    Determinism test hook: ``REPRO_TEST_WORKER_DELAY_MS`` (e.g.
    ``"0:150,2:40"``) makes worker ``wid`` sleep that many milliseconds
    before sending each result.  It exists so tests can force arbitrary
    completion orders and assert the ordered-flush aggregation (and the
    space-parallel barrier driver) stay byte-identical; it delays
    results, never reorders or alters them.
    """
    delay_s = 0.0
    spec = os.environ.get("REPRO_TEST_WORKER_DELAY_MS")
    if spec:
        for part in spec.split(","):
            w, _, ms = part.partition(":")
            if w.strip() == str(wid):
                delay_s = float(ms) / 1000.0
    try:
        while True:
            item = task_q.get()
            if item is None:
                break
            pos, task = item
            current[wid] = pos
            result = execute(task)
            if delay_s:
                time.sleep(delay_s)
            conn.send((pos, result))
            current[wid] = _IDLE
        current[wid] = _DONE
    finally:
        conn.close()


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
# The worker fleet: one warm pool per sweep, daemon or space fleet.
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
    serve`` daemon and :class:`~repro.parallel.spacetime.SpaceFleet`
    keep one alive across requests and runs.  Workers are created once
    and stay warm, and many submitter threads may share them.  Contract:

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

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, jobs)
        self._ctx = default_context()
        self._task_q = self._ctx.Queue()
        self._current = self._ctx.Array("i", [_IDLE] * self.jobs, lock=False)
        self._lock = threading.Lock()
        self._futures: Dict[int, PoolFuture] = {}
        self._tasks: Dict[int, SweepTask] = {}
        self._tickets = count()
        self._workers: List[Optional[object]] = [None] * self.jobs
        self._readers: Dict[object, int] = {}
        self._closing = False
        self._closed = False
        self.crashes = 0  #: workers lost mid-task over the pool's life
        for wid in range(self.jobs):
            self._spawn(wid)
        self._collector = threading.Thread(
            target=self._collect, name="workerpool-collector", daemon=True
        )
        self._collector.start()

    # -- submission ----------------------------------------------------
    def submit(self, task: SweepTask) -> PoolFuture:
        """Queue ``task`` for the next free worker (thread-safe)."""
        future = PoolFuture()
        with self._lock:
            if self._closing:
                raise RuntimeError("worker pool is shut down")
            ticket = next(self._tickets)
            self._futures[ticket] = future
            self._tasks[ticket] = task
        self._task_q.put((ticket, task))
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
    def _spawn(self, wid: int) -> None:
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, self._task_q, send_conn, self._current),
            daemon=True,
        )
        with self._lock:
            # A respawn racing shutdown: shutdown lists the workers to
            # retire after setting _closing, so start and register
            # under the lock, or not at all.
            started = not self._closing
            if started:
                proc.start()
                self._workers[wid] = proc
                self._readers[recv_conn] = wid
        send_conn.close()  # worker holds the only send end (EOF = death)
        if not started:
            recv_conn.close()

    def _resolve(self, ticket: int, result: TaskResult) -> None:
        with self._lock:
            future = self._futures.pop(ticket, None)
            self._tasks.pop(ticket, None)
        if future is not None and not future.done():
            future._resolve(result)

    def _collect(self) -> None:
        """Collector thread: route results to futures, reap the dead."""
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
                    ticket, result = conn.recv()
                except (EOFError, OSError):
                    self._reap(conn)
                    continue
                self._resolve(ticket, result)

    def _reap(self, conn) -> None:
        """A worker's pipe hit EOF: retire it; crash-resolve a held
        task's future and keep the fleet at strength unless closing."""
        with self._lock:
            wid = self._readers.pop(conn, None)
        conn.close()
        if wid is None:
            return
        proc = self._workers[wid]
        self._workers[wid] = None
        if proc is None:  # pragma: no cover — already retired
            return
        proc.join()  # EOF means the worker is exiting: join is instant
        held = self._current[wid]
        clean = proc.exitcode == 0 and held == _DONE
        if not clean and held >= 0:
            with self._lock:
                task = self._tasks.get(held)
            if task is not None:
                self.crashes += 1
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
        if not clean and not self._closing:
            # The dead worker never consumed an exit sentinel, so the
            # replacement inherits its slot.
            self._current[wid] = _IDLE
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

        ``abort`` drops the polite exit sentinels and terminates every
        live worker up front; otherwise each worker gets ``timeout``
        seconds to finish and exit, then terminate, then kill.
        """
        if cancel_pending:
            # Discard unclaimed work so no worker starts it; its futures
            # resolve as cancelled with the other leftovers below.
            try:
                while True:
                    self._task_q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                pass
        workers = [proc for proc in self._workers if proc is not None]
        for proc in workers:
            if abort:
                if proc.is_alive():
                    proc.terminate()
            else:
                self._task_q.put(None)  # one exit sentinel per worker
        deadline = time.monotonic() + timeout
        for proc in workers:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover — last resort
                proc.kill()
                proc.join(timeout=5)
        # Every worker is gone, so every pipe is at EOF: the collector
        # reaps them all and exits within a poll or two.
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
        try:
            self._task_q.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
