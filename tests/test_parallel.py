"""Tests for the multiprocess sweep executor (``repro.parallel``).

Everything observable about a sweep — result order, ``on_result``
order, early-stop truncation, failure lists, exit codes — must be
byte-identical for every ``--jobs`` count.  These tests pin that
contract at three levels: the task model, the executor (serial and
parallel paths, including crash isolation), and the CLI commands that
ride on it.
"""

import io
import os
import select
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.parallel import (
    ProgressLine,
    SweepTask,
    TaskResult,
    WorkerPool,
    effective_jobs,
    execute,
    expand_grid,
    parse_shard,
    run_sweep,
    shard_tasks,
)
from repro.parallel.executor import _worker_main

#: Import path prefix for this module's task targets (tests are a
#: package, so workers can re-import them by name).
_HERE = __name__

#: Seeds ``flaky`` fails on — fixed, so failure lists are deterministic.
_BROKEN = frozenset({3, 17, 29})


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"bad input {x}")


def die(x):
    os._exit(43)  # simulate a segfault/OOM kill: no exception, no cleanup


def pid_of(x):
    return os.getpid()


def flaky(seed):
    if seed in _BROKEN:
        raise ValueError(f"seed {seed} broke")
    return seed * 2


def slow(x):
    time.sleep(30)  # far longer than any test: must be terminated
    return x  # pragma: no cover — workers are killed first


def nap(x):
    time.sleep(0.05)
    return x


def late_square(x):
    """``square``, but task 0 finishes ~120 ms late: its worker
    completes last instead of first."""
    if x == 0:
        time.sleep(0.12)
    return x * x


def _tasks(fn, values, key="x"):
    return [
        SweepTask.make(i, f"{_HERE}:{fn}", {key: v}, label=f"{fn}({v})")
        for i, v in enumerate(values)
    ]


def _strip(results):
    """Results minus the one legitimately nondeterministic field."""
    import dataclasses

    return [dataclasses.replace(r, wall_s=0.0) for r in results]


class TestSweepTask:
    def test_make_canonicalizes_kwargs(self):
        a = SweepTask.make(0, "m:f", {"b": 2, "a": 1})
        b = SweepTask.make(0, "m:f", {"a": 1, "b": 2})
        assert a == b
        assert a.kwargs == (("a", 1), ("b", 2))

    def test_resolve_and_execute(self):
        task = _tasks("square", [7])[0]
        assert task.resolve() is square
        result = execute(task)
        assert result.ok
        assert result.value == 49
        assert result.wall_s >= 0
        assert result.describe() == "square(7): ok"

    def test_resolve_rejects_bad_paths(self):
        with pytest.raises(ValueError):
            SweepTask.make(0, "no_colon_here").resolve()
        with pytest.raises(TypeError):
            SweepTask.make(0, f"{_HERE}:_BROKEN").resolve()

    def test_execute_captures_errors(self):
        result = execute(_tasks("boom", [5])[0])
        assert not result.ok
        assert result.error == "ValueError: bad input 5"
        assert "ValueError" in result.error_tb
        assert "ERROR" in result.describe()

    def test_describe_falls_back_to_index(self):
        assert SweepTask.make(4, "m:f").describe() == "task 4"
        assert TaskResult(index=4).describe() == "task 4: ok"


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("2/3") == (2, 3)

    @pytest.mark.parametrize("bad", ["", "3", "0/2", "3/2", "a/b", "1/0"])
    def test_parse_shard_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_shard(bad)

    def test_shards_partition_the_sweep(self):
        tasks = _tasks("square", range(10))
        shards = [shard_tasks(tasks, f"{i}/3") for i in (1, 2, 3)]
        assert shards[0][0].index == 0 and shards[1][0].index == 1
        merged = sorted(
            (t for shard in shards for t in shard), key=lambda t: t.index
        )
        assert merged == tasks
        assert shard_tasks(tasks, None) == tasks


class TestExpandGrid:
    def test_order_is_last_axis_fastest(self):
        grid = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert grid == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]


class TestSerialSweep:
    def test_results_in_order(self):
        seen = []
        results = run_sweep(
            _tasks("square", [3, 1, 2]), jobs=1, on_result=seen.append
        )
        assert [r.value for r in results] == [9, 1, 4]
        assert seen == results

    def test_early_stop_truncates(self):
        results = run_sweep(
            _tasks("square", range(10)),
            jobs=1,
            stop=lambda r: r.index == 2,
        )
        assert [r.index for r in results] == [0, 1, 2]

    def test_empty_sweep(self):
        assert run_sweep([], jobs=4) == []


class TestProgressLine:
    def test_non_tty_prints_sparsely(self):
        stream = io.StringIO()
        line = ProgressLine(100, label="t", stream=stream)
        for done in range(1, 101):
            line.update(done, 0)
        line.close()
        lines = stream.getvalue().splitlines()
        assert 10 <= len(lines) <= 11
        assert lines[-1] == "[t] 100/100 done, 0 failed"
        assert "ETA" in lines[0]

    def test_tty_redraws_in_place(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        line = ProgressLine(3, label="t", stream=stream)
        line.update(1, 1)
        line.update(2, 1)
        line.close()
        text = stream.getvalue()
        assert text.count("\r\x1b[2K") == 2
        assert text.endswith("\n")

    def test_disabled_is_silent(self):
        stream = io.StringIO()
        line = ProgressLine(5, stream=stream, enabled=False)
        line.update(5, 0)
        line.close()
        assert stream.getvalue() == ""


class TestWorkerMain:
    """The worker loop, driven in-process with a fake pipe (coverage of
    the exact code subprocesses run)."""

    class FakeConn:
        def __init__(self, items=()):
            self.items = list(items)
            self.sent = []
            self.closed = False

        def recv(self):
            if not self.items:
                raise EOFError  # the parent closed its end
            return self.items.pop(0)

        def send(self, item):
            self.sent.append(item)

        def close(self):
            self.closed = True

    def test_runs_tasks_until_eof(self):
        conn = self.FakeConn(_tasks("square", [5, 6]))
        _worker_main(conn)
        assert [r.value for r in conn.sent] == [25, 36]

    def test_error_does_not_kill_worker(self):
        conn = self.FakeConn(_tasks("boom", [1]) + _tasks("square", [2]))
        _worker_main(conn)
        assert not conn.sent[0].ok
        assert conn.sent[1].value == 4

    def test_closes_inherited_parent_ends(self):
        inherited = [self.FakeConn(), self.FakeConn()]
        _worker_main(self.FakeConn(), inherited)
        assert all(c.closed for c in inherited)


class TestParallelSweep:
    def test_matches_serial(self):
        tasks = _tasks("square", range(12))
        serial = run_sweep(tasks, jobs=1)
        parallel = run_sweep(tasks, jobs=4, show_progress=False)
        assert _strip(parallel) == _strip(serial)

    def test_workers_are_warm(self):
        results = run_sweep(
            _tasks("pid_of", range(8)), jobs=2, show_progress=False
        )
        pids = {r.value for r in results}
        assert 1 <= len(pids) <= 2  # 8 tasks, at most 2 processes

    def test_errors_are_isolated_and_ordered(self):
        tasks = _tasks("flaky", range(32), key="seed")
        serial = run_sweep(tasks, jobs=1)
        parallel = run_sweep(tasks, jobs=4, show_progress=False)
        assert _strip(parallel) == _strip(serial)
        failed = [r.index for r in parallel if not r.ok]
        assert failed == sorted(_BROKEN)
        assert all(r.value == r.index * 2 for r in parallel if r.ok)

    def test_crash_is_isolated(self):
        tasks = _tasks("square", range(6))
        tasks[2] = SweepTask.make(
            2, f"{_HERE}:die", {"x": 2}, label="die(2)"
        )
        results = run_sweep(tasks, jobs=2, show_progress=False)
        assert [r.index for r in results] == list(range(6))
        crashed = results[2]
        assert crashed.crashed and not crashed.ok
        assert "worker process died" in crashed.error
        assert "exitcode 43" in crashed.error
        assert "die(2)" in crashed.error
        assert [r.value for r in results if r.ok] == [0, 1, 9, 16, 25]

    def test_early_stop_matches_serial(self):
        tasks = _tasks("square", range(10))
        serial = run_sweep(tasks, jobs=1, stop=lambda r: r.index == 2)
        parallel = run_sweep(
            tasks, jobs=3, stop=lambda r: r.index == 2, show_progress=False
        )
        assert _strip(parallel) == _strip(serial)
        assert [r.index for r in parallel] == [0, 1, 2]


def _surviving_children(before):
    """New live child processes of this process, after joining exited
    ones (``active_children`` reaps as a side effect)."""
    import multiprocessing

    return [
        p
        for p in multiprocessing.active_children()
        if p not in before and p.is_alive()
    ]


def _exited(pid):
    """True once ``pid`` has exited: gone, or a zombie (state ``Z``)
    that its new parent has not reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _wait_until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


_needs_proc = pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="reads /proc/<pid>/stat"
)

#: Holds a ``WorkerPool(2)``, kills one idle worker so that it is
#: respawned (the respawn inherits the other worker's parent pipe end
#: through ``fork``), prints the live worker pids, then waits to be
#: killed itself.
_POOL_HOLDER = textwrap.dedent(
    """
    import os, signal, time
    from repro.parallel import WorkerPool

    pool = WorkerPool(jobs=2)
    first = pool._workers[0].pid
    os.kill(first, signal.SIGKILL)

    def pids():
        return [p.pid for p in pool._workers if p is not None]

    while len(pids()) < 2 or first in pids():
        time.sleep(0.02)
    print(*pids(), flush=True)
    time.sleep(120)
    """
)


class TestInterruptSafety:
    """A sweep aborted mid-flight must reap every child it spawned: its
    private :class:`WorkerPool` is shut down on every exit path."""

    def test_keyboard_interrupt_reaps_all_children(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        tasks = _tasks("square", [7]) + _tasks("slow", range(1, 6))

        def boom_on_first(result):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                tasks,
                jobs=3,
                on_result=boom_on_first,
                show_progress=False,
            )
        assert _surviving_children(before) == []

    def test_on_result_exception_reaps_all_children(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        tasks = _tasks("square", [7]) + _tasks("slow", range(1, 6))

        def boom_on_first(result):
            raise RuntimeError("stop everything")

        with pytest.raises(RuntimeError, match="stop everything"):
            run_sweep(
                tasks,
                jobs=3,
                on_result=boom_on_first,
                show_progress=False,
            )
        assert _surviving_children(before) == []

    def test_clean_sweep_reaps_all_children(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        run_sweep(_tasks("square", range(6)), jobs=2, show_progress=False)
        assert _surviving_children(before) == []

    def test_early_stop_reaps_all_children(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        tasks = _tasks("square", [7]) + _tasks("slow", range(1, 6))
        results = run_sweep(
            tasks, jobs=3, stop=lambda r: r.index == 0, show_progress=False
        )
        assert [r.value for r in results] == [49]
        assert _surviving_children(before) == []


class TestEffectiveJobs:
    def test_zero_means_all_cores(self):
        assert effective_jobs(0, cpu_count=4) == 4
        assert effective_jobs(-1, cpu_count=2) == 2

    def test_clamps_to_visible_cpus(self):
        assert effective_jobs(8, cpu_count=1) == 1
        assert effective_jobs(8, cpu_count=4) == 4

    def test_within_budget_passes_through(self):
        assert effective_jobs(2, cpu_count=4) == 2
        assert effective_jobs(4, cpu_count=4) == 4

    def test_oversubscribe_escape_hatch(self):
        assert effective_jobs(8, cpu_count=1, oversubscribe=True) == 8

    def test_defaults_to_os_cpu_count(self):
        assert effective_jobs(0) == (os.cpu_count() or 1)


class TestWorkerPool:
    """The long-lived pool mode the daemon dispatches through."""

    def test_submit_and_result(self):
        with WorkerPool(jobs=2) as pool:
            futures = pool.map(_tasks("square", range(8)))
            values = [f.result(timeout=30).value for f in futures]
        assert values == [x * x for x in range(8)]

    def test_workers_stay_warm_across_submissions(self):
        with WorkerPool(jobs=1) as pool:
            first = pool.submit(_tasks("pid_of", [0])[0]).result(timeout=30)
            second = pool.submit(_tasks("pid_of", [1])[0]).result(timeout=30)
        assert first.value == second.value

    def test_task_error_resolves_future(self):
        with WorkerPool(jobs=1) as pool:
            result = pool.submit(_tasks("boom", [5])[0]).result(timeout=30)
        assert not result.ok and not result.crashed
        assert "bad input 5" in result.error

    def test_crash_resolves_future_and_respawns(self):
        with WorkerPool(jobs=1) as pool:
            crashed = pool.submit(_tasks("die", [0])[0]).result(timeout=30)
            assert crashed.crashed
            assert "worker process died" in crashed.error
            # The replacement worker keeps serving.
            healthy = pool.submit(_tasks("square", [6])[0]).result(
                timeout=30
            )
            assert healthy.value == 36
            assert pool.crashes == 1

    def test_shutdown_reaps_children(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        pool = WorkerPool(jobs=3)
        pool.map(_tasks("nap", range(6)))
        pool.shutdown()
        assert _surviving_children(before) == []
        pool.shutdown()  # idempotent

    def test_shutdown_cancels_pending(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        pool = WorkerPool(jobs=1)
        futures = pool.map(_tasks("slow", range(4)))
        pool.shutdown(timeout=2, cancel_pending=True)
        results = [f.result(timeout=10) for f in futures]
        assert all(not r.ok for r in results)
        assert any("cancelled" in (r.error or "") for r in results)
        assert _surviving_children(before) == []

    def test_interrupt_during_shutdown_reaps_then_propagates(self):
        import multiprocessing
        import threading

        before = set(multiprocessing.active_children())
        pool = WorkerPool(jobs=2)
        pool.map(_tasks("slow", range(2)))
        first = pool._workers[0]
        real_join = first.join

        def interrupted_join(timeout=None):
            # Only the shutdown caller is interrupted, and only once;
            # the collector thread may join the same process.
            if threading.current_thread() is threading.main_thread():
                first.join = real_join
                raise KeyboardInterrupt
            return real_join(timeout)

        first.join = interrupted_join
        with pytest.raises(KeyboardInterrupt):
            pool.shutdown(timeout=1)
        assert _surviving_children(before) == []
        pool.shutdown()  # idempotent after the interrupted teardown

    @_needs_proc
    def test_killed_idle_worker_does_not_wedge_the_pool(self):
        with WorkerPool(jobs=2) as pool:
            for trial in range(6):
                warm = pool.map(_tasks("square", range(4)))
                assert [f.result(timeout=30).value for f in warm] == [
                    0, 1, 4, 9
                ]
                # Both workers are now idle, waiting for a task.
                victim = pool._workers[trial % 2].pid
                os.kill(victim, signal.SIGKILL)
                assert _wait_until(lambda: _exited(victim), 5)
                fresh = pool.map(_tasks("square", [trial, trial + 1]))
                values = [f.result(timeout=10).value for f in fresh]
                assert values == [trial * trial, (trial + 1) ** 2]
                assert _wait_until(lambda: pool.alive_workers == 2, 10)

    @_needs_proc
    def test_killed_parent_leaves_no_workers(self):
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        holder = subprocess.Popen(
            [sys.executable, "-c", _POOL_HOLDER],
            stdout=subprocess.PIPE,
            env=env,
        )
        pids = []
        try:
            ready, _, _ = select.select([holder.stdout], [], [], 60)
            assert ready, "pool holder never reported its workers"
            pids = [int(pid) for pid in holder.stdout.readline().split()]
            assert len(pids) == 2
            holder.kill()
            holder.wait()
            assert _wait_until(lambda: all(map(_exited, pids)), 5), [
                pid for pid in pids if not _exited(pid)
            ]
        finally:
            holder.kill()
            holder.wait()
            holder.stdout.close()
            for pid in pids:  # leave nothing behind if the test failed
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_submit_after_shutdown_raises(self):
        pool = WorkerPool(jobs=1)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit(_tasks("square", [1])[0])


def _run_cli(argv):
    """Run the CLI capturing (exit_code, stdout); stderr discarded."""
    import contextlib

    from repro import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class TestCLIDeterminism:
    """Satellite 3: aggregate reports, failure lists, and exit codes are
    identical between ``--jobs 1`` and ``--jobs 4``."""

    def test_check_32_seeds(self):
        serial = _run_cli(["check", "--seeds", "32", "--jobs", "1"])
        parallel = _run_cli(["check", "--seeds", "32", "--jobs", "4"])
        assert serial == parallel
        assert serial[0] == 0

    def test_check_with_seeded_failures(self):
        # The skip-last-hop mutation makes every seed a seeded failure
        # that the checkers must catch; --verbose prints one report line
        # per seed, so ordering discipline is fully visible in stdout.
        argv = ["check", "--seeds", "32", "--inject-bug", "--verbose"]
        serial = _run_cli(argv + ["--jobs", "1"])
        parallel = _run_cli(argv + ["--jobs", "4"])
        assert serial == parallel
        assert serial[0] == 0
        assert serial[1].count("\n") >= 32

    def test_sweep_failure_lists(self):
        # "bogus" is an unknown beam sync mode: those grid points error,
        # the rest succeed — exit code and failure report must match.
        argv = [
            "sweep",
            "beam",
            "--nodes",
            "2",
            "--modes",
            "blocking,bogus",
            "--beam",
            "12",
        ]
        serial = _run_cli(argv + ["--jobs", "1"])
        parallel = _run_cli(argv + ["--jobs", "2"])
        assert serial == parallel
        assert serial[0] == 1
        assert "ValueError" in serial[1]


class TestCompletionOrderDeterminism:
    """Workers finishing in any order must not change any output.

    ``late_square`` makes task 0 finish last instead of first, a
    completion order the scheduler would rarely produce naturally; the
    ordered-flush aggregation must be insensitive to it.
    """

    def test_sweep_results_survive_reordered_completions(self):
        tasks = _tasks("late_square", range(10))
        baseline = _strip(run_sweep(tasks, jobs=1))
        delayed = _strip(run_sweep(tasks, jobs=3, show_progress=False))
        assert delayed == baseline
        assert [r.value for r in delayed] == [x * x for x in range(10)]
