"""End-to-end tests for the ``repro serve`` daemon.

Each test boots a real daemon (TCP on an OS-assigned port, real worker
processes) and speaks the JSON-lines protocol through
:class:`ReproClient` or a raw socket.  The headline contracts: N
concurrent clients submitting the same config cause exactly one worker
dispatch and receive byte-identical results; admission and quota bounds
reject rather than queue; a crashed worker is re-dispatched once,
transparently; shutdown leaves no orphan processes.
"""

import io
import json
import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.server import (
    OPS,
    OpSpec,
    Param,
    ReproClient,
    ReproDaemon,
    register_op,
)

_HERE = __name__


# ----------------------------------------------------------------------
# Worker-side targets for the test-only ops (picklable by import path).
# ----------------------------------------------------------------------
def sleep_op(seconds, tag):
    time.sleep(seconds)
    return {"tag": tag}


def crash_once(marker):
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashed")
        os._exit(9)
    return {"survived": True}


def crash_always():
    os._exit(9)


@pytest.fixture
def test_ops():
    """Register crash/sleep ops; restore the registry afterwards."""
    added = [
        OpSpec(
            name="sleep",
            fn=f"{_HERE}:sleep_op",
            params=(
                Param("seconds", float, 0.1),
                Param("tag", int, 0),
            ),
            cacheable=False,
        ),
        OpSpec(
            name="crash-once",
            fn=f"{_HERE}:crash_once",
            params=(Param("marker", str),),
            cacheable=False,
        ),
        OpSpec(
            name="crash-always",
            fn=f"{_HERE}:crash_always",
            params=(),
            cacheable=False,
        ),
    ]
    for spec in added:
        register_op(spec)
    yield
    for spec in added:
        OPS.pop(spec.name, None)


def make_daemon(**kw):
    kw.setdefault("jobs", 2)
    kw.setdefault("log", open(os.devnull, "w"))
    return ReproDaemon(**kw)


def canonical_result(envelope):
    return json.dumps(envelope["result"], sort_keys=True)


def _wait_until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class TestRequestLifecycle:
    def test_miss_then_hit_byte_identical_zero_dispatch(self):
        with make_daemon() as daemon:
            with ReproClient(port=daemon.port) as client:
                first = client.request("check", {"seed": 2})
                assert first["ok"] and not first["cached"]
                assert daemon.dispatches == 1
                second = client.request("check", {"seed": 2})
        assert second["ok"] and second["cached"]
        assert daemon.dispatches == 1  # the hit dispatched nothing
        assert canonical_result(first) == canonical_result(second)
        assert second["cache"]["hits"] == 1
        assert first["key"] == second["key"]

    def test_alias_and_defaults_hit_the_same_entry(self):
        with make_daemon() as daemon:
            with ReproClient(port=daemon.port) as client:
                miss = client.request("check", {"seed": 4})
                hit = client.request(
                    "check", {"rng_seed": 4, "faults": False}
                )
        assert not miss["cached"] and hit["cached"]
        assert daemon.dispatches == 1

    def test_concurrent_identical_requests_dispatch_once(self):
        n_clients = 6
        envelopes = [None] * n_clients
        with make_daemon(quota=n_clients + 1) as daemon:
            port = daemon.port

            def submit(i):
                with ReproClient(port=port) as client:
                    envelopes[i] = client.request(
                        "check", {"seed": 5, "faults": True}
                    )

            threads = [
                threading.Thread(target=submit, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert daemon.dispatches == 1
        assert all(e is not None and e["ok"] for e in envelopes)
        payloads = {canonical_result(e) for e in envelopes}
        assert len(payloads) == 1  # byte-identical responses
        fresh = [
            e for e in envelopes if not e["cached"] and not e["coalesced"]
        ]
        assert len(fresh) == 1  # one leader; everyone else shared it

    def test_sweep_streams_progress_and_orders_points(self):
        progress = []
        with make_daemon() as daemon:
            with ReproClient(port=daemon.port) as client:
                envelope = client.request(
                    "sweep",
                    {
                        "experiment": "sssp",
                        "nodes": "2",
                        "copies": "1,2",
                        "vertices": 60,
                    },
                    on_progress=lambda e: progress.append(
                        (e["done"], e["total"])
                    ),
                )
        assert envelope["ok"]
        assert progress == [(1, 2), (2, 2)]
        points = envelope["result"]["points"]
        assert [p["params"]["copies"] for p in points] == [1, 2]

    def test_sweep_serves_the_cli_placement_grid(self):
        from repro.parallel.grid import placement_point

        params = {
            "experiment": "placement",
            "policies": "static,migrate",
            "topologies": "mesh",
            "nodes": 2,
        }
        with make_daemon() as daemon:
            with ReproClient(port=daemon.port) as client:
                envelope = client.request("sweep", params)
        assert envelope["ok"], envelope["error"]
        points = envelope["result"]["points"]
        assert [p["params"]["policy"] for p in points] == [
            "static", "migrate"
        ]
        for point in points:
            assert point["value"] == placement_point(**point["params"])

    def test_status_op_reports_counters(self):
        with make_daemon() as daemon:
            with ReproClient(port=daemon.port) as client:
                client.request("check", {"seed": 1})
                client.request("check", {"seed": 1})
                status = client.request("status")
        stats = status["result"]["stats"]
        assert stats["requests"] == 3
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["dispatches"] == 1


class TestErrorHandling:
    def test_structured_errors_keep_the_connection(self):
        with make_daemon() as daemon:
            with ReproClient(port=daemon.port) as client:
                for op in ("frobnicate", "space"):
                    bad_op = client.request(op)
                    assert bad_op["error"]["code"] == "unknown_op", op
                bad_params = client.request("check", {"seed": "zero"})
                assert bad_params["error"]["code"] == "bad_params"
                # The connection is still serviceable afterwards.
                good = client.request("check", {"seed": 0})
                assert good["ok"]

    def test_invalid_json_line_gets_bad_request(self):
        with make_daemon() as daemon:
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=30
            ) as sock:
                sock.sendall(b"this is not json\n")
                line = sock.makefile("rb").readline()
        event = json.loads(line)
        assert not event["ok"]
        assert event["error"]["code"] == "bad_request"

    def test_too_deeply_nested_line_gets_bad_request(self):
        # Under MAX_LINE_BYTES, but json.loads raises RecursionError.
        with make_daemon() as daemon:
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=30
            ) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"[" * 100_000 + b"\n")
                event = json.loads(rfile.readline())
                sock.sendall(b'{"id": 1, "op": "status", "params": {}}\n')
                status = json.loads(rfile.readline())
        assert not event["ok"]
        assert event["error"]["code"] == "bad_request"
        assert event["error"]["message"] == "invalid JSON"
        assert status["ok"] and status["id"] == 1

    def test_task_exception_is_a_structured_error(self, test_ops):
        # modes "bogus" makes beam_point raise inside the worker.
        with make_daemon() as daemon:
            with ReproClient(port=daemon.port) as client:
                envelope = client.request(
                    "sweep",
                    {"experiment": "beam", "nodes": "2", "modes": "bogus"},
                )
        assert not envelope["ok"]
        assert envelope["error"]["code"] == "task_failed"
        assert "bogus" in envelope["error"]["message"]


class TestCrashRecovery:
    def test_crashed_worker_is_redispatched_once(self, test_ops, tmp_path):
        marker = str(tmp_path / "crashed-once")
        with make_daemon(jobs=1) as daemon:
            with ReproClient(port=daemon.port) as client:
                envelope = client.request("crash-once", {"marker": marker})
                assert envelope["ok"], envelope["error"]
                assert envelope["result"] == {"survived": True}
                status = client.request("status")
        assert status["result"]["stats"]["crash_retries"] == 1
        assert daemon.dispatches == 2  # original + one re-dispatch

    def test_idle_worker_death_is_counted(self):
        with make_daemon(jobs=1) as daemon:
            with ReproClient(port=daemon.port) as client:
                status = client.request("status")["result"]
                assert status["pool_respawns"] == 0
                os.kill(daemon._pool._workers[0].pid, signal.SIGKILL)

                def respawned():
                    status = client.request("status")["result"]
                    return (
                        status["pool_respawns"] == 1
                        and status["pool_alive"] == 1
                    )

                assert _wait_until(respawned, 10)
                assert client.request("check", {"seed": 0})["ok"]

    def test_double_crash_is_a_structured_error(self, test_ops):
        with make_daemon(jobs=1) as daemon:
            with ReproClient(port=daemon.port) as client:
                envelope = client.request("crash-always")
                assert not envelope["ok"]
                assert envelope["error"]["code"] == "worker_crashed"
                # The pool respawned: the daemon still serves.
                good = client.request("check", {"seed": 0})
                assert good["ok"]


class TestAdmissionAndQuota:
    def test_quota_rejects_deep_pipelines(self, test_ops):
        with make_daemon(jobs=1, quota=1) as daemon:
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=60
            ) as sock:
                rfile = sock.makefile("rb")
                for i in range(4):
                    req = {
                        "id": i,
                        "op": "sleep",
                        "params": {"seconds": 0.4, "tag": i},
                    }
                    sock.sendall(json.dumps(req).encode() + b"\n")
                events = [json.loads(rfile.readline()) for _ in range(4)]
        codes = [
            (e.get("error") or {}).get("code")
            for e in events
            if not e["ok"]
        ]
        assert "quota_exceeded" in codes
        assert any(e["ok"] for e in events)

    def test_admission_bound_rejects_overload(self, test_ops):
        with make_daemon(jobs=1, max_pending=1, quota=8) as daemon:
            port = daemon.port
            with ReproClient(port=port) as slow_client:
                blocker = threading.Thread(
                    target=lambda: slow_client.request(
                        "sleep", {"seconds": 1.0, "tag": 99}
                    )
                )
                blocker.start()
                time.sleep(0.3)  # let the blocker occupy the only slot
                with ReproClient(port=port) as client:
                    rejected = client.request(
                        "sleep", {"seconds": 0.1, "tag": 1}
                    )
                blocker.join(timeout=30)
        assert not rejected["ok"]
        assert rejected["error"]["code"] == "overloaded"


class TestShutdown:
    def test_shutdown_leaves_no_orphans(self):
        before = set(multiprocessing.active_children())
        daemon = make_daemon(jobs=2)
        daemon.start()
        with ReproClient(port=daemon.port) as client:
            assert client.request("check", {"seed": 0})["ok"]
        daemon.shutdown()
        daemon.shutdown()  # idempotent
        leftover = [
            p
            for p in multiprocessing.active_children()
            if p not in before and p.is_alive()
        ]
        assert leftover == []
        with pytest.raises(OSError):
            socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=1
            ).close()

    def test_unix_socket_serving(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        with make_daemon(socket_path=path) as daemon:
            assert daemon.address_str() == f"unix:{path}"
            with ReproClient(socket_path=path) as client:
                assert client.request("status")["ok"]
        assert not os.path.exists(path)  # unlinked on shutdown


def _run_cli(argv, out=None):
    """Run the CLI with stdout captured (into ``out`` when given)."""
    import contextlib
    import io

    from repro import cli

    out = io.StringIO() if out is None else out
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class TestCLI:
    def test_serve_and_submit_round_trip(self, tmp_path, monkeypatch):
        """The full CLI path: ``repro serve`` (driven in a thread, with
        the signal handlers captured instead of installed) answering a
        real ``repro submit``."""
        import signal as signal_mod

        handlers = []
        monkeypatch.setattr(
            signal_mod, "signal", lambda sig, fn: handlers.append(fn)
        )
        sock_path = str(tmp_path / "cli.sock")
        log_path = str(tmp_path / "serve.log")
        serve_out = io.StringIO()
        serve = threading.Thread(
            target=_run_cli,
            args=(
                [
                    "serve",
                    "--socket",
                    sock_path,
                    "--jobs",
                    "1",
                    "--log",
                    log_path,
                ],
                serve_out,
            ),
            daemon=True,
        )
        serve.start()
        # Wait for serve's banner, not its socket: the banner is printed
        # after the socket exists, and ``redirect_stdout`` swaps the
        # process-global ``sys.stdout``, so a submit started in between
        # would capture the banner instead of its envelope.
        banner = f"repro serve: listening on unix:{sock_path}\n"
        deadline = time.monotonic() + 30
        while banner not in serve_out.getvalue():
            assert time.monotonic() < deadline, serve_out.getvalue()
            time.sleep(0.05)
        try:
            code, out = _run_cli(
                [
                    "submit",
                    "--socket",
                    sock_path,
                    "--op",
                    "check",
                    "--param",
                    "seed=1",
                ]
            )
            assert code == 0
            envelope = json.loads(out)
            assert envelope["ok"] and envelope["op"] == "check"
            code, out = _run_cli(
                [
                    "submit",
                    "--socket",
                    sock_path,
                    "--op",
                    "check",
                    "--param",
                    "seed=1",
                    "--result-only",
                ]
            )
            assert code == 0
            assert json.loads(out) == envelope["result"]
        finally:
            assert handlers  # SIGINT/SIGTERM handlers were registered
            handlers[0](None, None)  # what SIGTERM would do
            serve.join(timeout=30)
        assert not serve.is_alive()
        assert "shut down" in open(log_path).read()

    def test_submit_bad_request_exits_nonzero(self, tmp_path):
        with make_daemon() as daemon:
            code, out = _run_cli(
                ["submit", "--port", str(daemon.port), "--op", "frobnicate"]
            )
        assert code == 1
        assert json.loads(out)["error"]["code"] == "unknown_op"

    def test_submit_unreachable_daemon_exits_2(self, tmp_path):
        # An unbound port: connection refused, reported cleanly.
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        free_port = sock.getsockname()[1]
        sock.close()
        code, _out = _run_cli(
            ["submit", "--port", str(free_port), "--op", "status"]
        )
        assert code == 2

    def test_param_parsing(self):
        from repro.cli import _parse_param

        assert _parse_param("seed=3") == ("seed", 3)
        assert _parse_param("faults=true") == ("faults", True)
        assert _parse_param("nodes=2,4") == ("nodes", "2,4")
        assert _parse_param("workload=sssp") == ("workload", "sssp")
        with pytest.raises(SystemExit):
            _parse_param("no-equals-sign")


class TestPersistentCache:
    def test_restart_starts_warm_from_cache_file(self, tmp_path):
        cache_file = str(tmp_path / "results.json")
        with make_daemon(cache_file=cache_file) as daemon:
            with ReproClient(port=daemon.port) as client:
                first = client.request("check", {"seed": 2})
            assert first["ok"] and not first["cached"]
            assert daemon.dispatches == 1
        # A brand-new daemon over the same file serves the hit without
        # dispatching any worker at all.
        with make_daemon(cache_file=cache_file) as daemon:
            with ReproClient(port=daemon.port) as client:
                second = client.request("check", {"seed": 2})
            assert daemon.dispatches == 0
        assert second["ok"] and second["cached"]
        assert second["cache"]["loaded"] >= 1
        assert canonical_result(first) == canonical_result(second)
