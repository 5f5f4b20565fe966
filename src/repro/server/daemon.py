"""The ``repro serve`` daemon: many clients, one warm worker fleet.

The PLUS machine is a *service* — many processors submitting memory
operations to a shared substrate — and this daemon gives the
reproduction the same shape: a long-running process that accepts
``simulate`` / ``check`` / ``sweep`` requests from many concurrent
clients over JSON lines (TCP or unix socket) and dispatches them onto one long-lived :class:`~repro.parallel.executor.WorkerPool`.

Request lifecycle (documented in DESIGN §11):

1. **Validate + canonicalize** — :func:`~repro.server.protocol.get_op`
   and :meth:`OpSpec.canonicalize`; malformed requests get a structured
   error envelope, never a dropped connection.
2. **Cache lookup** — the canonical key (sha256 of op + canonical
   params) is checked against the LRU :class:`ResultCache`; a hit
   answers immediately with zero worker dispatches.
3. **Coalesce** — concurrent misses on the *same* key join one
   in-flight "flight": the first requester (leader) dispatches, all
   followers wait and share the leader's answer (``coalesced: true``).
4. **Admit** — leaders pass a bounded admission gate (``max_pending``)
   and a per-client in-flight quota; over-limit requests are rejected
   with ``overloaded`` / ``quota_exceeded`` rather than queued without
   bound.
5. **Dispatch** — tasks go to the warm pool; batch ops (``sweep``)
   stream one ``progress`` event per completed grid point.  A worker
   that dies mid-task is re-dispatched once, then reported as a
   ``worker_crashed`` error.
6. **Respond** — one ``result`` envelope per request: the payload plus
   per-request timing and the daemon's cache counters.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel.executor import WorkerPool, effective_jobs
from repro.parallel.tasks import SweepTask, TaskResult
from repro.server.cache import ResultCache, canonical_key
from repro.server.protocol import ProtocolError, get_op
from repro.stats.service import RequestTimer, ServiceStats

#: Hard ceiling on one request line, so a confused client cannot make
#: the daemon buffer without bound.
MAX_LINE_BYTES = 1 << 20


class _Flight:
    """One in-flight computation of a cache key, shared by requests."""

    __slots__ = ("event", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Optional[Dict[str, Any]] = None  # result | error


class _Client:
    """Per-connection state: serialized writes and the quota counter."""

    __slots__ = ("sock", "wfile", "write_lock", "in_flight", "name")

    def __init__(self, sock: socket.socket, name: str) -> None:
        self.sock = sock
        self.wfile = sock.makefile("wb")
        self.write_lock = threading.Lock()
        self.in_flight = 0
        self.name = name


class ReproDaemon:
    """The serving loop.  One instance per process; thread-based."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
        jobs: int = 0,
        cache_size: int = 128,
        cache_file: Optional[str] = None,
        max_pending: int = 32,
        quota: int = 4,
        request_timeout: float = 600.0,
        log=None,
    ) -> None:
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.jobs = effective_jobs(jobs)
        self.cache = ResultCache(cache_size, persist_path=cache_file)
        self.stats = ServiceStats()
        self.max_pending = max(1, max_pending)
        self.quota = max(1, quota)
        self.request_timeout = request_timeout
        self._log_stream = log if log is not None else sys.stderr
        self._admission = threading.BoundedSemaphore(self.max_pending)
        self._flights: Dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._clients: set = set()
        self._clients_lock = threading.Lock()
        self._pool: Optional[WorkerPool] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._shutdown_lock = threading.RLock()
        self.dispatches = 0  #: total tasks handed to the pool (tests)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Bind, spin up the pool, and start accepting clients."""
        self._pool = WorkerPool(jobs=self.jobs)
        if self.socket_path:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        self._log(f"listening on {self.address_str()} (jobs={self.jobs})")

    def address_str(self) -> str:
        if self.socket_path:
            return f"unix:{self.socket_path}"
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`shutdown`."""
        self._stopped.wait()

    def shutdown(self) -> None:
        """Stop accepting, drop clients, retire the pool.  Idempotent,
        and a concurrent second caller blocks until teardown is done —
        so "shutdown returned" always means "no orphan processes"."""
        with self._shutdown_lock:
            self._shutdown()

    def _shutdown(self) -> None:
        if self._stopped.is_set():
            return
        self._stopped.set()
        if self._listener is not None:
            # shutdown() wakes a thread blocked in accept(); close()
            # alone leaves it blocked on the dead fd.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        with self._clients_lock:
            clients = list(self._clients)
        for client in clients:
            try:
                client.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                client.sock.close()
            except OSError:  # pragma: no cover
                pass
        if self._pool is not None:
            self._pool.shutdown(cancel_pending=True)
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:  # pragma: no cover
                pass
        self._log("shut down")

    def __enter__(self) -> "ReproDaemon":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _log(self, message: str) -> None:
        stamp = time.strftime("%H:%M:%S")
        try:
            self._log_stream.write(f"[repro-serve {stamp}] {message}\n")
            self._log_stream.flush()
        except (OSError, ValueError):  # pragma: no cover — closed log
            pass

    # -- connection handling -------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            if self._stopped.is_set():
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
                return
            name = f"{addr[0]}:{addr[1]}" if isinstance(addr, tuple) else (
                addr or "unix-peer"
            )
            client = _Client(sock, name)
            with self._clients_lock:
                self._clients.add(client)
            threading.Thread(
                target=self._serve_client,
                args=(client,),
                name=f"repro-serve-{name}",
                daemon=True,
            ).start()

    def _serve_client(self, client: _Client) -> None:
        self._log(f"client connected: {client.name}")
        rfile = client.sock.makefile("rb")
        try:
            while True:
                line = rfile.readline(MAX_LINE_BYTES + 1)
                if not line:
                    return
                if len(line) > MAX_LINE_BYTES:
                    self._send(
                        client,
                        self._error_envelope(
                            None, None, "bad_request", "request too large"
                        ),
                    )
                    return
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except (ValueError, RecursionError):
                    self._send(
                        client,
                        self._error_envelope(
                            None, None, "bad_request", "invalid JSON"
                        ),
                    )
                    continue
                if not isinstance(request, dict):
                    self._send(
                        client,
                        self._error_envelope(
                            None, None, "bad_request",
                            "request must be a JSON object",
                        ),
                    )
                    continue
                # Per-request thread so one connection can pipeline;
                # the quota below bounds how deep that pipeline goes.
                with client.write_lock:
                    client.in_flight += 1
                threading.Thread(
                    target=self._handle_request,
                    args=(client, request),
                    daemon=True,
                ).start()
        except OSError:
            return  # peer vanished mid-read
        finally:
            with self._clients_lock:
                self._clients.discard(client)
            try:
                rfile.close()
                client.sock.close()
            except OSError:
                pass
            self._log(f"client disconnected: {client.name}")

    def _send(self, client: _Client, payload: Dict[str, Any]) -> bool:
        data = (
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")
        with client.write_lock:
            try:
                client.wfile.write(data)
                client.wfile.flush()
                return True
            except (OSError, ValueError):
                return False  # peer gone; the computation still caches

    # -- envelopes -----------------------------------------------------
    def _envelope(
        self,
        request_id: Any,
        op: Optional[str],
        *,
        ok: bool,
        key: Optional[str] = None,
        cached: bool = False,
        coalesced: bool = False,
        result: Any = None,
        error: Optional[Dict[str, str]] = None,
        timer: Optional[RequestTimer] = None,
    ) -> Dict[str, Any]:
        self.stats.bump("ok" if ok else "errors")
        return {
            "id": request_id,
            "event": "result",
            "op": op,
            "ok": ok,
            "key": key,
            "cached": cached,
            "coalesced": coalesced,
            "result": result,
            "error": error,
            "timing": timer.envelope() if timer is not None else None,
            "cache": self.cache.snapshot(),
        }

    def _error_envelope(
        self,
        request_id: Any,
        op: Optional[str],
        code: str,
        message: str,
        timer: Optional[RequestTimer] = None,
    ) -> Dict[str, Any]:
        return self._envelope(
            request_id,
            op,
            ok=False,
            error={"code": code, "message": message},
            timer=timer,
        )

    # -- the request path ----------------------------------------------
    def _handle_request(self, client: _Client, request: Dict) -> None:
        timer = RequestTimer()
        self.stats.bump("requests")
        request_id = request.get("id")
        op_name = request.get("op")
        try:
            envelope = self._process(client, request_id, op_name, request, timer)
        except ProtocolError as exc:
            envelope = self._error_envelope(
                request_id, op_name if isinstance(op_name, str) else None,
                exc.code, exc.message, timer,
            )
        except Exception as exc:  # noqa: BLE001 — never drop a client
            self._log(f"internal error on {op_name!r}: {exc!r}")
            envelope = self._error_envelope(
                request_id, op_name if isinstance(op_name, str) else None,
                "internal", f"{type(exc).__name__}: {exc}", timer,
            )
        finally:
            with client.write_lock:
                client.in_flight -= 1
        self._send(client, envelope)

    def _process(
        self, client, request_id, op_name, request, timer
    ) -> Dict[str, Any]:
        if self._stopped.is_set():
            raise ProtocolError("shutting_down", "daemon is shutting down")
        if op_name == "status":
            # Introspection: served inline, never cached or dispatched.
            timer.running()
            return self._envelope(
                request_id,
                "status",
                ok=True,
                result={
                    "stats": self.stats.snapshot(),
                    "cache": self.cache.snapshot(),
                    "jobs": self.jobs,
                    "pool_alive": (
                        self._pool.alive_workers if self._pool else 0
                    ),
                },
                timer=timer,
            )
        spec = get_op(op_name)
        params = spec.canonicalize(request.get("params"))
        key = canonical_key(spec.name, params)

        if spec.cacheable:
            hit, value = self.cache.get(key)
            self.stats.bump("cache_hits" if hit else "cache_misses")
            if hit:
                timer.running()
                self._log(f"{spec.name} {key[:12]}: cache hit")
                return self._envelope(
                    request_id, spec.name,
                    ok=True, key=key, cached=True, result=value,
                    timer=timer,
                )

        # Coalesce concurrent misses on the same key into one flight.
        flight = None
        leader = True
        if spec.cacheable:
            with self._flights_lock:
                flight = self._flights.get(key)
                if flight is None:
                    flight = _Flight()
                    self._flights[key] = flight
                else:
                    leader = False
        if not leader:
            self.stats.bump("coalesced")
            if not flight.event.wait(timeout=self.request_timeout):
                raise ProtocolError(
                    "timeout", "coalesced request timed out"
                )
            timer.running()
            payload = flight.payload or {}
            if "error" in payload:
                return self._error_envelope(
                    request_id, spec.name,
                    payload["error"]["code"], payload["error"]["message"],
                    timer,
                )
            self._log(f"{spec.name} {key[:12]}: coalesced")
            return self._envelope(
                request_id, spec.name,
                ok=True, key=key, coalesced=True,
                result=payload["result"], timer=timer,
            )

        try:
            # Quota and admission gate the *leader* only: a follower
            # costs no worker, so it never counts against either.
            if client.in_flight > self.quota:
                self.stats.bump("rejected_quota")
                raise ProtocolError(
                    "quota_exceeded",
                    f"client has more than {self.quota} requests in "
                    f"flight",
                )
            if not self._admission.acquire(blocking=False):
                self.stats.bump("rejected_overload")
                raise ProtocolError(
                    "overloaded",
                    f"admission queue full ({self.max_pending} pending)",
                )
            try:
                result = self._dispatch(
                    client, request_id, spec, params, timer
                )
            finally:
                self._admission.release()
            if spec.cacheable:
                self.cache.put(key, result)
            if flight is not None:
                flight.payload = {"result": result}
            self._log(f"{spec.name} {key[:12]}: computed")
            return self._envelope(
                request_id, spec.name,
                ok=True, key=key, result=result, timer=timer,
            )
        except ProtocolError as exc:
            if flight is not None:
                flight.payload = {
                    "error": {"code": exc.code, "message": exc.message}
                }
            raise
        except Exception as exc:
            if flight is not None:
                flight.payload = {
                    "error": {
                        "code": "internal",
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                }
            raise
        finally:
            if flight is not None:
                with self._flights_lock:
                    self._flights.pop(key, None)
                flight.event.set()

    # -- dispatch ------------------------------------------------------
    def _submit(self, index: int, fn: str, kwargs: Dict):
        """One pool dispatch; every dispatch is counted (the e2e tests
        assert coalescing/caching by exact dispatch count)."""
        task = SweepTask.make(index, fn, kwargs)
        with self._flights_lock:
            self.dispatches += 1
        self.stats.bump("dispatches")
        return self._pool.submit(task), task

    def _await_resilient(
        self, future, index: int, fn: str, kwargs: Dict
    ) -> TaskResult:
        """Wait out one task; a crashed worker is re-dispatched once,
        then surfaces as a ``worker_crashed`` protocol error."""
        result = future.result(timeout=self.request_timeout)
        if result.crashed:
            self.stats.bump("crash_retries")
            self._log(
                f"worker crashed running task {index} ({fn}); "
                f"re-dispatching once"
            )
            retry, _task = self._submit(index, fn, kwargs)
            result = retry.result(timeout=self.request_timeout)
            if result.crashed:
                self.stats.bump("crash_failures")
                raise ProtocolError(
                    "worker_crashed",
                    f"worker crashed twice running this request: "
                    f"{result.error}",
                )
        return result

    def _dispatch(
        self, client, request_id, spec, params: Dict, timer: RequestTimer
    ) -> Any:
        timer.running()
        if spec.expand is not None:
            jobs_list: List[Tuple[str, Dict]] = spec.expand(params)
            total = len(jobs_list)
            # Fan the whole grid onto the pool, then flush strictly in
            # point order — same contract as ``run_sweep``.
            submitted = [
                self._submit(i, fn, kwargs)
                for i, (fn, kwargs) in enumerate(jobs_list)
            ]
            rows = []
            for done, ((future, _task), (fn, kwargs)) in enumerate(
                zip(submitted, jobs_list), start=1
            ):
                result = self._await_resilient(
                    future, done - 1, fn, kwargs
                )
                timer.add_run(result.wall_s)
                if not result.ok:
                    raise ProtocolError(
                        "task_failed", result.error or "task failed"
                    )
                rows.append({"params": kwargs, "value": result.value})
                self._send(
                    client,
                    {
                        "id": request_id,
                        "event": "progress",
                        "op": spec.name,
                        "done": done,
                        "total": total,
                    },
                )
            return {"points": rows, "total": total}
        future, _task = self._submit(0, spec.fn, params)
        result = self._await_resilient(future, 0, spec.fn, params)
        timer.add_run(result.wall_s)
        if not result.ok:
            raise ProtocolError("task_failed", result.error or "task failed")
        return result.value
