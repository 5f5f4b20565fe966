"""The five workloads of the end-to-end benchmark.

Every input is derived from the workload seed and sizes are fixed here,
not on the command line.  In-process workloads (``sssp``, ``beam``,
``scale``, ``check``) expose ``prepare(i, spans)`` (untimed per-op set-up)
and ``run_op(i, spans) -> Outcome`` (one timed, verified op); ``serve``
drives a daemon from client threads and has its own lifecycle.

Ops never raise on a wrong answer: they return ``Outcome(ok=False)`` and
the benchmark counts the failure.  Only public ``repro`` APIs are used.
"""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.apps.beam import BeamConfig, BeamSearchApp, params_for
from repro.apps.graphs import (
    beam_search_reference,
    dijkstra,
    geometric_graph,
    initial_costs,
    layered_lattice,
)
from repro.apps.placement import PlacementApp, PlacementConfig
from repro.apps.sssp import SSSPApp, SSSPConfig
from repro.check.stress import run_stress
from repro.core.params import PAPER_PARAMS
from repro.machine import PlusMachine
from repro.server import ReproClient
from repro.server.ops import check_point

from layers import Spans

#: Distinct inputs generated at set-up for sssp and beam; ops cycle
#: through them (a 15 s run does 13 to 19 ops on a 2-core x86 host).
INPUT_POOL = 16

#: Checksums of the default seed (0) over each workload's fixed ops:
#: simulated cycles and messages summed over the first ``fixed_ops`` ops
#: (serve: over the verified payloads).  A mismatch means a change
#: altered simulated behaviour, not just speed.
REFERENCE: Dict[str, Dict[str, int]] = {
    "sssp": {"cycles": 555192, "messages": 154985},
    "beam": {"cycles": 492208, "messages": 52819},
    "scale": {"cycles": 65279, "messages": 409582, "checksum": 3086569747},
    "check": {"cycles": 545844, "messages": 129343},
    "serve": {"cycles": 91394, "messages": 20284},
}


@dataclass
class Outcome:
    """One op's verdict plus what the traced run reads from it."""

    ok: bool
    cycles: int = 0
    messages: int = 0
    #: Per-layer counts, read after the op's timing ends and only by
    #: the traced run (summed over the fixed ops there).
    counts: Callable[[], Dict[str, float]] = dict
    #: Extra checksum fields compared against ``REFERENCE`` on seed 0.
    checksum: Dict[str, int] = field(default_factory=dict)
    detail: str = ""


def machine_counts(machine: PlusMachine, report) -> Dict[str, float]:
    """Deterministic per-layer counts of one finished machine."""
    nodes = report.counters.nodes
    fabric = report.fabric

    def total(attr: str) -> int:
        return sum(getattr(n, attr) for n in nodes)

    return {
        "sim.events": machine.engine.events_fired,
        "network.messages": fabric.total_messages,
        "network.update_msgs": report.update_messages(),
        "network.bytes": fabric.total_bytes,
        "network.hops": fabric.total_hops,
        "network.drops": fabric.drops,
        "network.dups": fabric.dups,
        "network.retransmits": fabric.retransmits,
        "network.recovered": fabric.recovered,
        "core.updates_applied": total("updates_applied"),
        "core.masters_written": total("masters_written"),
        "core.writes_forwarded": total("writes_forwarded"),
        "core.rmw_remote": total("rmw_remote"),
        "node.cache_hits": total("cache_hits"),
        "node.cache_misses": total("cache_misses"),
        "node.useful_cycles": report.counters.useful_cycles,
        "node.capacity_cycles": report.cycles * report.n_nodes,
        "node.read_stall_cycles": total("read_stall_cycles"),
        "node.sync_stall_cycles": total("sync_stall_cycles"),
        "node.spin_cycles": total("spin_cycles"),
        "memory.mapped_pages": sum(n.memory.allocated_frames for n in machine.nodes),
        "memory.materialized_frames": sum(
            n.memory.materialized_frames for n in machine.nodes
        ),
    }


def stress_counts(payload: Dict[str, Any], violations: int) -> Dict[str, float]:
    """The per-layer counts a stress run's result exposes."""
    return {
        "network.messages": payload["messages"],
        "network.drops": payload["drops"],
        "network.dups": payload["dups"],
        "network.retransmits": payload["retransmits"],
        "network.recovered": payload.get("recovered", 0),
        "check.violations": violations,
    }


# ----------------------------------------------------------------------
# In-process workloads.  Sizes are class attributes so the tests can
# shrink them; the command line cannot.
# ----------------------------------------------------------------------
def machine_op(i: int, spans: Spans, build, verify, failure: str) -> Outcome:
    """Build a machine and app, run it, verify the app's output."""
    with spans.span("op", i) as op:
        with spans.span("build", i, op):
            machine, app = build()
            app.spawn_workers()
        with spans.span("run", i, op):
            report = machine.run()
        with spans.span("verify", i, op):
            ok = verify(app)
    return Outcome(
        ok, report.cycles, report.fabric.total_messages,
        lambda: machine_counts(machine, report),
        detail="" if ok else failure,
    )


class SSSP:
    """Table 2-1's program: 16-node mesh, 3-copy replicated queues."""

    name = "sssp"
    fixed_ops = 4
    nodes = 16
    vertices = 800

    def __init__(self, seed: int, spans: Spans) -> None:
        self.inputs = []
        for i in range(INPUT_POOL):
            graph = geometric_graph(
                self.vertices, degree=5, long_edge_fraction=0.08,
                max_weight=20, seed=seed * 1000 + i,
            )
            self.inputs.append((graph, dijkstra(graph, 0)))

    def prepare(self, i: int, spans: Spans) -> None:
        pass

    def reference(self, i: int) -> List[int]:
        return self.inputs[i % INPUT_POOL][1]

    def run_op(self, i: int, spans: Spans) -> Outcome:
        graph = self.inputs[i % INPUT_POOL][0]

        def build():
            machine = PlusMachine(n_nodes=self.nodes)
            config = SSSPConfig(copies=3, replicate_queues=True)
            return machine, SSSPApp(machine, graph, config)

        return machine_op(
            i, spans, build, lambda app: app.distances() == self.reference(i),
            "distances differ from Dijkstra",
        )


class Beam:
    """Figure 3-1's program: 16 nodes, delayed RMWs at the master."""

    name = "beam"
    fixed_ops = 4
    nodes = 16
    layers = 12
    width = 128

    def __init__(self, seed: int, spans: Spans) -> None:
        self.inputs = []
        for i in range(INPUT_POOL):
            s = seed * 1000 + i
            lattice = layered_lattice(
                n_layers=self.layers, width=self.width, branching=3, seed=s,
                hot_fraction=0.6,
            )
            config = BeamConfig(beam=60, sync_mode="delayed", initial_seed=s)
            reference = beam_search_reference(
                lattice, beam=60, initial=initial_costs(lattice, seed=s)
            )
            self.inputs.append((lattice, config, reference))

    def prepare(self, i: int, spans: Spans) -> None:
        pass

    def reference(self, i: int) -> Dict[int, int]:
        return self.inputs[i % INPUT_POOL][2]

    def run_op(self, i: int, spans: Spans) -> Outcome:
        lattice, config, _ = self.inputs[i % INPUT_POOL]

        def build():
            machine = PlusMachine(n_nodes=self.nodes, params=params_for(config))
            return machine, BeamSearchApp(machine, lattice, config)

        def verify(app) -> bool:
            # The check parallel/grid.py:beam_point makes: every state the
            # sequential reference keeps has the reference score.
            scores = app.scores()
            return all(scores.get(s) == c for s, c in self.reference(i).items())

        return machine_op(i, spans, build, verify,
                          "scores differ from the beam reference")


class Scale:
    """1,024-node torus, 1M cold pages; construction is untimed set-up."""

    name = "scale"
    fixed_ops = 1
    nodes = 1024
    requests = 200
    backing_pages = 1_048_576

    def __init__(self, seed: int, spans: Spans) -> None:
        self.seed = seed
        self._built: Optional[Tuple[PlusMachine, PlacementApp]] = None
        self.prepare(0, spans)

    def prepare(self, i: int, spans: Spans) -> None:
        if self._built is not None:
            return  # set-up already built op 0's machine
        with spans.span("build", i):
            config = PlacementConfig(
                policy="static",
                pages=min(256, 4 * self.nodes),
                requests=self.requests,
                affine_offset=1,
                affine_fraction=0.95,
                backing_pages=self.backing_pages,
                seed=self.seed * 1000 + i,
            )
            machine = PlusMachine(
                n_nodes=self.nodes, params=PAPER_PARAMS.evolved(topology="torus")
            )
            app = PlacementApp(machine, config)
            app.spawn_workers()
        self._built = (machine, app)

    def run_op(self, i: int, spans: Spans) -> Outcome:
        machine, app = self._built
        self._built = None
        with spans.span("op", i) as op:
            with spans.span("run", i, op):
                report = machine.run()
            with spans.span("verify", i, op):
                finished = sum(n.threads_finished for n in report.counters.nodes)
                ok = finished == machine.n_nodes
        return Outcome(
            ok, report.cycles, report.fabric.total_messages,
            lambda: machine_counts(machine, report),
            checksum={"checksum": app.checksum()},
            detail="" if ok else f"{finished}/{machine.n_nodes} threads finished",
        )


#: The faulty stress seeds that ``check`` and ``serve`` draw from: the
#: first 10,000, less the three that fail ``repro check --faults`` today.
#: All three are 3x3 update-protocol meshes that end in NodeUnreachable
#: (an update unacknowledged after 8 retransmissions at drop rates of at
#: most 1%): an open simulator finding, kept out so that no benchmark op
#: fails on a sound tree.
FAILING_STRESS_SEEDS = frozenset({485, 2363, 9779})
STRESS_POOL = [s for s in range(10_000) if s not in FAILING_STRESS_SEEDS]


def stress_seed(seed: int, index: int) -> int:
    """The ``index``-th stress seed of workload ``seed``: consecutive pool
    entries from a start the seed picks (seed 0 starts at stress seed 0)."""
    return STRESS_POOL[(seed * 7919 + index) % len(STRESS_POOL)]


class Check:
    """The CI sweep unit: faulty stress seeds judged by the oracle."""

    name = "check"
    fixed_ops = 100

    def __init__(self, seed: int, spans: Spans) -> None:
        self.seed = seed

    def prepare(self, i: int, spans: Spans) -> None:
        pass

    def run_op(self, i: int, spans: Spans) -> Outcome:
        with spans.span("op", i) as op:
            # run_stress builds, runs and checks in one call, so the op
            # has no separate build span.
            with spans.span("run", i, op):
                result = run_stress(stress_seed(self.seed, i), faults=True)
            with spans.span("verify", i, op):
                ok = result.ok
        violations = len(result.report.violations) if result.report else 0
        payload = {
            "messages": result.messages, "drops": result.drops,
            "dups": result.dups, "retransmits": result.retransmits,
            "recovered": result.recovered,
        }
        return Outcome(
            ok, result.cycles, result.messages,
            lambda: stress_counts(payload, violations),
            detail="" if ok else result.describe(),
        )


IN_PROCESS = {w.name: w for w in (SSSP, Beam, Scale, Check)}


# ----------------------------------------------------------------------
# serve: a daemon child process, two closed-loop client threads.
# ----------------------------------------------------------------------
#: Served payloads recomputed in-process with ``check_point`` after the
#: timed phase (they must be byte-equal); also the serve ``fixed_ops``.
SERVE_VERIFY = 20
SERVE_CLIENTS = 2
#: The set-up request that warms the pool worker: a cheap stress seed
#: outside the pool, the same for every workload seed so set-up time does
#: not depend on it.
WARMUP_KEY = 999_998


def serve_key(seed: int, client: int, index: int) -> int:
    """The stress seed of ``client``'s ``index``-th fresh key."""
    return stress_seed(seed, SERVE_CLIENTS * index + client)


#: One block of a client's schedule: 3 fresh keys of its own, 6 repeats
#: of its earlier keys, 1 key of the other client.  The seed shuffles
#: each block, so the mix is exact over every 10 requests and a run's
#: hit-to-miss ratio does not depend on the draw.
SCHEDULE_BLOCK = ("fresh",) * 3 + ("repeat",) * 6 + ("other",)


def client_schedule(seed: int, client: int) -> Iterator[int]:
    """One client's endless request stream, block after block of
    ``SCHEDULE_BLOCK`` in a seeded order.  The other client's key is the
    one at this client's fresh index, which that client requests at about
    the same time, so these coalesce or hit."""
    rng = random.Random(f"{seed}:serve:{client}")
    fresh = 0
    seen: List[int] = []
    known = set()
    while True:
        block = list(SCHEDULE_BLOCK)
        rng.shuffle(block)
        if not seen:  # there is nothing to repeat before the first key
            block.remove("fresh")
            block.insert(0, "fresh")
        for kind in block:
            if kind == "fresh":
                key = serve_key(seed, client, fresh)
                fresh += 1
            elif kind == "repeat":
                key = rng.choice(seen)
            else:
                key = serve_key(seed, 1 - client, fresh)
            if key not in known:
                known.add(key)
                seen.append(key)
            yield key


def _proc_tree(pid: int) -> List[int]:
    """``pid`` and its live descendants (Linux ``/proc``)."""
    pids = [pid]
    for p in pids:
        for task in Path(f"/proc/{p}/task").glob("*"):
            try:
                pids.extend(int(c) for c in (task / "children").read_text().split())
            except OSError:
                pass  # the task exited while being listed
    return pids


def _cpu_s(pids: List[int]) -> float:
    """User plus system CPU seconds of the given processes."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        total += int(fields[11]) + int(fields[12])
    return total / tick


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class Request:
    """One request as its client saw it."""

    key: int
    latency_ms: float
    kind: str  # hit | miss | coalesced | failed
    timing: Dict[str, float]
    result: Optional[Dict[str, Any]]


class Serve:
    """``python -m repro serve --jobs 1`` under two closed-loop clients."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pids: List[int] = []
        # The cache holds every key a run asks for, so a repeat is a hit.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--cache-size", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            line = self._read_line(timeout=60.0)
            self.port = int(line.rsplit(":", 1)[1])
            with ReproClient(port=self.port, timeout=60.0) as client:
                status = client.request("status")
                if not status.get("ok"):
                    raise RuntimeError(f"daemon status failed: {status}")
                # First simulation in the pool worker pays its imports;
                # a long-running daemon pays that once, so it is set-up.
                warm = client.request("check", {"seed": WARMUP_KEY, "faults": True})
                if not warm.get("ok"):
                    raise RuntimeError(f"daemon warm-up failed: {warm}")
            self.pids = _proc_tree(self.proc.pid)
        except BaseException:
            self.close()
            raise

    def _read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("daemon did not report its address in time")
        line = self.proc.stdout.readline().decode().strip()
        if "listening on" not in line:
            raise RuntimeError(f"unexpected daemon output: {line!r}")
        return line

    def status(self) -> Dict[str, int]:
        with ReproClient(port=self.port, timeout=60.0) as client:
            return client.request("status")["result"]["stats"]

    def _client(self, client: int, deadline: float, out: List[Request]) -> None:
        try:
            with ReproClient(port=self.port, timeout=60.0) as conn:
                for key in client_schedule(self.seed, client):
                    if time.perf_counter() >= deadline:
                        return
                    t0 = time.perf_counter()
                    env = conn.request("check", {"seed": key, "faults": True})
                    latency = (time.perf_counter() - t0) * 1000
                    result = env.get("result") if env.get("ok") else None
                    if result is None or not result.get("ok"):
                        kind = "failed"
                    elif env.get("cached"):
                        kind = "hit"
                    elif env.get("coalesced"):
                        kind = "coalesced"
                    else:
                        kind = "miss"
                    out.append(Request(key, latency, kind, env.get("timing") or {},
                                       result))
        except (OSError, ValueError) as exc:  # the daemon hung up or garbled
            out.append(Request(-1, 0.0, "failed", {}, {"error": str(exc)}))

    def measure(self, seconds: float) -> Dict[str, Any]:
        """The timed phase: requests, daemon CPU and the server's counters."""
        before = self.status()
        cpu0 = _cpu_s(self.pids)
        records: List[List[Request]] = [[] for _ in range(SERVE_CLIENTS)]
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client, args=(c, start + seconds, records[c]),
                name=f"serve-client-{c}", daemon=True,
            )
            for c in range(SERVE_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 150)
        wall = time.perf_counter() - start
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a serve client did not finish")
        cpu = _cpu_s(self.pids) - cpu0
        after = self.status()
        return {
            "records": records,
            "wall_s": wall,
            "cpu_s": cpu,
            # The daemon's own peak: the pool worker's is the simulator's,
            # which the in-process workloads measure, and it swings with
            # whichever stress run was largest.
            "peak_rss_mb": _peak_rss_mb(self.proc.pid),
            "stats": {k: after[k] - before.get(k, 0) for k in after
                      if isinstance(after[k], int)},
        }

    @staticmethod
    def verify_keys(records: List[List[Request]]) -> List[Tuple[int, Dict]]:
        """The first distinct served keys, client by client in schedule
        order, so the set depends only on the seed."""
        chosen: Dict[int, Dict] = {}
        per_client = SERVE_VERIFY // SERVE_CLIENTS
        for client_records in records:
            taken = 0
            for req in client_records:
                if taken == per_client:
                    break
                if req.kind != "failed" and req.key not in chosen:
                    chosen[req.key] = req.result
                    taken += 1
        return list(chosen.items())

    def close(self) -> None:
        """Stop the daemon and make sure none of its processes outlive it."""
        pids = self.pids or [self.proc.pid]
        if self.proc.poll() is None:
            pids = _proc_tree(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        deadline = time.monotonic() + 10
        for pid in pids[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return state[state.rfind(")") + 2] != "Z"


def recompute(key: int, spans: Spans, op: int) -> Dict[str, Any]:
    """A served key's payload, computed in this process."""
    with spans.span("op", op) as parent:
        with spans.span("run", op, parent):
            return check_point(seed=key, faults=True, inject_bug=False)

