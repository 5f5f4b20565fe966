"""Pinned lossless event order: sha256 digests of whole runs.

The cycles/messages checksums elsewhere pin only totals, so a change
that reorders two same-cycle events but happens to keep both totals
would go unnoticed.  Each scenario here runs a small machine with a
:class:`ProtocolTrace` installed and digests every trace entry (send
time, arrival, kind, endpoints, address, transaction, payload), the
engine's ``events_fired``, every node's stall, busy and switch counters,
and what each thread read.  Together the scenarios drive every request
kind the CPU understands (compute, read, write, issue, await-result,
poll, fence, yield) through every way a request can block: a remote
read, an invalidate-protocol refetch, a read behind a pending write, a
full pending-writes cache, an exhausted delayed-operations cache, a
delayed operation behind a pending write, a fence behind writes and
update chains, and a context switch.  The chaos seed adds a node crash
that kills threads in the middle of requests, and the faults seed
pins the fault-plan send path: link outages, fault-plan jitter,
duplicates, link-model jitter and random tie-breaking in one run.

A digest mismatch means the simulated behaviour changed; a pure host
speed-up must leave every digest untouched.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.check.stress import StressConfig, build_machine
from repro.core.params import PAPER_PARAMS
from repro.machine import PlusMachine
from repro.stats.trace import ProtocolTrace

_COUNTERS = (
    "busy_cycles",
    "compute_cycles",
    "spin_cycles",
    "read_stall_cycles",
    "write_stall_cycles",
    "sync_stall_cycles",
    "fence_stall_cycles",
    "context_switches",
    "threads_finished",
    "local_reads",
    "remote_reads",
    "local_writes",
    "remote_writes",
    "fences",
)


def _digest(machine, trace, threads) -> str:
    h = hashlib.sha256()
    for entry in trace.entries:
        h.update(repr(entry).encode())
    h.update(repr(machine.engine.events_fired).encode())
    for node in machine.nodes:
        c = node.counters
        h.update(repr([getattr(c, name) for name in _COUNTERS]).encode())
    h.update(repr([t.result for t in threads]).encode())
    h.update(repr(machine.crash_log).encode())
    return h.hexdigest()


def _run(machine, specs):
    trace = ProtocolTrace(capacity=1_000_000).install(machine)
    threads = [machine.spawn(node, fn, *args) for node, fn, *args in specs]
    machine.run()
    trace.uninstall()
    return machine, _digest(machine, trace, threads)


def two_threads_per_node():
    """Two contexts per node with a 40-cycle switch: every block
    (remote read, blocking RMW, full write cache) swaps contexts."""
    params = PAPER_PARAMS.evolved(context_switch_cycles=40)
    machine = PlusMachine(n_nodes=4, params=params)
    data = machine.shm.alloc(16, home=1, replicas=[2])
    counter = machine.shm.alloc(1, home=3)

    def worker(ctx, me):
        seen = []
        for i in range(12):
            seen.append((yield from ctx.read(data.base + (me + i) % 16)))
            yield from ctx.compute(5 + me)
            yield from ctx.write(data.base + (me * 3 + i) % 16, me * 100 + i)
            if i % 3 == 0:
                seen.append((yield from ctx.fetch_add(counter.base, 1)))
        return seen

    specs = [(n, worker, 2 * n + k) for n in range(4) for k in range(2)]
    return _run(machine, specs)


def invalidate_refetch():
    """Invalidate protocol: stale local words refetch from the master,
    and a read of a word the reader itself is writing waits for the
    write to complete."""
    params = PAPER_PARAMS.evolved(coherence_protocol="invalidate")
    machine = PlusMachine(n_nodes=3, params=params)
    seg = machine.shm.alloc(4, home=1, replicas=[0, 2])

    def writer(ctx, me):
        seen = []
        for i in range(8):
            yield from ctx.write(seg.base + i % 4, me * 10 + i)
            seen.append((yield from ctx.read(seg.base + i % 4)))
            yield from ctx.compute(3)
        yield from ctx.fence()
        return seen

    def reader(ctx):
        seen = []
        for i in range(16):
            seen.append((yield from ctx.read(seg.base + i % 4)))
            yield from ctx.compute(11)
        return seen

    return _run(
        machine, [(0, writer, 0), (2, writer, 2), (2, reader), (1, reader)]
    )


def write_cache_and_fences():
    """Bursts of remote writes fill the 8-entry pending-writes cache;
    fences wait out both plain writes and delayed-op update chains."""
    machine = PlusMachine(n_nodes=4)
    seg = machine.shm.alloc(32, home=3, replicas=[1, 2])

    def burst(ctx, me):
        for round_ in range(3):
            for i in range(12):
                yield from ctx.write(seg.base + (i + me) % 32, round_ * 50 + i)
            yield from ctx.issue_fetch_add(seg.base + 31, 1)
            yield from ctx.fence()
            yield from ctx.compute(17)
        return (yield from ctx.read(seg.base + me))

    def local_reader(ctx):
        total = 0
        for i in range(20):
            total += yield from ctx.read(seg.base + i)
        return total

    return _run(
        machine,
        [(0, burst, 0), (1, burst, 5), (0, local_reader), (3, burst, 9)],
    )


def delayed_ops():
    """Split-phase delayed operations: more issues than the 8 slots, a
    poll loop, results awaited out of order, a queue, and an issue
    behind the issuer's own pending write to the same word."""
    machine = PlusMachine(n_nodes=4)
    seg = machine.shm.alloc(8, home=2, replicas=[1])
    queue = machine.shm.alloc_queue(home=3)

    def hog(ctx, me):
        tokens = []
        for i in range(8):
            tokens.append(
                (yield from ctx.issue_fetch_add(seg.base + i % 8, me + 1))
            )
        polls = []
        for token in tokens[-3:]:
            polls.append((yield from ctx.poll(token)))
        results = []
        for token in reversed(tokens):
            results.append((yield from ctx.result(token)))
        return polls, results

    def latecomer(ctx, me):
        # Finds every slot taken by ``hog`` and waits for one to free.
        tokens = []
        for i in range(3):
            tokens.append((yield from ctx.issue_fetch_add(seg.base + i, 1)))
        results = []
        for token in tokens:
            results.append((yield from ctx.result(token)))
        yield from ctx.write(seg.base + 5, me)
        results.append((yield from ctx.fetch_add(seg.base + 5, 7)))
        token = yield from ctx.issue_enqueue(queue, me + 40)
        while (yield from ctx.poll(token)) is None:
            yield from ctx.spin(9)
        results.append((yield from ctx.result(token)))
        return results

    specs = [(n, hog, n) for n in range(4)]
    specs += [(n, latecomer, n) for n in range(4)]
    return _run(machine, specs)


def yields():
    """Three contexts on one node hand the processor round-robin."""
    params = PAPER_PARAMS.evolved(context_switch_cycles=16)
    machine = PlusMachine(n_nodes=2, params=params)
    seg = machine.shm.alloc(4, home=1)

    def polite(ctx, me):
        seen = []
        for i in range(6):
            yield from ctx.compute(me + 2)
            yield from ctx.yield_cpu()
            if i % 2:
                seen.append((yield from ctx.read(seg.base + me)))
                yield from ctx.write(seg.base + me, i)
        return seen

    return _run(machine, [(0, polite, k) for k in range(3)] + [(1, polite, 3)])


#: A ``--chaos`` stress seed whose crash schedule kills threads in the
#: middle of requests: some blocked on reads and delayed results, some
#: running with a charge still queued.
CHAOS_SEED = 7


def chaos_seed():
    config = StressConfig.from_seed(CHAOS_SEED, faults=True, chaos=True)
    machine, monitor, spawn_plans = build_machine(config)
    threads = [
        machine.spawn(node, program, name=f"stress-{CHAOS_SEED}")
        for node, program in spawn_plans
    ]
    try:
        machine.run(max_events=5_000_000)
    finally:
        monitor.uninstall()
    assert machine.crash_log, "the pinned chaos seed must crash a node"
    return machine, _digest(machine, monitor, threads)


#: A ``--faults`` stress seed whose wire loses messages to link outages
#: and random drops, duplicates and jitters deliveries, and whose link
#: model and engine add jitter and random ties on top.
FAULTS_SEED = 12


def faults_seed():
    config = StressConfig.from_seed(FAULTS_SEED, faults=True)
    assert config.jitter and config.random_ties and config.fault_jitter
    machine, monitor, spawn_plans = build_machine(config)
    threads = [
        machine.spawn(node, program, name=f"stress-{FAULTS_SEED}")
        for node, program in spawn_plans
    ]
    try:
        machine.run(max_events=5_000_000)
    finally:
        monitor.uninstall()
    fates = {entry.fate for entry in monitor.entries}
    assert "outage" in fates, "the pinned faults seed must hit an outage"
    assert {"drop", "sent+dup"} <= fates
    return machine, _digest(machine, monitor, threads)


#: The reference event order of each scenario.
PINNED = {
    two_threads_per_node: (
        "c5b3012935262e40910f1e157abc8549"
        "e4119416a02e83986a6c053443f3e864"
    ),
    invalidate_refetch: (
        "2a31646b2bdb032294b5f9036dd9325e"
        "3f16f14d486f6591d39e8930ed6a2f08"
    ),
    write_cache_and_fences: (
        "e2a0d525ecd7fcca7b024ad41503e463"
        "e49da1de707fc4f5d4d950a97faadea8"
    ),
    delayed_ops: (
        "ffe1cff96b7a5e4a4e9a93ae3ec2796a"
        "d9d1411814f9b3fb909669da15d6f111"
    ),
    yields: (
        "b5c247ea5dbcabb356b909a38645ab7b"
        "8fac016814a1f137f6b4864953f5f0ff"
    ),
    chaos_seed: (
        "48dcd8e2b31b9a14e76ddce8d9dc2ce7"
        "f46b42ea3cf0a984e7032d0d973a4f9d"
    ),
    faults_seed: (
        "d541cbdf17a2cb19ae9f968137a5d075"
        "2e9e34d518049c9debc5ffc9dcace603"
    ),
}


@pytest.mark.parametrize("scenario", list(PINNED), ids=lambda f: f.__name__)
def test_event_order_is_pinned(scenario):
    _machine, digest = scenario()
    assert digest == PINNED[scenario]


def _total(machine, name):
    return sum(getattr(node.counters, name) for node in machine.nodes)


def test_scenarios_reach_every_blocking_path():
    """The pins are only worth what they exercise."""
    machine, _ = two_threads_per_node()
    assert _total(machine, "context_switches") > 0
    assert _total(machine, "read_stall_cycles") > 0
    assert _total(machine, "sync_stall_cycles") > 0

    machine, _ = invalidate_refetch()
    assert _total(machine, "invalidations_applied") > 0
    # Node 2 holds a copy of every word, so its remote reads are refetches.
    assert machine.nodes[2].counters.remote_reads > 0

    machine, _ = write_cache_and_fences()
    assert sum(n.cm.pending.stall_events for n in machine.nodes) > 0
    assert _total(machine, "write_stall_cycles") > 0
    assert _total(machine, "fence_stall_cycles") > 0

    machine, _ = delayed_ops()
    assert sum(n.cm.delayed.slot_stalls for n in machine.nodes) > 0
    assert _total(machine, "sync_stall_cycles") > 0
    assert _total(machine, "spin_cycles") > 0

    machine, _ = yields()
    assert _total(machine, "context_switches") > 0

    machine, _ = chaos_seed()
    spawned = sum(len(node.cpu.threads) for node in machine.nodes)
    assert _total(machine, "threads_finished") < spawned  # some were killed
