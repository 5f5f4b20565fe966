"""Node crash/restart fault injection and durable recovery.

Covers the crash fault model (seeded and targeted schedules, the
durability knob), crash-epoch semantics in the reliable layer (retry
exhaustion vs. restart-within-budget, stale-incarnation drops, flush
re-routing), copy-list repair, the watchdog's node-liveness report, the
2PC bank-ledger workload with its money-conservation oracle, and the
inertness guarantee: with no crashes scheduled, the entire machinery is
provably out of the way (byte-identical wire traces).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracle import check_conservation
from repro.check.stress import StressConfig, run_stress
from repro.core.coherence import CoherenceManager
from repro.core.crash import CrashTolerantCM
from repro.core.params import OpCode, TimingParams
from repro.errors import (
    CoherenceViolation,
    ConfigError,
    DeadlockError,
    NodeUnreachable,
)
from repro.machine import PlusMachine
from repro.network.faults import FaultPlan
from repro.stats.trace import ProtocolTrace


# ----------------------------------------------------------------------
# FaultPlan: crash knobs.
# ----------------------------------------------------------------------
def test_crash_plan_validation():
    with pytest.raises(ConfigError):
        FaultPlan(1, crash_rate=-0.1)
    with pytest.raises(ConfigError):
        FaultPlan(1, crash_rate=1 / 1000)  # needs crash_down_cycles
    with pytest.raises(ConfigError):
        FaultPlan(1, crashes=[(0, 10, 0)])  # down window must be >= 1
    with pytest.raises(ConfigError):
        FaultPlan(1, crash_rate=1 / 1000, crash_down_cycles=5, durability="x")


def test_has_crashes_property():
    assert not FaultPlan(1).has_crashes
    assert not FaultPlan(1, drop_prob=0.1).has_crashes
    assert FaultPlan(1, crashes=[(0, 10, 5)]).has_crashes
    assert FaultPlan(1, crash_rate=1 / 1000, crash_down_cycles=5).has_crashes


def test_crash_schedule_is_seeded_and_deterministic():
    def windows(seed, node):
        plan = FaultPlan(seed, crash_rate=1 / 500, crash_down_cycles=100)
        sched = plan.node_crashes(node)
        out = []
        for _ in range(5):
            out.append((sched.start, sched.end))
            sched.advance()
        return out

    assert windows(3, 0) == windows(3, 0)
    assert windows(3, 0) != windows(3, 1)
    assert windows(3, 0) != windows(4, 0)
    for start, end in windows(3, 0):
        assert end - start == 100


# ----------------------------------------------------------------------
# Crash semantics: volatile state dies, memory survives (or is scrubbed).
# ----------------------------------------------------------------------
def _crash_machine(durability="preserve", crashes=((1, 10**9, 1),)):
    """A 2-node machine with crash tolerance armed.

    The targeted window defaults to far beyond any drain so tests drive
    ``crash_node``/``restart_node`` directly at chosen instants.
    """
    machine = PlusMachine(n_nodes=2)
    trace = ProtocolTrace().install(machine)
    machine.install_faults(FaultPlan(1, crashes=crashes, durability=durability))
    return machine, trace


def test_crash_discards_volatile_state_but_keeps_frames():
    machine, _trace = _crash_machine()
    seg = machine.shm.alloc(2, home=1)

    def worker(ctx):
        yield from ctx.write(seg.addr(0), 42)
        yield from ctx.fence()

    machine.spawn(1, worker)
    machine.run()
    assert machine.peek(seg.addr(0)) == 42

    thread = machine.spawn(1, worker)
    machine.crash_node(1)
    # The thread died with the node; local memory did not.
    assert thread.status.name == "DONE"
    assert machine.nodes[1].memory.read(
        machine.os.copylist(seg.vpages[0]).master.page, 0
    ) == 42
    assert machine.down_nodes == [1]
    machine.restart_node(1)
    assert machine.down_nodes == []
    assert machine.node_epoch(1) == 1
    assert [(n, k) for _c, n, k, _e in machine.crash_log] == [
        (1, "crash"),
        (1, "restart"),
    ]


def test_scrub_durability_zeroes_frames_at_restart():
    machine, _trace = _crash_machine(durability="scrub")
    seg = machine.shm.alloc(2, home=1)

    def worker(ctx):
        yield from ctx.write(seg.addr(0), 77)
        yield from ctx.fence()

    machine.spawn(1, worker)
    machine.run()
    machine.crash_node(1)
    machine.restart_node(1)
    assert machine.peek(seg.addr(0)) == 0


def test_repair_drops_orphaned_copy_and_keeps_master():
    machine = PlusMachine(n_nodes=3, width=3, height=1)
    machine.install_faults(FaultPlan(1, crashes=[(2, 10**9, 1)]))
    seg = machine.shm.alloc(1, home=0)
    machine.os.replicate(seg.vpages[0], 2)
    assert len(machine.os.copylist(seg.vpages[0])) == 2
    machine.crash_node(2)
    clist = machine.os.copylist(seg.vpages[0])
    assert len(clist) == 1
    assert clist.master.node == 0


def test_repair_promotes_survivor_when_scrubbed_master_dies():
    machine = PlusMachine(n_nodes=3, width=3, height=1)
    machine.install_faults(
        FaultPlan(1, crashes=[(0, 10**9, 1)], durability="scrub")
    )
    seg = machine.shm.alloc(1, home=0)
    machine.os.replicate(seg.vpages[0], 1)
    machine.poke(seg.addr(0), 9)
    machine.crash_node(0)
    clist = machine.os.copylist(seg.vpages[0])
    assert len(clist) == 1
    assert clist.master.node == 1
    assert machine.peek(seg.addr(0)) == 9


def test_repair_keeps_preserved_master_in_place():
    machine = PlusMachine(n_nodes=3, width=3, height=1)
    machine.install_faults(FaultPlan(1, crashes=[(0, 10**9, 1)]))
    seg = machine.shm.alloc(1, home=0)
    machine.os.replicate(seg.vpages[0], 1)
    machine.crash_node(0)
    clist = machine.os.copylist(seg.vpages[0])
    # Preserve: the master's data survives the window, mastership stays.
    assert clist.master.node == 0
    assert clist.copy_on(1) is not None


def test_repair_keeps_sole_copy_registered():
    machine = PlusMachine(n_nodes=2)
    machine.install_faults(
        FaultPlan(1, crashes=[(1, 10**9, 1)], durability="scrub")
    )
    seg = machine.shm.alloc(1, home=1)
    machine.crash_node(1)
    clist = machine.os.copylist(seg.vpages[0])
    assert clist.master.node == 1  # nowhere else the data could live


# ----------------------------------------------------------------------
# Reliable layer: retry budget vs. restart inside the budget.
# ----------------------------------------------------------------------
def test_peer_down_past_budget_raises_node_unreachable_at_exact_cycle():
    timeout = 100
    params = TimingParams(
        ack_timeout_cycles=timeout,
        ack_backoff_max_cycles=6_400,
        net_max_retries=2,
    )
    machine = PlusMachine(n_nodes=2, params=params)
    trace = ProtocolTrace().install(machine)
    machine.install_faults(FaultPlan(1, crashes=[(1, 2, 10_000_000)]))
    seg = machine.shm.alloc(2, home=1)

    def worker(ctx):
        yield from ctx.write(seg.addr(0), 1)
        yield from ctx.fence()

    machine.spawn(0, worker)
    with pytest.raises(NodeUnreachable) as info:
        machine.run()
    err = info.value
    assert err.node == 1
    # Same budget arithmetic as a blackholed link: retransmissions at
    # t+T, t+3T, t+7T; the third firing exceeds net_max_retries=2.
    sent = next(e.time for e in trace if e.kind.name == "WRITE_REQ")
    assert err.cycle == sent + 7 * timeout


def test_peer_restart_inside_budget_recovers_the_write():
    timeout = 100
    params = TimingParams(
        ack_timeout_cycles=timeout,
        ack_backoff_max_cycles=6_400,
        net_max_retries=5,
    )
    machine = PlusMachine(n_nodes=2, params=params)
    ProtocolTrace().install(machine)
    # Down for 250 cycles: the t+T retransmit hits the corpse, the
    # t+3T one reaches the restarted incarnation.
    machine.install_faults(FaultPlan(1, crashes=[(1, 2, 250)]))
    seg = machine.shm.alloc(2, home=1)

    def worker(ctx):
        yield from ctx.write(seg.addr(0), 5)
        yield from ctx.fence()
        return "done"

    thread = machine.spawn(0, worker)
    machine.run()
    assert thread.result == "done"
    assert machine.peek(seg.addr(0)) == 5
    assert machine.node_epoch(1) == 1
    assert machine.fabric.stats.retransmits >= 1


def test_stale_incarnation_traffic_is_dropped_not_resurrected():
    machine, _trace = _crash_machine()
    seg = machine.shm.alloc(2, home=1)

    def worker(ctx):
        yield from ctx.write(seg.addr(0), 3)
        yield from ctx.fence()

    machine.spawn(0, worker)
    machine.run()
    rel0 = machine.nodes[0].cm.reliable
    rel1 = machine.nodes[1].cm.reliable
    machine.crash_node(1)
    machine.restart_node(1)
    # Re-deliver a pre-crash sequenced message by hand: the receiver's
    # fresh incarnation must drop it (wrong believed epoch), never
    # buffer it into the new stream.
    from repro.network.message import Message, MsgKind

    stale = Message(
        kind=MsgKind.WRITE_REQ,
        src=0,
        dst=1,
        value=3,
        origin=0,
        xid=999,
        seq=0,
        epoch=(rel0.epoch << 16) | 0,
    )
    before = rel1.stale_epoch_drops
    rel1.on_wire(stale)
    assert rel1.stale_epoch_drops == before + 1


def test_peer_crash_clears_unfillable_reorder_buffers():
    machine, _trace = _crash_machine()
    rel0 = machine.nodes[0].cm.reliable
    from repro.core.reliable import _InChannel

    ch = rel0._in[1] = _InChannel(1)
    from repro.network.message import Message, MsgKind

    # Seq 2 buffered, seq 0-1 lost with the sender's dead window.
    ch.buffer[2] = Message(kind=MsgKind.UPDATE, src=1, dst=0, seq=2)
    machine.crash_node(1)
    assert not ch.buffer
    assert rel0.idle()


# ----------------------------------------------------------------------
# Watchdog: node-liveness report for crash-mode hangs.
# ----------------------------------------------------------------------
def test_watchdog_names_node_liveness_when_crash_mode_hangs():
    # Stage the one hang the redrive machinery cannot heal unaided: a
    # request wire-acked by the victim just before the crash, with the
    # issuer never talking to the restarted incarnation again.  The dry
    # run finds the arrival cycle; the real run crashes right after it.
    params = TimingParams(cm_service_cycles=400)

    def build(crash_at):
        machine = PlusMachine(n_nodes=2, params=params)
        trace = ProtocolTrace().install(machine)
        machine.install_faults(
            FaultPlan(1, crashes=[(1, crash_at, 50)]) if crash_at else
            FaultPlan(1, crashes=[(1, 10**9, 1)])
        )
        seg = machine.shm.alloc(2, home=1)

        def worker(ctx):
            token = yield from ctx.issue(OpCode.FETCH_ADD, seg.addr(0), 1)
            yield from ctx.result(token)

        machine.spawn(0, worker)
        return machine, trace

    machine, trace = build(0)
    machine.run()
    arrival = next(
        e.arrive for e in trace if e.kind.name == "RMW_REQ" and e.arrive >= 0
    )
    machine, _trace = build(arrival + 2)
    with pytest.raises(DeadlockError) as info:
        machine.run()
    text = str(info.value)
    assert "node liveness" in text
    assert "crash/restart events" in text
    assert "node 1 crash" in text


# ----------------------------------------------------------------------
# Chaos stress preset.
# ----------------------------------------------------------------------
def test_chaos_config_derives_crash_knobs_and_implies_faults():
    config = StressConfig.from_seed(0, chaos=True)
    assert config.has_faults and config.has_crashes
    assert config.crash_rate > 0
    assert config.crash_down_cycles >= 1
    assert config.durability in ("preserve", "scrub")
    again = StressConfig.from_seed(0, chaos=True)
    assert config == again
    plain = StressConfig.from_seed(0, faults=True)
    # Chaos rides on the same wire-fault derivation: the crash stream is
    # separate, so enabling it does not perturb drop/dup/jitter choices.
    assert plain.drop_prob == config.drop_prob
    assert plain.dup_prob == config.dup_prob
    assert not plain.has_crashes


def test_chaos_seed_survives_and_reports_crash_counters():
    result = run_stress(0, chaos=True)
    assert result.ok, result.describe()
    assert result.crashes >= 1
    assert result.recoveries == result.crashes
    assert result.crash_events
    kinds = [k for _c, _n, k, _e in result.crash_events]
    assert "crash" in kinds and "restart" in kinds
    assert "crashes=" in result.describe()


# ----------------------------------------------------------------------
# Inertness: crash_rate=0 leaves every byte of behavior unchanged.
# ----------------------------------------------------------------------
def _traced_run(seed, arm_crash_machinery):
    """One small faulty workload; returns (trace lines, memory words)."""
    machine = PlusMachine(n_nodes=4)
    trace = ProtocolTrace().install(machine)
    machine.install_faults(FaultPlan(seed, drop_prob=0.05, dup_prob=0.05))
    if arm_crash_machinery:
        # What a crash-capable plan arms, minus the crash schedule.
        machine._arm_crashes()
    expected = CrashTolerantCM if arm_crash_machinery else CoherenceManager
    assert {type(node.cm) for node in machine.nodes} == {expected}
    rng = random.Random(seed)
    segs = [machine.shm.alloc(4, home=n) for n in range(4)]

    def worker(ctx, me):
        for i in range(6):
            seg = segs[rng.randrange(4) if False else (me + i) % 4]
            yield from ctx.write(seg.addr(i % 4), me * 100 + i)
            yield from ctx.read(seg.addr((i + 1) % 4))
        yield from ctx.fence()

    for n in range(4):
        machine.spawn(n, worker, n)
    machine.run()
    lines = tuple(e.describe() for e in trace)
    memory = tuple(
        tuple(node.memory.words_of(page))
        for node in machine.nodes
        for page in sorted(node.memory.frames())
    )
    return lines, memory


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_crash_machinery_is_inert_without_crashes(seed):
    assert _traced_run(seed, False) == _traced_run(seed, True)


@pytest.mark.parametrize(
    "plan, tolerant",
    [
        (None, False),
        (FaultPlan(1, drop_prob=0.05), False),
        (FaultPlan(1, crashes=[(1, 10**9, 1)]), True),
        (FaultPlan(1, crash_rate=1e-4, crash_down_cycles=50), True),
    ],
    ids=["lossless", "faults", "targeted-crash", "crash-rate"],
)
def test_only_a_crash_plan_builds_crash_tolerant_cms(plan, tolerant):
    machine = PlusMachine(n_nodes=2)
    if plan is not None:
        machine.install_faults(plan)
    expected = CrashTolerantCM if tolerant else CoherenceManager
    assert [type(node.cm) for node in machine.nodes] == [expected] * 2


def test_crash_free_chaos_counters_stay_zero():
    result = run_stress(3, faults=True)
    assert result.crashes == 0
    assert result.crash_flushes == 0
    assert result.crash_redrives == 0
    assert result.crash_strays == 0
    assert result.stale_epoch_drops == 0


# ----------------------------------------------------------------------
# The 2PC bank ledger: conservation across crash/recovery.
# ----------------------------------------------------------------------
def test_check_conservation_helper():
    check_conservation(100, 100)
    with pytest.raises(CoherenceViolation):
        check_conservation(99, 100, what="bank total")


def test_ledger_crash_free_control_run():
    from repro.apps.ledger import run_ledger

    result = run_ledger(2, crashes=(), n_txns=12)
    assert result.ok, result.describe()
    assert result.crashes == 0 and result.recoveries == 0
    assert result.committed + result.aborted == 12


def test_ledger_conserves_money_across_crash_and_recovery():
    from repro.apps.ledger import run_ledger

    result = run_ledger(7, n_txns=24)
    assert result.ok, result.describe()
    assert result.crashes >= 1
    assert result.recoveries >= 1
    assert result.total_final == result.total_expected
    assert result.conserved and result.balances_match


def test_ledger_seeds_cover_coordinator_and_participant_crashes():
    from repro.apps.ledger import derive_crashes

    targets = set()
    for seed in range(1, 30):
        targets.update(node for node, _at, _down in derive_crashes(seed, 3))
    assert 0 in targets, "no coordinator crash in the seed range"
    assert targets - {0}, "no participant crash in the seed range"
