"""A 2PC bank ledger that survives node crashes — the recovery workload.

The crash/restart fault machinery (``FaultPlan`` crash schedules, crash
epochs in the reliable layer, copy-list repair) claims that a PLUS
machine keeps *applications* correct across node failures, provided the
application follows a write-ahead discipline over durable memory.  This
module is the proof: a bank ledger driven by a two-phase-commit
coordinator, built **purely from the paper's primitives** —

* balances, locks and write-ahead logs are plain shared-memory words,
  homed on the node that owns them (local reads/writes and RMWs);
* every cross-node *mutation* travels through hardware ``queue`` /
  ``dequeue`` operations (participant inboxes, the coordinator's
  response inbox), which are retry-safe: a flushed or refused enqueue
  fabricates the FULL answer and the sender simply retries;
* every cross-node *read* (transaction descriptors, decisions, the
  shutdown flag) polls a word whose valid values carry a magic bit, so
  the fabricated ``0`` a crashed read resolves to just means "not yet";
* participant WALs are replicated onto the coordinator's node and the
  coordinator's decision log onto every participant, so crash-time
  update chains exercise the reliable layer's flush re-routing.

Node 0 is the coordinator, nodes ``1..P`` are participants, each owning
a shard of accounts.  A transaction moves ``amount`` from one account
to another under no-wait locking with presumed-abort 2PC:

1. coordinator durably writes the transaction descriptor, then
   enqueues PREPARE into each involved participant's inbox;
2. a participant locks its accounts (``cond-xchng``, no waiting),
   checks funds, writes the new balances *absolutely* into its WAL,
   marks the record PREPARED, and votes through the coordinator inbox;
3. the coordinator durably logs COMMIT (all yes) or ABORT, then
   resends the decision until every leg acknowledges DONE;
4. a participant applies WAL balances (idempotently — the values are
   absolute), releases locks, marks APPLIED/ABORTED and enqueues DONE.

Every message may be duplicated (crash-time retries re-enqueue) and
every actor may die at any instruction; recovery threads — registered
via ``machine.on_restart`` — replay the WAL to the last durable state:
an undecided coordinator presumes abort, a PREPARED participant
re-votes and polls the decision log, an APPLIED one re-releases and
re-acknowledges.  The end-to-end check is **conservation**: the sum of
all balances is invariant across every crash/restart interleaving, and
the final per-account balances must equal a sequential replay of the
committed transactions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.check.invariants import InvariantMonitor
from repro.check.oracle import CoherenceOracle, check_conservation
from repro.core.crash import harvest_crashes
from repro.core.params import TimingParams
from repro.errors import ConfigError, PlusError
from repro.machine import PlusMachine
from repro.network.faults import FaultPlan

TOP = 1 << 31        # queue valid/full bit; also the lock FREE value
MAGIC = 1 << 30      # validity bit for coordinator-homed control words
FREE = TOP           # lock word value when unheld (top bit set)

# Inbox / response-queue message tags (low 4 bits of the packed word).
TAG_PREPARE = 1
TAG_COMMIT = 2
TAG_ABORT = 3
TAG_VOTE = 4
TAG_DONE = 5

# WAL record states (word 0 of each 6-word record).
W_EMPTY = 0
W_PREPARED = 1
W_VOTED_NO = 2
W_APPLIED = 3
W_ABORTED = 4

# Decision codes in the coordinator's decision log.
D_COMMIT = 1
D_ABORT = 2

_WAL_WORDS = 6   # state, nlegs, acctA, balA, acctB, balB
_DESC_WORDS = 4  # magic|k, src, dst, amount


def _pack(k: int, p: int, vote: int, tag: int) -> int:
    """Queue payload: fits the 31-bit dequeue value comfortably."""
    return (k << 8) | (p << 5) | (vote << 4) | tag


def _unpack(value: int) -> Tuple[int, int, int, int]:
    return value >> 8, (value >> 5) & 7, (value >> 4) & 1, value & 0xF


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LedgerConfig:
    """Shape of one ledger experiment (fully derived from the seed)."""

    seed: int = 0
    n_participants: int = 2
    accounts_per: int = 4
    n_txns: int = 24
    initial_balance: int = 1_000
    max_amount: int = 60
    #: Targeted crash schedule ``(node, at_cycle, down_cycles)`` triples;
    #: empty means a crash-free control run.
    crashes: Tuple[Tuple[int, int, int], ...] = ()
    durability: str = "preserve"

    def __post_init__(self) -> None:
        if not 1 <= self.n_participants <= 7:
            raise ConfigError("ledger needs 1..7 participants")
        if self.n_txns > 255:
            raise ConfigError("transaction ids must fit one byte")
        if self.accounts_per < 2:
            raise ConfigError("each shard needs at least two accounts")

    @property
    def n_nodes(self) -> int:
        return self.n_participants + 1

    @property
    def n_accounts(self) -> int:
        return self.n_participants * self.accounts_per

    @property
    def total_money(self) -> int:
        return self.n_accounts * self.initial_balance

    def transactions(self) -> List[Tuple[int, int, int]]:
        """The seeded ``(src, dst, amount)`` list, ids ``1..n_txns``."""
        rng = random.Random(f"{self.seed}:ledger:txns")
        txns = []
        for _ in range(self.n_txns):
            src = rng.randrange(self.n_accounts)
            dst = rng.randrange(self.n_accounts - 1)
            if dst >= src:
                dst += 1
            txns.append((src, dst, rng.randint(1, self.max_amount)))
        return txns


def derive_crashes(
    seed: int, n_nodes: int
) -> Tuple[Tuple[int, int, int], ...]:
    """Seeded crash schedule for one ledger run: one or two targeted
    crashes (the coordinator is a candidate like any participant), early
    enough that the workload is guaranteed still running."""
    rng = random.Random(f"{seed}:ledger:crashes")
    events = [(rng.randrange(n_nodes), rng.randint(1_200, 6_000),
               rng.randint(1_500, 3_500))]
    if rng.random() < 0.6:
        events.append((rng.randrange(n_nodes), rng.randint(7_000, 11_000),
                       rng.randint(1_500, 3_500)))
    return tuple(events)


# ----------------------------------------------------------------------
@dataclass
class LedgerResult:
    """Outcome of one ledger run (picklable, for sweep workers)."""

    seed: int
    config: LedgerConfig
    cycles: int = 0
    messages: int = 0
    committed: int = 0
    aborted: int = 0
    crashes: int = 0
    recoveries: int = 0
    crash_events: List[Tuple[int, int, str, int]] = field(default_factory=list)
    total_expected: int = 0
    total_final: int = 0
    conserved: bool = False
    balances_match: bool = False
    oracle_ok: bool = False
    oracle_summary: str = ""
    live_error: Optional[str] = None
    crash_flushes: int = 0
    crash_strays: int = 0
    crash_redrives: int = 0
    stale_epoch_drops: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.live_error is None
            and self.conserved
            and self.balances_match
            and self.oracle_ok
        )

    def describe(self) -> str:
        state = "ok" if self.ok else "FAILED"
        line = (
            f"seed {self.seed}: {state} — {self.committed} committed, "
            f"{self.aborted} aborted, {self.crashes} crash(es), "
            f"{self.recoveries} recover(ies); total {self.total_final}/"
            f"{self.total_expected}; {self.cycles} cycles, "
            f"{self.messages} messages"
        )
        if self.live_error is not None:
            line += f"\n  live: {self.live_error}"
        return line


# ----------------------------------------------------------------------
class LedgerApp:
    """Builds the memory image and runs coordinator + participants."""

    def __init__(self, machine: PlusMachine, config: LedgerConfig) -> None:
        self.machine = machine
        self.cfg = config
        self.txns = config.transactions()
        self.recovery_runs = 0
        self._build()

    # -- layout --------------------------------------------------------
    def _build(self) -> None:
        machine, cfg = self.machine, self.cfg
        shm = machine.shm
        participants = list(range(1, cfg.n_participants + 1))

        self.bals: Dict[int, object] = {}
        self.locks: Dict[int, object] = {}
        self.wals: Dict[int, object] = {}
        self.inboxes: Dict[int, object] = {}
        for p in participants:
            self.bals[p] = shm.alloc(cfg.accounts_per, home=p, name=f"bal{p}")
            self.locks[p] = shm.alloc(cfg.accounts_per, home=p, name=f"lock{p}")
            # The WAL is replicated onto the coordinator's node so crash
            # windows put live update chains on the wire.
            self.wals[p] = shm.alloc(
                cfg.n_txns * _WAL_WORDS, home=p, replicas=[0], name=f"wal{p}"
            )
            self.inboxes[p] = shm.alloc_queue(home=p, name=f"inbox{p}")
            for i in range(cfg.accounts_per):
                machine.poke(self.bals[p].addr(i), cfg.initial_balance)
                machine.poke(self.locks[p].addr(i), FREE)

        self.desc = shm.alloc(cfg.n_txns * _DESC_WORDS, home=0, name="desc")
        # Decision log replicated everywhere: decisions ride update
        # chains through the participants, and a mid-chain crash must
        # flush-heal without losing the decision at the master.
        self.cwal = shm.alloc(
            cfg.n_txns, home=0, replicas=participants, name="cwal"
        )
        self.done = shm.alloc(cfg.n_txns, home=0, name="done")
        self.shut = shm.alloc(cfg.n_nodes, home=0, name="shut")
        self.cinbox = shm.alloc_queue(home=0, name="cinbox")

    # -- address helpers -----------------------------------------------
    def _owner(self, acct: int) -> int:
        return 1 + acct // self.cfg.accounts_per

    def _bal_va(self, acct: int) -> int:
        return self.bals[self._owner(acct)].addr(acct % self.cfg.accounts_per)

    def _lock_va(self, acct: int) -> int:
        return self.locks[self._owner(acct)].addr(
            acct % self.cfg.accounts_per
        )

    def _wal_va(self, p: int, k: int, off: int) -> int:
        return self.wals[p].addr((k - 1) * _WAL_WORDS + off)

    def _desc_va(self, k: int, off: int) -> int:
        return self.desc.addr((k - 1) * _DESC_WORDS + off)

    # -- shared thread helpers -----------------------------------------
    def _enqueue_retry(self, ctx, queue, value: int):
        """Enqueue until it sticks.  FULL (real, or fabricated by a
        crash-time flush) just means try again — the protocol tolerates
        the duplicate this can produce when the original did land."""
        while True:
            old = yield from ctx.enqueue(queue, value)
            if not old & TOP:
                return
            yield from ctx.spin(180)

    def _read_magic(self, ctx, vaddr: int):
        """Poll a control word until its validity bit shows; a crashed
        remote read fabricates 0, which simply reads as not-yet."""
        while True:
            value = yield from ctx.read(vaddr)
            if value & MAGIC:
                return value & (MAGIC - 1)
            yield from ctx.spin(200)

    def _await_decision(self, ctx, k: int):
        """Poll the decision log for transaction ``k``'s verdict."""
        va = self.cwal.addr(k - 1)
        while True:
            value = yield from ctx.read(va)
            if value & MAGIC and (value & 0xFF) == k:
                return (value >> 8) & 3
            yield from ctx.spin(200)

    # ------------------------------------------------------------------
    # Coordinator (node 0).
    # ------------------------------------------------------------------
    def _legs_of(self, k: int) -> List[int]:
        src, dst, _ = self.txns[k - 1]
        return sorted({self._owner(src), self._owner(dst)})

    def _drain_cinbox_once(self, ctx, k, legs, votes):
        """Service one response-queue message; True if one was there.

        DONE acks update the durable done-bitmask; votes for the current
        transaction are collected; anything stale (an earlier incarnation
        re-voting an already-decided transaction) is dropped."""
        head = yield from ctx.dequeue(self.cinbox)
        if not head & TOP:
            return False
        mk, mp, mvote, tag = _unpack(head & ~TOP)
        if tag == TAG_DONE and 1 <= mk <= self.cfg.n_txns:
            va = self.done.addr(mk - 1)
            bits = yield from ctx.read(va)
            if not bits & (1 << mp):
                yield from ctx.write(va, bits | (1 << mp))
        elif (
            tag == TAG_VOTE
            and votes is not None
            and mk == k
            and mp in legs
            and mp not in votes
        ):
            votes[mp] = bool(mvote)
        return True

    def _send_to(self, ctx, targets, k: int, tag: int):
        for p in targets:
            yield from self._enqueue_retry(
                ctx, self.inboxes[p], _pack(k, p, 0, tag)
            )

    def _ensure_done(self, ctx, k: int, legs, tag: int):
        """Resend the decision until every leg's DONE bit is durable."""
        yield from self._send_to(ctx, legs, k, tag)
        spins = 0
        while True:
            bits = yield from ctx.read(self.done.addr(k - 1))
            if all(bits & (1 << p) for p in legs):
                return
            got = yield from self._drain_cinbox_once(ctx, k, legs, None)
            if not got:
                yield from ctx.spin(300)
                spins += 1
                if spins % 12 == 0:
                    missing = [p for p in legs if not bits & (1 << p)]
                    yield from self._send_to(ctx, missing, k, tag)

    def _coordinator(self, ctx, recover: bool = False):
        """2PC driver; idempotent over its durable state, so the same
        generator is both the first run and every recovery incarnation."""
        cfg = self.cfg
        if recover:
            self.recovery_runs += 1
        # Transactions whose descriptor predates this incarnation but
        # have no logged decision are presumed aborted (classic 2PC).
        undecided_old = set()
        if recover:
            for k in range(1, cfg.n_txns + 1):
                w0 = yield from ctx.read(self._desc_va(k, 0))
                cw = yield from ctx.read(self.cwal.addr(k - 1))
                if w0 & MAGIC and not cw & MAGIC:
                    undecided_old.add(k)
        for k in range(1, cfg.n_txns + 1):
            src, dst, amount = self.txns[k - 1]
            legs = self._legs_of(k)
            cw = yield from ctx.read(self.cwal.addr(k - 1))
            decision = (cw >> 8) & 3 if cw & MAGIC else None
            if decision is None and k in undecided_old:
                decision = D_ABORT
                yield from ctx.write(
                    self.cwal.addr(k - 1), MAGIC | (D_ABORT << 8) | k
                )
                yield from ctx.fence()
            if decision is None:
                # Fresh transaction: durable descriptor, then phase one.
                yield from ctx.write(self._desc_va(k, 1), MAGIC | src)
                yield from ctx.write(self._desc_va(k, 2), MAGIC | dst)
                yield from ctx.write(self._desc_va(k, 3), MAGIC | amount)
                yield from ctx.fence()
                yield from ctx.write(self._desc_va(k, 0), MAGIC | k)
                yield from ctx.fence()
                yield from self._send_to(ctx, legs, k, TAG_PREPARE)
                votes: Dict[int, bool] = {}
                spins = 0
                while len(votes) < len(legs):
                    got = yield from self._drain_cinbox_once(
                        ctx, k, legs, votes
                    )
                    if not got:
                        yield from ctx.spin(300)
                        spins += 1
                        if spins % 12 == 0:
                            missing = [p for p in legs if p not in votes]
                            yield from self._send_to(
                                ctx, missing, k, TAG_PREPARE
                            )
                decision = (
                    D_COMMIT if all(votes.values()) else D_ABORT
                )
                yield from ctx.write(
                    self.cwal.addr(k - 1), MAGIC | (decision << 8) | k
                )
                yield from ctx.fence()
            tag = TAG_COMMIT if decision == D_COMMIT else TAG_ABORT
            yield from self._ensure_done(ctx, k, legs, tag)
        # Everything decided and acknowledged: release the participants.
        for p in range(1, cfg.n_participants + 1):
            yield from ctx.write(self.shut.addr(p), MAGIC | 1)
        yield from ctx.fence()

    # ------------------------------------------------------------------
    # Participants (nodes 1..P).
    # ------------------------------------------------------------------
    def _release_locks(self, ctx, p: int, k: int):
        """Free every lock of shard ``p`` still held by transaction
        ``k``.  Scanning the (small) shard instead of trusting the WAL's
        leg list also heals locks leaked by a crash that hit between the
        acquire and the WAL write."""
        for i in range(self.cfg.accounts_per):
            va = self.locks[p].addr(i)
            held = yield from ctx.read(va)
            if held == k:
                yield from ctx.write(va, FREE)
        yield from ctx.fence()

    def _handle_prepare(self, ctx, p: int, k: int):
        base = self._wal_va(p, k, 0)
        state = yield from ctx.read(base)
        if state == W_EMPTY:
            src = yield from self._read_magic(ctx, self._desc_va(k, 1))
            dst = yield from self._read_magic(ctx, self._desc_va(k, 2))
            amount = yield from self._read_magic(ctx, self._desc_va(k, 3))
            legs = []
            if self._owner(src) == p:
                legs.append((src, -amount))
            if self._owner(dst) == p:
                legs.append((dst, amount))
            legs.sort()
            ok = True
            for acct, _delta in legs:
                old = yield from ctx.cond_xchng(self._lock_va(acct), k)
                # old == k: our own pre-crash incarnation already locked
                # this account for this transaction — still ours.
                if not (old & TOP or old == k):
                    ok = False
                    break
            new_bals = []
            if ok:
                for acct, delta in legs:
                    bal = yield from ctx.read(self._bal_va(acct))
                    if bal + delta < 0:
                        ok = False
                        break
                    new_bals.append((acct, bal + delta))
            if ok:
                yield from ctx.write(base + 1, len(new_bals))
                for i, (acct, nb) in enumerate(new_bals):
                    yield from ctx.write(base + 2 + 2 * i, acct)
                    yield from ctx.write(base + 3 + 2 * i, nb)
                yield from ctx.fence()
                yield from ctx.write(base, W_PREPARED)
                yield from ctx.fence()
                vote = 1
            else:
                yield from self._release_locks(ctx, p, k)
                yield from ctx.write(base, W_VOTED_NO)
                yield from ctx.fence()
                vote = 0
        elif state in (W_PREPARED, W_APPLIED):
            vote = 1  # duplicate PREPARE after a crash-time retry
        else:
            vote = 0
        yield from self._enqueue_retry(
            ctx, self.cinbox, _pack(k, p, vote, TAG_VOTE)
        )

    def _apply_commit(self, ctx, p: int, k: int):
        base = self._wal_va(p, k, 0)
        state = yield from ctx.read(base)
        if state == W_PREPARED:
            nlegs = yield from ctx.read(base + 1)
            for i in range(nlegs):
                acct = yield from ctx.read(base + 2 + 2 * i)
                nb = yield from ctx.read(base + 3 + 2 * i)
                # Absolute balances make the replay idempotent: a crash
                # between here and the APPLIED mark re-runs this safely.
                yield from ctx.write(self._bal_va(acct), nb)
            yield from ctx.fence()
            yield from ctx.write(base, W_APPLIED)
            yield from ctx.fence()
        yield from self._release_locks(ctx, p, k)

    def _apply_abort(self, ctx, p: int, k: int):
        base = self._wal_va(p, k, 0)
        state = yield from ctx.read(base)
        yield from self._release_locks(ctx, p, k)
        if state != W_APPLIED:
            yield from ctx.write(base, W_ABORTED)
            yield from ctx.fence()

    def _handle_decision(self, ctx, p: int, k: int, commit: bool):
        if commit:
            yield from self._apply_commit(ctx, p, k)
        else:
            yield from self._apply_abort(ctx, p, k)
        yield from self._enqueue_retry(
            ctx, self.cinbox, _pack(k, p, 0, TAG_DONE)
        )

    def _participant(self, ctx, p: int, recover: bool = False):
        cfg = self.cfg
        if recover:
            self.recovery_runs += 1
            # WAL replay: resolve everything the dead incarnation left
            # in flight before touching new inbox work.
            for k in range(1, cfg.n_txns + 1):
                base = self._wal_va(p, k, 0)
                state = yield from ctx.read(base)
                if state == W_PREPARED:
                    # Re-vote (the original may have died on the wire),
                    # then poll the decision log to its verdict.
                    yield from self._enqueue_retry(
                        ctx, self.cinbox, _pack(k, p, 1, TAG_VOTE)
                    )
                    decision = yield from self._await_decision(ctx, k)
                    if decision == D_COMMIT:
                        yield from self._apply_commit(ctx, p, k)
                    else:
                        yield from self._apply_abort(ctx, p, k)
                    yield from self._enqueue_retry(
                        ctx, self.cinbox, _pack(k, p, 0, TAG_DONE)
                    )
                elif state == W_VOTED_NO:
                    yield from self._enqueue_retry(
                        ctx, self.cinbox, _pack(k, p, 0, TAG_VOTE)
                    )
                    yield from self._await_decision(ctx, k)
                    yield from self._apply_abort(ctx, p, k)
                    yield from self._enqueue_retry(
                        ctx, self.cinbox, _pack(k, p, 0, TAG_DONE)
                    )
                elif state in (W_APPLIED, W_ABORTED):
                    yield from self._release_locks(ctx, p, k)
                    bits = yield from ctx.read(self.done.addr(k - 1))
                    if not bits & (1 << p):
                        yield from self._enqueue_retry(
                            ctx, self.cinbox, _pack(k, p, 0, TAG_DONE)
                        )
        while True:
            head = yield from ctx.dequeue(self.inboxes[p])
            if not head & TOP:
                shut = yield from ctx.read(self.shut.addr(p))
                if shut & MAGIC:
                    return
                yield from ctx.spin(250)
                continue
            mk, _mp, _mv, tag = _unpack(head & ~TOP)
            if not 1 <= mk <= cfg.n_txns:
                continue
            if tag == TAG_PREPARE:
                yield from self._handle_prepare(ctx, p, mk)
            elif tag in (TAG_COMMIT, TAG_ABORT):
                yield from self._handle_decision(
                    ctx, p, mk, tag == TAG_COMMIT
                )

    # ------------------------------------------------------------------
    def spawn_all(self) -> None:
        machine, cfg = self.machine, self.cfg
        machine.spawn(0, self._coordinator, name="ledger-coord")
        machine.on_restart(
            0,
            lambda nid: machine.spawn(
                0, self._coordinator, True, name="ledger-coord-r"
            ),
        )
        for p in range(1, cfg.n_participants + 1):
            machine.spawn(p, self._participant, p, name=f"ledger-p{p}")
            machine.on_restart(
                p,
                lambda nid, p=p: machine.spawn(
                    p, self._participant, p, True, name=f"ledger-p{p}-r"
                ),
            )

    # -- end-of-run accounting -----------------------------------------
    def final_balances(self) -> List[int]:
        return [
            self.machine.peek(self._bal_va(g))
            for g in range(self.cfg.n_accounts)
        ]

    def decisions(self) -> Dict[int, int]:
        out = {}
        for k in range(1, self.cfg.n_txns + 1):
            cw = self.machine.peek(self.cwal.addr(k - 1))
            if cw & MAGIC and (cw & 0xFF) == k:
                out[k] = (cw >> 8) & 3
        return out

    def reference_balances(self, decisions: Dict[int, int]) -> List[int]:
        """Sequential replay of the committed transactions, in id order
        (the coordinator is sequential, so id order is commit order)."""
        bals = [self.cfg.initial_balance] * self.cfg.n_accounts
        for k, (src, dst, amount) in enumerate(self.txns, start=1):
            if decisions.get(k) == D_COMMIT:
                bals[src] -= amount
                bals[dst] += amount
        return bals


# ----------------------------------------------------------------------
def run_ledger(
    seed: int,
    n_participants: int = 2,
    n_txns: int = 24,
    crashes: Optional[Tuple[Tuple[int, int, int], ...]] = None,
    durability: str = "preserve",
    max_events: int = 50_000_000,
    max_cycles: int = 2_000_000,
) -> LedgerResult:
    """Run one seeded ledger experiment under its crash schedule.

    ``crashes=None`` derives the schedule from the seed
    (:func:`derive_crashes`); pass ``()`` for a crash-free control run.
    """
    config = LedgerConfig(
        seed=seed,
        n_participants=n_participants,
        n_txns=n_txns,
        crashes=(
            derive_crashes(seed, n_participants + 1)
            if crashes is None
            else tuple(crashes)
        ),
        durability=durability,
    )
    params = TimingParams(page_words=64)
    machine = PlusMachine(
        config.n_nodes, params=params, width=config.n_nodes, height=1
    )
    plan = FaultPlan(
        seed, crashes=list(config.crashes), durability=config.durability
    )
    machine.install_faults(plan)
    monitor = InvariantMonitor(capacity=1_000_000).install(machine)
    app = LedgerApp(machine, config)
    result = LedgerResult(seed=seed, config=config)
    try:
        app.spawn_all()
        machine.run(max_cycles=max_cycles, max_events=max_events)
    except PlusError as exc:
        result.live_error = f"{type(exc).__name__}: {exc}"
    finally:
        monitor.uninstall()
    result.cycles = machine.engine.now
    result.messages = machine.fabric.stats.total_messages
    harvest_crashes(result, machine)
    if result.live_error is not None:
        return result
    decisions = app.decisions()
    result.committed = sum(1 for d in decisions.values() if d == D_COMMIT)
    result.aborted = sum(1 for d in decisions.values() if d == D_ABORT)
    finals = app.final_balances()
    result.total_expected = config.total_money
    result.total_final = sum(finals)
    result.conserved = result.total_final == result.total_expected
    result.balances_match = finals == app.reference_balances(decisions)
    report = CoherenceOracle(machine, monitor).check()
    result.oracle_ok = report.ok
    result.oracle_summary = report.summary()
    if not report.ok:
        result.live_error = "; ".join(
            v.describe().splitlines()[0] for v in report.violations[:3]
        )
    return result


def verify_ledger(result: LedgerResult) -> None:
    """Raise on any failed end-to-end property of one ledger run."""
    if result.live_error is not None:
        raise PlusError(
            f"ledger seed {result.seed} failed: {result.live_error}"
        )
    check_conservation(
        result.total_final,
        result.total_expected,
        what=f"ledger total (seed {result.seed})",
    )
    if not result.balances_match:
        raise PlusError(
            f"ledger seed {result.seed}: per-account balances diverge "
            f"from the sequential replay of committed transactions"
        )


def run_ledger_sweep(
    count: int,
    base_seed: int = 0,
    n_participants: int = 2,
    n_txns: int = 24,
    jobs: int = 1,
    keep_going: bool = False,
    require_recovery: bool = True,
    on_result=None,
) -> List[LedgerResult]:
    """Run ``count`` seeded crash/recovery ledger experiments.

    A seed fails if any end-to-end property breaks — or, with
    ``require_recovery`` (default), if its crash schedule produced no
    actual recovery (the sweep must *exercise* the machinery, not
    time-out around it)."""
    from repro.parallel import SweepTask, run_sweep

    tasks = [
        SweepTask.make(
            seed,
            "repro.apps.ledger:run_ledger",
            {
                "seed": seed,
                "n_participants": n_participants,
                "n_txns": n_txns,
            },
            label=f"ledger seed {seed}",
        )
        for seed in range(base_seed, base_seed + count)
    ]

    def seed_failed(result: LedgerResult) -> bool:
        if not result.ok:
            return True
        return require_recovery and result.recoveries < 1

    results: List[LedgerResult] = []

    def deliver(task_result) -> None:
        if task_result.error is None:
            result = task_result.value
        else:
            result = LedgerResult(
                seed=task_result.index,
                config=LedgerConfig(seed=task_result.index),
                live_error=task_result.error,
            )
        results.append(result)
        if on_result is not None:
            on_result(result)

    run_sweep(
        tasks,
        jobs=jobs,
        on_result=deliver,
        stop=None if keep_going else (lambda tr: seed_failed(results[-1])),
        failed=lambda tr: seed_failed(
            tr.value
            if tr.error is None
            else LedgerResult(
                seed=tr.index,
                config=LedgerConfig(seed=tr.index),
                live_error=tr.error,
            )
        ),
        label="ledger",
    )
    return results
