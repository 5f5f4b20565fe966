"""Additional property-based tests: invalidate protocol, live
replication under random writes, tree barrier, and the paging model."""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.params import PAPER_PARAMS
from repro.machine import PlusMachine

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def invalidate_scenarios(draw):
    """``(n_nodes, home, n_replicas, writes)`` for the invalidate test."""
    n_nodes = draw(st.integers(min_value=2, max_value=5))
    home = draw(st.integers(min_value=0, max_value=n_nodes - 1))
    n_replicas = draw(st.integers(min_value=0, max_value=n_nodes - 1))
    writes = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_nodes - 1),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=1, max_value=500),
            ),
            min_size=1,
            max_size=15,
        )
    )
    return n_nodes, home, n_replicas, writes


@SLOW
@given(scenario=invalidate_scenarios())
# A writer that fills its pending-writes cache blocks, and its fence
# ends only after a co-located reader's long compute: readers must not
# start before every writer's fence has completed.
@example(scenario=(3, 1, 2, [(0, 0, 1)] * 10 + [(0, 0, 2)]))
def test_invalidate_protocol_readers_converge(scenario):
    """Under the invalidate variant, reads through the refetch path made
    after every writer has fenced agree with the master on every node."""
    n_nodes, home, n_replicas, writes = scenario
    params = PAPER_PARAMS.evolved(coherence_protocol="invalidate")
    machine = PlusMachine(n_nodes=n_nodes, params=params)
    replicas = [n for n in range(n_nodes) if n != home][:n_replicas]
    seg = machine.shm.alloc(3, home=home, replicas=replicas)
    results = {}
    per_node = {}
    for node, offset, value in writes:
        per_node.setdefault(node, []).append((offset, value))
    fenced = []

    def writer(ctx, my_writes):
        for offset, value in my_writes:
            yield from ctx.write(seg.base + offset, value)
            yield from ctx.compute(7)
        yield from ctx.fence()
        fenced.append(ctx.node_id)

    def reader(ctx, node):
        while len(fenced) < len(per_node):
            yield from ctx.compute(500)
            yield from ctx.yield_cpu()  # let a co-located writer run
        values = []
        for offset in range(3):
            v = yield from ctx.read(seg.base + offset)
            values.append(v)
        results[node] = values

    for node, my_writes in per_node.items():
        machine.spawn(node, writer, my_writes)
    for node in range(n_nodes):
        machine.spawn(node, reader, node)
    machine.run()
    assert len(results) == n_nodes
    masters = [machine.peek(seg.base + o) for o in range(3)]
    for node, values in results.items():
        assert values == masters, (node, values, masters)


@SLOW
@given(
    seed_writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=1, max_value=10_000),
            st.integers(min_value=0, max_value=30),
        ),
        min_size=1,
        max_size=25,
    ),
    target=st.integers(min_value=1, max_value=3),
)
def test_live_replication_converges_under_random_writes(seed_writes, target):
    """Property version of the Section 2.4 integrity claim: a background
    copy started mid-write-stream always ends identical to the master."""
    machine = PlusMachine(n_nodes=4)
    seg = machine.shm.alloc(64, home=0)
    done = []

    def writer(ctx):
        kicked = False
        for i, (offset, value, gap) in enumerate(seed_writes):
            yield from ctx.write(seg.base + offset, value)
            if gap:
                yield from ctx.compute(gap)
            if not kicked and i >= len(seed_writes) // 2:
                kicked = True
                machine.os.replicate_live(
                    seg.vpages[0], target, on_done=lambda: done.append(True)
                )
        if not kicked:
            machine.os.replicate_live(
                seg.vpages[0], target, on_done=lambda: done.append(True)
            )
        yield from ctx.fence()
        while not done:
            yield from ctx.spin(100)

    machine.spawn(0, writer)
    machine.run()
    for offset in range(64):
        assert machine.peek_copy(seg.base + offset, target) == machine.peek(
            seg.base + offset
        )


@SLOW
@given(
    threads_per_node=st.integers(min_value=1, max_value=3),
    n_nodes=st.integers(min_value=1, max_value=5),
    phases=st.integers(min_value=1, max_value=4),
)
def test_tree_barrier_never_tears_phases(threads_per_node, n_nodes, phases):
    from repro.runtime.sync import TreeBarrier

    params = PAPER_PARAMS.evolved(context_switch_cycles=16)
    machine = PlusMachine(n_nodes=n_nodes, params=params)
    barrier = TreeBarrier(machine, threads_per_node=threads_per_node)
    log = []

    def worker(ctx, who):
        for phase in range(phases):
            yield from ctx.compute(13 * (who + 1))
            log.append((phase, "arrive", who))
            yield from barrier.wait(ctx)
            log.append((phase, "pass", who))

    who = 0
    for node in range(n_nodes):
        for _ in range(threads_per_node):
            machine.spawn(node, worker, who)
            who += 1
    machine.run()
    for phase in range(phases):
        arrivals = [
            i for i, (p, e, _w) in enumerate(log)
            if p == phase and e == "arrive"
        ]
        passes = [
            i for i, (p, e, _w) in enumerate(log)
            if p == phase and e == "pass"
        ]
        assert len(arrivals) == len(passes) == n_nodes * threads_per_node
        assert max(arrivals) < min(passes)


@SLOW
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),     # node
            st.booleans(),                             # read or write
            st.integers(min_value=0, max_value=2047),  # DSM address
            st.integers(min_value=0, max_value=999),   # value
        ),
        max_size=30,
    )
)
def test_paging_dsm_acts_like_memory(ops):
    """The paging baseline, for all its cost, is still a memory: a
    sequential shadow model predicts every read (one thread per run, so
    there is no concurrency ambiguity)."""
    from repro.baselines.paging import PagingDSM

    machine = PlusMachine(n_nodes=4)
    dsm = PagingDSM(machine, n_pages=2)
    shadow = {}
    observed = []

    def worker(ctx):
        for _node, is_read, addr, value in ops:
            if is_read:
                got = yield from dsm.read(ctx, addr)
                observed.append((addr, got))
            else:
                yield from dsm.write(ctx, addr, value)
                shadow[addr] = value

    machine.spawn(0, worker)
    machine.run()
    replay = {}
    for _node, is_read, addr, value in ops:
        if not is_read:
            replay[addr] = value
    # Verify each observed read against the running shadow.
    shadow2 = {}
    idx = 0
    for _node, is_read, addr, value in ops:
        if is_read:
            assert observed[idx] == (addr, shadow2.get(addr, 0))
            idx += 1
        else:
            shadow2[addr] = value


@SLOW
@given(
    data=st.data(),
    n_nodes=st.integers(min_value=2, max_value=4),
)
def test_update_and_invalidate_protocols_are_value_equivalent(data, n_nodes):
    """The protocol variant changes *when* data moves, never *what* the
    memory contains: the same schedule of writes and interlocked ops
    leaves identical master state under both protocols."""
    from repro.core.params import OpCode

    home = data.draw(st.integers(min_value=0, max_value=n_nodes - 1))
    replicas = [n for n in range(n_nodes) if n != home][
        : data.draw(st.integers(min_value=0, max_value=n_nodes - 1))
    ]
    schedule = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_nodes - 1),  # node
                st.sampled_from(["write", "fadd", "minx", "fset"]),
                st.integers(min_value=0, max_value=3),            # offset
                st.integers(min_value=0, max_value=2000),         # operand
                st.integers(min_value=0, max_value=25),           # gap
            ),
            min_size=1,
            max_size=18,
        )
    )

    def run(protocol):
        params = PAPER_PARAMS.evolved(coherence_protocol=protocol)
        machine = PlusMachine(n_nodes=n_nodes, params=params)
        seg = machine.shm.alloc(4, home=home, replicas=replicas)

        def worker(ctx, ops):
            for kind, offset, operand, gap in ops:
                va = seg.base + offset
                if kind == "write":
                    yield from ctx.write(va, operand)
                elif kind == "fadd":
                    yield from ctx.fetch_add(va, operand)
                elif kind == "minx":
                    yield from ctx.min_xchng(va, operand)
                else:
                    yield from ctx.fetch_set(va)
                if gap:
                    yield from ctx.compute(gap)
            yield from ctx.fence()

        per_node = {}
        for node, kind, offset, operand, gap in schedule:
            per_node.setdefault(node, []).append(
                (kind, offset, operand, gap)
            )
        for node, ops in per_node.items():
            machine.spawn(node, worker, ops)
        machine.run()
        return [machine.peek(seg.base + o) for o in range(4)]

    # Caveat: cross-node racing schedules can legitimately differ in
    # outcome order, so give every node a DISJOINT offset to mutate.
    filtered = [
        (node, kind, node % 4, operand, gap)
        for node, kind, _off, operand, gap in schedule
    ]
    schedule = filtered
    assert run("update") == run("invalidate")
