"""Property tests: space-parallel runs are bit-identical across drivers.

The space-partitioned machine (``repro.parallel.spacetime``) is its own
deterministic model, parameterized by (regions, window): the claim under
test is not that partitioning reproduces the *unpartitioned* machine —
the plain fabric resolves link contention globally at send time, which
no distributed execution can — but that every way of *executing* the
partitioned model produces byte-identical results:

* the serial in-process driver,
* the serial driver with a permuted region step order, every exchange
  codec-packed through real boundary rings (the exact bytes the worker
  processes move),
* one worker process per region (``run_space(spec, jobs=N)``).

Plus the one exact reduction: a 1-region space machine IS the plain
machine (same clock, same messages, same events, same answers).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import PAPER_PARAMS
from repro.errors import ConfigError
from repro.machine import PlusMachine
from repro.network.fabric import Fabric
from repro.parallel.spacetime import (
    SpaceMachine,
    SpaceSpec,
    default_window,
    effective_regions,
    lookahead_bound,
    partition_rows,
    run_checksums,
    run_space,
)
from repro.sim.engine import Engine

STRESS = "repro.check.stress:build_space_stress"


def _spec(seed, regions, window=0, faults=False):
    return SpaceSpec.make(
        STRESS,
        {"seed": seed, "regions": regions, "window": window, "faults": faults},
        label=f"space prop seed {seed}",
    )


def _alt_checksums(spec):
    """The same spec through the adversarial serial driver: regions
    stepped in reverse order, every exchange codec-packed through
    boundary rings."""
    probe = spec.build(0)
    order = list(reversed(range(probe.space_regions)))
    return run_checksums(
        run_space(spec, jobs=1, step_order=order, transport="shm")
    )


# ----------------------------------------------------------------------
# The central property: driver-independence of the partitioned model.
# Stress seeds give random meshes, page sizes, protocols, programs and
# tie-break modes (seed-derived, so both rng-ties and FIFO-ties runs
# appear); regions 1/2/4 cover the degenerate, minimal and clamped
# partitions.
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=60),
    regions=st.sampled_from([1, 2, 4]),
    faults=st.booleans(),
)
def test_space_run_is_driver_independent(seed, regions, faults):
    spec = _spec(seed, regions, faults=faults)
    base = run_checksums(run_space(spec, jobs=1))
    assert _alt_checksums(spec) == base


@pytest.mark.parametrize("seed,faults", [(3, False), (5, True), (0, True)])
def test_space_run_matches_across_worker_processes(seed, faults):
    # The true multiprocess driver: one worker per region, results
    # checksum-identical to the in-process serial reference.
    spec = _spec(seed, 2, faults=faults)
    serial = run_checksums(run_space(spec, jobs=1))
    parallel = run_checksums(run_space(spec, jobs=2))
    assert parallel == serial


def test_one_region_reduces_exactly_to_the_plain_machine():
    # R=1 is not "close to" the plain machine — it IS the plain
    # machine: same engine schedule, same fabric arbitration, same
    # message ids, hence the same clock/messages/events and answers.
    from repro.apps.graphs import dijkstra, geometric_graph
    from repro.apps.sssp import SSSPApp, SSSPConfig

    graph = geometric_graph(
        200, degree=5, long_edge_fraction=0.08, max_weight=20, seed=7
    )
    plain = PlusMachine(n_nodes=16)
    app = SSSPApp(plain, graph, SSSPConfig(copies=3, replicate_queues=True))
    app.spawn_workers()
    plain.run()

    spec = SpaceSpec.make(
        "repro.parallel.spaceworkloads:build_sssp",
        {"n_vertices": 200, "regions": 1},
        label="sssp r1",
    )
    run = run_space(spec, jobs=1)
    run.raise_if_error()
    assert run.clock == plain.engine.now
    assert run.messages == plain.fabric.stats.total_messages
    assert run.events_fired == plain.engine.events_fired
    ref = run.overlay(spec.build(0))
    assert ref.space_app.distances() == app.distances()
    assert ref.space_app.distances() == dijkstra(graph, 0)


# ----------------------------------------------------------------------
# Window boundaries: events and arrivals at t = k*W and k*W +/- 1.
# ----------------------------------------------------------------------
def test_events_at_window_boundaries_fire_exactly_once_in_order():
    # The engine-level contract the space driver leans on: driving in
    # aligned windows of W via run(until=barrier-1) fires events at
    # exactly k*W-1 (last cycle of a window), k*W (first of the next)
    # and k*W+1 once each, in time order.
    W = default_window(PAPER_PARAMS)
    engine = Engine()
    fired = []
    expected = sorted(k * W + dt for k in (1, 2, 3) for dt in (-1, 0, 1))
    for t in expected:
        engine.at(t, lambda t=t: fired.append((engine.now, t)))
    barrier = 0
    while engine.pending_events:
        barrier += W
        engine.run(until=barrier - 1)
    assert fired == [(t, t) for t in expected]


@pytest.mark.parametrize("window", [1, 4, 12])
def test_boundary_arrivals_are_driver_independent(window):
    # Seed 0's organic cross-region traffic covers every arrival
    # residue mod W — including exactly-at-barrier (k*W) and the two
    # adjacent cycles — so identity across drivers here is identity
    # *at the boundaries*, not just in the window interiors.
    spec = _spec(0, 2, window=window)
    run = run_space(spec, jobs=1)
    run.raise_if_error()
    if window > 1:
        probe = spec.build(0)
        residues = {
            entry.arrive % window
            for h in run.harvests
            for entry in h.entries
            if entry.arrive >= 0
            and probe.region_of[entry.src] != probe.region_of[entry.dst]
        }
        assert {window - 1, 0, 1} <= residues
    assert _alt_checksums(spec) == run_checksums(run)


# ----------------------------------------------------------------------
# Partition and window configuration.
# ----------------------------------------------------------------------
def test_partition_rows_cover_the_mesh_disjointly():
    for height in (1, 2, 3, 5, 16):
        for regions in (1, 2, 3, 4):
            r = effective_regions(regions, height)
            assert 1 <= r <= max(1, min(regions, height))
            bands = partition_rows(height, r)
            assert len(bands) == r
            rows = [row for start, stop in bands for row in range(start, stop)]
            assert rows == list(range(height))


def test_window_above_the_lookahead_bound_is_rejected():
    bound = lookahead_bound(PAPER_PARAMS)
    with pytest.raises(ConfigError):
        SpaceMachine(n_nodes=4, width=2, height=2, regions=2, window=bound + 1)
    # A 1-region machine has no cross-region lookahead to protect.
    SpaceMachine(n_nodes=4, width=2, height=2, regions=1, window=bound + 1)
    # window=0 means "use the default"; anything below 1 cycle is ill-formed.
    with pytest.raises(ConfigError):
        SpaceMachine(n_nodes=4, width=2, height=2, regions=2, window=-1)


def test_space_machine_requires_a_tie_rng_factory():
    # A single shared Random would be consumed in engine-interleaved
    # order, losing determinism; the constructor does not expose the
    # plain machine's shared-rng knob at all, only the per-region
    # factory (and the base-class plumbing double-checks).
    with pytest.raises(TypeError):
        SpaceMachine(
            n_nodes=4,
            width=2,
            height=2,
            regions=2,
            tie_break_rng=random.Random(1),
        )
    machine = SpaceMachine(
        n_nodes=4,
        width=2,
        height=2,
        regions=2,
        tie_break_rng_factory=lambda r: random.Random(f"t:{r}"),
    )
    assert machine.space_regions == 2
    with pytest.raises(ConfigError):
        machine._init_simulation(random.Random(1))


def test_regions_clamp_to_mesh_height():
    machine = SpaceMachine(n_nodes=4, width=4, height=1, regions=4)
    assert machine.space_regions == 1
    machine = SpaceMachine(n_nodes=16, regions=64)
    assert machine.space_regions == 4  # 4x4 mesh


def test_live_replication_is_gated_on_partitioned_machines():
    # A live copy splices the machine-wide copy-list in zero simulated
    # time — a global serialization point the partitioned model cannot
    # express, so it must refuse rather than silently diverge.
    machine = SpaceMachine(n_nodes=4, width=2, height=2, regions=2)
    seg = machine.shm.alloc(1, home=0)
    with pytest.raises(ConfigError):
        machine.os.replicate_live(seg.vpages[0], 3)


# ----------------------------------------------------------------------
# Disjoint deterministic id streams (the two-engines-one-process fix).
# ----------------------------------------------------------------------
def test_region_fabrics_stamp_disjoint_msg_id_streams():
    spec = _spec(3, 2)
    run = run_space(spec, jobs=1)
    run.raise_if_error()
    per_region = []
    for h in run.harvests:
        ids = [e.msg_id for e in h.entries if e.msg_id >= 0]
        assert ids, "stress run should trace messages in every region"
        # Region r's fabric stamps ids in residue class r (mod regions).
        assert {i % run.regions for i in ids} == {h.region}
        per_region.append(set(ids))
    assert per_region[0].isdisjoint(per_region[1])


def test_fabric_msg_id_base_step_validation():
    engine = Engine()
    machine = PlusMachine(n_nodes=4)
    for base, step in ((1, 1), (-1, 2), (2, 2), (0, 0)):
        with pytest.raises(ConfigError):
            Fabric(
                engine,
                machine.mesh,
                PAPER_PARAMS,
                msg_id_base=base,
                msg_id_step=step,
            )


def test_two_machines_in_one_process_have_independent_id_streams():
    # Regression for the global-counter hazard: running one simulation
    # must not perturb the ids (hence traces) of another built later in
    # the same process.
    def run_one():
        machine = PlusMachine(n_nodes=4)
        seg = machine.shm.alloc(1, home=1)

        def writer(ctx):
            yield from ctx.write(seg.base, 7)
            yield from ctx.read(seg.base)

        machine.spawn(0, writer)
        machine.run()
        return machine.fabric.stats.total_messages, machine.engine.now

    first = run_one()
    second = run_one()
    assert first == second


# ----------------------------------------------------------------------
# The 50-seed faulty sweep (satellite of the CI space-parallel job):
# every seed's faulty partitioned run is driver-independent, and the
# stress harness's own verify mode agrees.
# ----------------------------------------------------------------------
def test_fifty_faulty_seeds_are_driver_independent():
    divergent = []
    for seed in range(50):
        spec = _spec(seed, 2, faults=True)
        base = run_checksums(run_space(spec, jobs=1))
        if _alt_checksums(spec) != base:
            divergent.append(seed)
    assert divergent == []


def test_faulty_seed_13_survives_the_stale_refetch_race():
    # Pin the seed whose fault stream found the stale-refetch race:
    # a refetch response was outaged twice, and its retransmitted
    # payload — snapshotted before a later write — arrived after that
    # write's invalidate.  Before the per-word generation guard in
    # ``CoherenceManager.cpu_refetch`` this seed failed the coherence
    # oracle (word revalidated with resurrected data); the guard must
    # both keep the oracle green and actually fire on this seed.
    from repro.check.stress import run_stress

    result = run_stress(
        13, faults=True, space_regions=2, space_jobs=1, space_verify=True
    )
    assert result.ok, result.describe()
    run = run_space(_spec(13, 2, faults=True), jobs=1)
    stale = sum(
        counters.stale_refetches
        for h in run.harvests
        for counters in h.counters.values()
    )
    assert stale > 0


def test_stress_harness_verify_mode_catches_nothing_on_good_seeds():
    from repro.check.stress import run_stress

    for seed in (0, 5):
        result = run_stress(
            seed,
            faults=True,
            space_regions=2,
            space_jobs=2,
            space_verify=True,
        )
        assert result.ok, result.describe()
        assert result.retransmits >= 0


def test_stress_space_mode_still_catches_the_planted_bug():
    from repro.check.stress import run_stress

    result = run_stress(7, inject_bug=True, space_regions=2, space_jobs=1)
    assert result.caught, result.describe()
