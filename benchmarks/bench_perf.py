"""Simulator performance-regression harness (host wall-clock, not paper data).

Unlike the other benchmarks in this directory, this one measures the
*simulator itself*: how fast the discrete-event engine retires events on
two fixed workloads.  It exists to catch hot-path regressions — a change
that slows ``Engine.run``, ``Fabric.send``, or the coherence manager
shows up here long before it becomes an annoyance in the paper
reproductions.

Workloads (both deterministic, so cycles/messages double as a
behavioural checksum):

* **sssp** — 16 nodes, 800-vertex geometric graph (seed 7), 3 copies
  with replicated queues: the Table 2-1 midpoint configuration.
* **beam** — 16 nodes, 12x128 lattice (seed 5), beam 60, delayed
  operations: the Figure 3-1 hot configuration.

Run directly to produce ``BENCH_perf.json``::

    PYTHONPATH=src python benchmarks/bench_perf.py
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke  # CI-sized
    PYTHONPATH=src python benchmarks/bench_perf.py --jobs 2 --repeats 5

``--jobs N`` fans the workload matrix out across worker processes via
:func:`repro.parallel.run_sweep`; timings stay per-workload medians over
``--repeats`` runs (with p95 recorded alongside).  The full run also
benchmarks the sweep executor itself — a 200-seed ``check`` serial vs
one worker per core (min 2) — and records the wall times, speedup,
``cpu_count``, and output-identity verdict under the report's ``sweep``
key.  Every run additionally benchmarks *space-parallel* execution of
one partitioned machine (``repro.parallel.spacetime``): both workloads
one process vs R regions in R processes, gated on bit-identity with the
speedup recorded under ``space`` (full runs add a 256-node SSSP point).

The ``scale`` section builds the 1,024-node torus machine — ~1M mapped
pages full-size, ~100k under ``--smoke`` — and records construction
time, sustained events/sec (with a 16-node same-workload reference and
the ratio), mean hops, and peak RSS; ``--gate-scale`` turns the
tentpole acceptance numbers into a CI gate (construction < 10 s, RSS
< 1 GB, events/sec within 50% of the committed rate).  Every direct
run appends a timestamped line to ``BENCH_history.jsonl`` so
throughput is trendable across commits.

Under pytest the module runs the smoke-sized workloads once and checks
the measurement machinery, not the throughput (wall-clock assertions
would be flaky on shared runners).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.apps.beam import BeamConfig, BeamSearchApp, params_for
from repro.apps.graphs import dijkstra, geometric_graph, layered_lattice
from repro.apps.sssp import SSSPApp, SSSPConfig
from repro.machine import PlusMachine

# Make this module importable as plain ``bench_perf`` from any cwd, so
# SweepTask targets like "bench_perf:bench_point" resolve in worker
# processes regardless of how the parent was launched.
_BENCH_DIR = str(Path(__file__).resolve().parent)
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

#: cycles/messages expected from the full-size workloads; a mismatch
#: means a change altered simulated behaviour, not just speed.
FULL_CHECKSUMS = {
    "sssp": {"cycles": 145626, "messages": 41415},
    "beam": {"cycles": 122761, "messages": 12792},
}

#: Repo-root report; the full run records the smoke-sized checksums here
#: and ``--smoke`` (the CI path) verifies against them.
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def _smoke_baseline() -> Dict:
    """The committed smoke checksums, or {} when not recorded yet."""
    try:
        baseline = json.loads(BASELINE_PATH.read_text())
    except (OSError, ValueError):
        return {}
    return baseline.get("smoke_checksums", {})


def _run_sssp(n_vertices: int) -> PlusMachine:
    graph = geometric_graph(
        n_vertices, degree=5, long_edge_fraction=0.08, max_weight=20, seed=7
    )
    reference = dijkstra(graph, 0)
    machine = PlusMachine(n_nodes=16)
    app = SSSPApp(
        machine, graph, SSSPConfig(copies=3, replicate_queues=True)
    )
    app.spawn_workers()
    machine.run()
    if app.distances() != reference:
        raise AssertionError("perf workload diverged from Dijkstra")
    return machine


def _run_beam(n_layers: int, width: int) -> PlusMachine:
    lattice = layered_lattice(
        n_layers=n_layers, width=width, branching=3, seed=5, hot_fraction=0.6
    )
    config = BeamConfig(beam=60, sync_mode="delayed")
    machine = PlusMachine(n_nodes=16, params=params_for(config))
    app = BeamSearchApp(machine, lattice, config)
    app.spawn_workers()
    machine.run()
    return machine


def _percentile(sorted_vals, frac: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = frac * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def measure(build_and_run: Callable[[], PlusMachine], repeats: int = 3) -> Dict:
    """Median (and p95) wall time and events/sec for one workload.

    Median rather than best-of: the median is what a rerun actually
    reproduces, and the p95 alongside it exposes jitter a best-of-N
    would silently absorb.
    """
    walls = []
    machine = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        machine = build_and_run()
        walls.append(time.perf_counter() - t0)
    walls.sort()
    wall = statistics.median(walls)
    events = machine.engine.events_fired
    return {
        "wall_s": round(wall, 4),
        "wall_p95_s": round(_percentile(walls, 0.95), 4),
        "repeats": len(walls),
        "events": events,
        "events_per_sec": round(events / wall) if wall else 0,
        "cycles": machine.engine.now,
        "messages": machine.fabric.stats.total_messages,
    }


def bench_point(workload: str, smoke: bool = False, repeats: int = 3) -> Dict:
    """SweepTask target: measure one named workload (picklable dict)."""
    fns = {
        ("sssp", False): lambda: _run_sssp(800),
        ("sssp", True): lambda: _run_sssp(200),
        ("beam", False): lambda: _run_beam(12, 128),
        ("beam", True): lambda: _run_beam(6, 48),
    }
    return measure(fns[(workload, bool(smoke))], repeats=repeats)


def benchmark_sweep(seeds: int = 200, jobs: Optional[int] = None) -> Dict:
    """Time the sweep executor itself: ``check --seeds N`` serial vs
    parallel, asserting the aggregate stdout is byte-identical.

    ``jobs`` defaults to the machine's core count (but at least 2, so
    the parallel leg always exercises the multiprocess executor).  A
    parallel leg slower than serial is *reported*, never raised: on a
    single-core runner the worker processes pay spawn/IPC overhead with
    no extra cores to win it back, which is expected, not a regression.
    Only output divergence is a failure.
    """
    from repro import cli
    from repro.parallel import effective_jobs

    cpu_count = os.cpu_count() or 1
    jobs_requested = jobs if jobs is not None else max(2, cpu_count)
    # The parallel leg must exercise the multiprocess executor even on
    # a single-core runner, so the bench opts into oversubscription
    # explicitly (the CLI now clamps silent over-requests; see
    # repro.parallel.effective_jobs) and records both values.
    jobs = max(2, effective_jobs(jobs_requested, cpu_count=cpu_count))

    walls = {}
    outputs = {}
    for j in (1, jobs):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(
                [
                    "check",
                    "--seeds",
                    str(seeds),
                    "--jobs",
                    str(j),
                    "--oversubscribe",
                ]
            )
        walls[j] = time.perf_counter() - t0
        outputs[j] = (code, out.getvalue())
    identical = outputs[1] == outputs[jobs]
    if not identical:
        raise AssertionError(
            f"check --jobs {jobs} output diverged from --jobs 1"
        )
    result = {
        "seeds": seeds,
        "jobs": jobs,
        "jobs_requested": jobs_requested,
        "jobs_effective": jobs,
        "cpu_count": cpu_count,
        "wall_serial_s": round(walls[1], 3),
        "wall_parallel_s": round(walls[jobs], 3),
        "speedup": round(walls[1] / walls[jobs], 2) if walls[jobs] else 0.0,
        "identical_output": identical,
        "exit_codes": [outputs[1][0], outputs[jobs][0]],
    }
    if walls[jobs] > walls[1]:
        result["parallel_slower"] = True
        if cpu_count == 1:
            result["note"] = (
                "single-core runner: parallel overhead is expected, "
                "only output identity is checked"
            )
    return result


def benchmark_space(smoke: bool = False) -> Dict:
    """Space-parallel identity and speedup: one partitioned machine,
    one process vs R regions in R processes (this one steps region 0).

    The gate is *bit-identity*: both bench workloads run through
    :func:`repro.parallel.run_space` serially and in parallel and must
    agree on the full checksum tuple (clock, messages, events, memory
    image, trace).  Wall-clock speedup is recorded, never asserted —
    on a single-core runner the region workers pay spawn/IPC overhead
    with no extra cores to win it back (``parallel_slower`` flags it,
    exactly like :func:`benchmark_sweep`).  Full runs add a 16x16-mesh
    (256-node) SSSP point where the per-window work is large enough
    for region parallelism to matter on a multi-core host.
    """
    from repro.parallel.spacetime import (
        SpaceSpec,
        run_checksums,
        run_space,
    )

    cpu_count = os.cpu_count() or 1
    cases = {
        "sssp": SpaceSpec.make(
            "repro.parallel.spaceworkloads:build_sssp",
            {"n_vertices": 200 if smoke else 800, "regions": 2},
            label="space-sssp",
        ),
        "beam": SpaceSpec.make(
            "repro.parallel.spaceworkloads:build_beam",
            {"n_layers": 6, "lattice_width": 48, "regions": 2}
            if smoke
            else {"regions": 2},
            label="space-beam",
        ),
    }
    if not smoke:
        cases["sssp_256"] = SpaceSpec.make(
            "repro.parallel.spaceworkloads:build_sssp",
            {
                "n_vertices": 800,
                "n_nodes": 256,
                "width": 16,
                "height": 16,
                "regions": 4,
            },
            label="space-sssp-256",
        )

    report: Dict = {"cpu_count": cpu_count}
    for name, spec in cases.items():
        jobs = spec.build(0).space_regions
        walls = {}
        checks = {}
        transports = {}
        for j in (1, jobs):
            t0 = time.perf_counter()
            run = run_space(spec, jobs=j)
            walls[j] = time.perf_counter() - t0
            run.raise_if_error()
            checks[j] = run_checksums(run)
            transports[j] = run.transport
        if checks[1] != checks[jobs]:
            diffs = [k for k in checks[1] if checks[1][k] != checks[jobs][k]]
            raise AssertionError(
                f"space {name}: parallel run diverged from serial on {diffs}"
            )
        tr = transports[jobs]
        entry = {
            "regions": jobs,
            "jobs": jobs,
            "wall_serial_s": round(walls[1], 3),
            "wall_parallel_s": round(walls[jobs], 3),
            "speedup": round(walls[1] / walls[jobs], 2)
            if walls[jobs]
            else 0.0,
            "clock": checks[1]["clock"],
            "events": checks[1]["events"],
            "messages": checks[1]["messages"],
            "identical_output": True,
            # Driver metrics for the parallel run (see run.transport):
            # barrier_count/bytes/staged_messages are deterministic for
            # a given window; barrier_wall_s is the time the driver
            # spent inside window steps (sync + region work).
            "barrier_count": tr["barriers"],
            "barrier_wall_s": round(tr["barrier_wall_s"], 3),
            "transport_bytes": tr["bytes"],
            "staged_messages": tr["messages"],
        }
        if walls[jobs] > walls[1]:
            if cpu_count > 1:
                # Only meaningful with real cores to lose: on a
                # single-core runner "slower" is the expected outcome,
                # not a regression signal.
                entry["parallel_slower"] = True
            else:
                entry["note"] = (
                    "single-core runner: region workers pay spawn/IPC "
                    "overhead with no cores to win it back; only "
                    "bit-identity is gated"
                )
        report[name] = entry
    return report


def _scale_machine(n_nodes: int, requests: int, backing_pages: int):
    """Build the scale-workload machine: the *post-placement locality
    regime* on a torus.

    Each node's affine page is homed one node over (``affine_offset=1``,
    95% of accesses) with the remaining 5% zipfian celebrity traffic —
    the traffic shape the paper's placement policies exist to produce,
    so per-event simulator cost is comparable across machine sizes
    instead of being dominated by route length.  ``backing_pages`` cold
    mapped-but-untouched pages supply the million-page construction axis.
    """
    from repro.apps.placement import (
        PlacementApp,
        PlacementConfig,
        _install_policy,
    )
    from repro.core.params import PAPER_PARAMS

    cfg = PlacementConfig(
        policy="static",
        pages=min(256, 4 * n_nodes),
        requests=requests,
        affine_offset=1,
        affine_fraction=0.95,
        backing_pages=backing_pages,
        seed=0,
    )
    machine = PlusMachine(
        n_nodes=n_nodes, params=PAPER_PARAMS.evolved(topology="torus")
    )
    _install_policy(machine, cfg)
    app = PlacementApp(machine, cfg)
    app.spawn_workers()
    return machine, app


def benchmark_scale(smoke: bool = False) -> Dict:
    """The 1,024-node scale benchmark (tentpole acceptance numbers).

    Builds a 32x32 torus with ~100k (smoke) or ~1M (full) mapped pages,
    measures construction wall time, sustained events/sec on the scale
    workload, and peak process RSS, plus a 16-node run of the *same*
    workload as the like-for-like throughput reference.  Cycles and the
    read checksum double as behavioural fingerprints — the workload is
    deterministic, so any drift means simulated behaviour changed.
    """
    import resource

    n_nodes = 1024
    backing = 102_400 if smoke else 1_048_576
    requests = 60 if smoke else 200

    t0 = time.perf_counter()
    machine, app = _scale_machine(n_nodes, requests, backing)
    construct_s = time.perf_counter() - t0
    mapped = sum(node.memory.allocated_frames for node in machine.nodes)
    t0 = time.perf_counter()
    report = machine.run()
    run_s = time.perf_counter() - t0
    events = machine.engine.events_fired
    rate = events / run_s if run_s else 0.0

    # Like-for-like reference: the same workload shape on 16 nodes,
    # sized for steady state.
    ref_machine, _ = _scale_machine(16, 4000, 0)
    t0 = time.perf_counter()
    ref_machine.run()
    ref_s = time.perf_counter() - t0
    ref_rate = (
        ref_machine.engine.events_fired / ref_s if ref_s else 0.0
    )

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "smoke": smoke,
        "nodes": n_nodes,
        "topology": "torus",
        "mapped_pages": mapped,
        "construct_s": round(construct_s, 3),
        "run_s": round(run_s, 3),
        "events": events,
        "events_per_sec": round(rate),
        "events_per_sec_16node": round(ref_rate),
        "ratio_vs_16node": round(rate / ref_rate, 3) if ref_rate else 0.0,
        "cycles": machine.engine.now,
        "messages": report.fabric.total_messages,
        "mean_hops": round(report.fabric.mean_hops, 3),
        "checksum": app.checksum(),
        "ru_maxrss_mb": round(rss_mb, 1),
    }


def run_suite(
    smoke: bool = False,
    repeats: int = 3,
    jobs: int = 1,
    sweep_bench: bool = True,
    space_bench: bool = True,
    scale_bench: bool = True,
) -> Dict:
    if smoke:
        repeats = 1
    names = ("sssp", "beam")
    results = {"smoke": smoke}
    baseline = _smoke_baseline() if smoke else {}
    if jobs > 1:
        from repro.parallel import SweepTask, run_sweep

        tasks = [
            SweepTask.make(
                i,
                "bench_perf:bench_point",
                {"workload": name, "smoke": smoke, "repeats": repeats},
                label=name,
            )
            for i, name in enumerate(names)
        ]
        outcomes = run_sweep(tasks, jobs=jobs, label="bench")
        for tr in outcomes:
            if not tr.ok:
                raise AssertionError(f"benchmark failed: {tr.describe()}")
            results[tr.label] = tr.value
    else:
        for name in names:
            results[name] = bench_point(name, smoke=smoke, repeats=repeats)
    for name in names:
        if not smoke and name in FULL_CHECKSUMS:
            expected = FULL_CHECKSUMS[name]
            got = {k: results[name][k] for k in expected}
            if got != expected:
                raise AssertionError(
                    f"{name} behavioural checksum changed: "
                    f"expected {expected}, got {got}"
                )
        if smoke and name in baseline:
            expected = baseline[name]
            got = {k: results[name][k] for k in expected}
            if got != expected:
                raise AssertionError(
                    f"{name} smoke checksum drifted from BENCH_perf.json: "
                    f"expected {expected}, got {got} — if the behaviour "
                    "change is intended, regenerate with "
                    "`python benchmarks/bench_perf.py`"
                )
    if not smoke:
        # Record the smoke-sized checksums so CI's --smoke run can
        # verify behaviour without paying for the full workloads, and
        # the smoke-sized throughput (separate key — checksums stay
        # purely behavioural) so CI can also gate on events/sec.
        results["smoke_checksums"] = {}
        results["smoke_rates"] = {}
        for name in names:
            r = bench_point(name, smoke=True, repeats=3)
            results["smoke_checksums"][name] = {
                "cycles": r["cycles"],
                "messages": r["messages"],
            }
            results["smoke_rates"][name] = {
                "events": r["events"],
                "events_per_sec": r["events_per_sec"],
            }
        if sweep_bench:
            # Benchmark the sweep executor itself (acceptance metric for
            # the parallel fan-out); a single-core runner records an
            # honest ~1x speedup along with its cpu_count.
            results["sweep"] = benchmark_sweep()
    if space_bench:
        # Space-parallel identity (gated) and speedup (recorded) on
        # one partitioned machine — both workloads, both drivers.
        results["space"] = benchmark_space(smoke=smoke)
    if scale_bench:
        # The tentpole scale point: 1,024 nodes, ~1M (full) or ~100k
        # (smoke) mapped pages on a torus.
        results["scale"] = benchmark_scale(smoke=smoke)
        if not smoke:
            # Also record the smoke-sized scale point so CI can verify
            # behaviour and gate throughput without the 1M-page build.
            results["scale_smoke"] = benchmark_scale(smoke=True)
        else:
            try:
                committed = json.loads(BASELINE_PATH.read_text())
            except (OSError, ValueError):
                committed = {}
            expected = committed.get("scale_smoke")
            if expected:
                got = results["scale"]
                for key in (
                    "mapped_pages",
                    "events",
                    "cycles",
                    "messages",
                    "checksum",
                ):
                    if got[key] != expected[key]:
                        raise AssertionError(
                            f"scale smoke {key} drifted from "
                            f"BENCH_perf.json: expected {expected[key]}, "
                            f"got {got[key]} — if the behaviour change is "
                            "intended, regenerate with "
                            "`python benchmarks/bench_perf.py`"
                        )
    return results


def append_history(results: Dict, path: Path) -> None:
    """Append one timestamped JSON line so throughput trends across
    commits are greppable without spelunking git history."""
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "smoke": results["smoke"],
    }
    for name in ("sssp", "beam"):
        r = results[name]
        entry[name] = {
            k: r[k]
            for k in ("wall_s", "wall_p95_s", "repeats", "events_per_sec")
        }
    if "sweep" in results:
        entry["sweep"] = results["sweep"]
    if "space" in results:
        entry["space"] = results["space"]
    if "scale" in results:
        sc = results["scale"]
        entry["scale"] = {
            k: sc[k]
            for k in (
                "nodes",
                "mapped_pages",
                "construct_s",
                "run_s",
                "events_per_sec",
                "ratio_vs_16node",
                "ru_maxrss_mb",
            )
        }
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workloads, one repeat, no checksum enforcement",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_perf.json"),
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--history",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"
        ),
        help="timestamped JSONL trend log to append to",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats per workload (median reported, p95 recorded)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the workload matrix "
        "(default 1 = in-process; 0 = one per core)",
    )
    parser.add_argument(
        "--no-sweep-bench",
        action="store_true",
        help="skip the serial-vs-parallel executor benchmark on full runs",
    )
    parser.add_argument(
        "--no-space-bench",
        action="store_true",
        help="skip the space-parallel identity/speedup benchmark",
    )
    parser.add_argument(
        "--no-scale-bench",
        action="store_true",
        help="skip the 1,024-node scale benchmark",
    )
    parser.add_argument(
        "--gate-scale",
        action="store_true",
        help="fail the scale benchmark on budget overruns: construction "
        ">=10s, peak RSS >=1 GB, or events/sec more than 50% below the "
        "committed BENCH_perf.json scale rate",
    )
    parser.add_argument(
        "--gate-space",
        action="store_true",
        help="fail unless the space-parallel sssp point clears a 1.5x "
        "speedup over the serial driver; arms only on runners with "
        ">=2 CPUs (a single core has nothing to win)",
    )
    parser.add_argument(
        "--gate-rates",
        action="store_true",
        help="with --smoke: fail unless measured events/sec clears the "
        "committed BENCH_perf.json smoke_rates floor (the CI perf gate)",
    )
    parser.add_argument(
        "--gate-tolerance",
        type=float,
        default=0.25,
        help="fraction below the recorded smoke rate the gate allows "
        "(default 0.25 — absorbs runner-to-runner speed variance)",
    )
    args = parser.parse_args(argv)

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    results = run_suite(
        smoke=args.smoke,
        repeats=args.repeats,
        jobs=jobs,
        sweep_bench=not args.no_sweep_bench,
        space_bench=not args.no_space_bench,
        scale_bench=not args.no_scale_bench,
    )
    for name in ("sssp", "beam"):
        r = results[name]
        print(
            f"{name:>5}: {r['wall_s']:8.3f}s wall (p95 {r['wall_p95_s']:.3f}s "
            f"over {r['repeats']}), "
            f"{r['events']:>8} events, {r['events_per_sec']:>7} events/s, "
            f"{r['cycles']} cycles, {r['messages']} messages"
        )
    if "sweep" in results:
        s = results["sweep"]
        print(
            f"sweep: check --seeds {s['seeds']} --jobs {s['jobs']}: "
            f"{s['wall_parallel_s']}s vs {s['wall_serial_s']}s serial "
            f"({s['speedup']}x on {s['cpu_count']} core(s), "
            f"identical output: {s['identical_output']})"
        )
        if s.get("note"):
            print(f"       note: {s['note']}")
    if "space" in results:
        for name, e in results["space"].items():
            if name == "cpu_count":
                continue
            print(
                f"space: {name}: {e['regions']} regions: "
                f"{e['wall_parallel_s']}s vs {e['wall_serial_s']}s serial "
                f"({e['speedup']}x on {results['space']['cpu_count']} "
                f"core(s), bit-identical: {e['identical_output']})"
            )
            print(
                f"       {e['barrier_count']} barriers "
                f"({e['barrier_wall_s']}s), "
                f"{e['staged_messages']} staged messages, "
                f"{e['transport_bytes']} bytes"
            )
    if "scale" in results:
        sc = results["scale"]
        print(
            f"scale: {sc['nodes']} nodes ({sc['topology']}): "
            f"{sc['mapped_pages']} pages mapped in {sc['construct_s']}s, "
            f"{sc['events_per_sec']} events/s "
            f"({sc['ratio_vs_16node']}x the 16-node rate of "
            f"{sc['events_per_sec_16node']}), "
            f"mean hops {sc['mean_hops']}, "
            f"peak RSS {sc['ru_maxrss_mb']} MB"
        )
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {args.out}")
    append_history(results, Path(args.history))
    print(f"appended history to {args.history}")
    code = 0
    if args.gate_rates:
        code = _gate_rates(results, args.gate_tolerance)
    if args.gate_scale:
        code = _gate_scale(results) or code
    if args.gate_space:
        code = _gate_space(results) or code
    return code


def _gate_space(results: Dict, floor: float = 1.5) -> int:
    """CI space-parallel perf gate: the whole point of the shm
    transport is that region workers beat the serial driver when real
    cores exist, so on a multi-core runner the sssp point must clear
    ``floor`` speedup.  On a single-core runner the gate reports
    unarmed and passes — there, only bit-identity is meaningful.
    """
    space = results.get("space")
    if not space:
        print("gate: no space results; nothing to gate")
        return 0
    cpu_count = space.get("cpu_count", 1)
    if cpu_count < 2:
        print(
            "gate: space: single-core runner — speedup gate not armed "
            "(bit-identity already gated in the benchmark)"
        )
        return 0
    entry = space.get("sssp")
    if not entry:
        print("gate: space: no sssp point; nothing to gate")
        return 0
    got = entry["speedup"]
    verdict = "ok" if got >= floor else "FAIL"
    print(
        f"gate: space sssp: {got}x speedup over serial vs floor "
        f"{floor}x on {cpu_count} cores — {verdict}"
    )
    return 0 if got >= floor else 1


def _gate_rates(results: Dict, tolerance: float) -> int:
    """CI perf gate: measured events/sec vs the committed smoke rates.

    Compares this run's smoke-sized throughput against the
    ``smoke_rates`` recorded in the committed ``BENCH_perf.json``; a
    workload more than ``tolerance`` below the recorded rate fails.
    The tolerance absorbs runner-to-runner hardware variance — the gate
    exists to catch order-of-magnitude hot-path regressions, not 5%
    jitter.
    """
    try:
        committed = json.loads(BASELINE_PATH.read_text())
    except (OSError, ValueError):
        print("gate: no committed BENCH_perf.json; nothing to gate against")
        return 0
    recorded = committed.get("smoke_rates", {})
    if not recorded:
        print("gate: committed BENCH_perf.json has no smoke_rates; skipping")
        return 0
    failures = 0
    for name, rec in recorded.items():
        floor = rec["events_per_sec"] * (1.0 - tolerance)
        got = results.get(name, {}).get("events_per_sec")
        if got is None:
            continue
        verdict = "ok" if got >= floor else "FAIL"
        print(
            f"gate: {name}: {got} events/s vs floor {floor:.0f} "
            f"(recorded {rec['events_per_sec']}, "
            f"tolerance {tolerance:.0%}) — {verdict}"
        )
        if got < floor:
            failures += 1
    return 1 if failures else 0


def _gate_scale(results: Dict, tolerance: float = 0.5) -> int:
    """CI scale gate: budgets + throughput floor for the 1,024-node run.

    Two absolute budgets (the tentpole acceptance numbers with headroom
    for slow runners): construction of the ~100k/~1M-page machine must
    finish under 10 s, and peak process RSS must stay under 1 GB — the
    flyweight page directory keeps the full 1M-page machine around
    140 MB, so 1 GB only trips if per-page object costs come back.  The
    throughput floor compares events/sec against the rate committed in
    ``BENCH_perf.json`` (``scale_smoke`` for smoke runs, ``scale``
    otherwise) with a generous tolerance: the gate exists to catch a
    scaling collapse, not host jitter.
    """
    scale = results.get("scale")
    if scale is None:
        print("gate: no scale results; nothing to gate")
        return 0
    failures = 0

    budgets = (("construct_s", 10.0, "s"), ("ru_maxrss_mb", 1024.0, "MB"))
    for key, budget, unit in budgets:
        got = scale[key]
        verdict = "ok" if got < budget else "FAIL"
        print(f"gate: scale {key}: {got}{unit} vs budget {budget}{unit} — {verdict}")
        if got >= budget:
            failures += 1

    try:
        committed = json.loads(BASELINE_PATH.read_text())
    except (OSError, ValueError):
        committed = {}
    rec = committed.get("scale_smoke" if scale["smoke"] else "scale")
    if rec:
        floor = rec["events_per_sec"] * (1.0 - tolerance)
        got = scale["events_per_sec"]
        verdict = "ok" if got >= floor else "FAIL"
        print(
            f"gate: scale events/s: {got} vs floor {floor:.0f} "
            f"(recorded {rec['events_per_sec']}, "
            f"tolerance {tolerance:.0%}) — {verdict}"
        )
        if got < floor:
            failures += 1
    else:
        print("gate: no committed scale rate; skipping throughput floor")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# pytest entry points (smoke-sized: correctness of the harness, not speed)
# ----------------------------------------------------------------------
def test_perf_harness_smoke():
    # scale_bench off: the 1,024-node build belongs to the CI scale job
    # and the dedicated scale tests, not the quick harness check.
    results = run_suite(smoke=True, scale_bench=False)
    for name in ("sssp", "beam"):
        r = results[name]
        assert r["events"] > 0
        assert r["events_per_sec"] > 0
        assert r["cycles"] > 0
        assert r["messages"] > 0


def test_perf_workloads_are_deterministic():
    a = _run_sssp(200)
    b = _run_sssp(200)
    assert a.engine.now == b.engine.now
    assert a.fabric.stats.total_messages == b.fabric.stats.total_messages


if __name__ == "__main__":
    sys.exit(main())
