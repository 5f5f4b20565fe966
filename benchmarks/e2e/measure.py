"""The timed phase of one workload, run inside a benchmark child process.

``run`` sets the workload up, tells the parent it is ready, then
measures for ``--seconds`` and returns the metrics: the end-to-end ones
from an untraced run, or (``--trace 1``) the per-layer ones, where the
same ops run a second time under cProfile.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import workloads as wl
from layers import LayerProfile, Spans

#: Per-layer counts summed over the fixed ops and reported as they are.
PLAIN_COUNTS = (
    "sim.events", "network.messages", "network.update_msgs", "network.bytes",
    "network.drops", "network.dups", "network.retransmits", "network.recovered",
    "core.updates_applied", "core.masters_written", "core.writes_forwarded",
    "core.rmw_remote", "node.read_stall_cycles", "node.sync_stall_cycles",
    "node.spin_cycles", "memory.mapped_pages", "memory.materialized_frames",
    "check.violations",
)


@dataclass
class OpRecord:
    ok: bool
    cpu_s: float
    wall_s: float
    cycles: int
    messages: int
    checksum: Dict[str, int]
    detail: str
    counts: Dict[str, float] = field(default_factory=dict)


def run_ops(workload, spans: Spans, seconds: float = 0.0, count: Optional[int] = None,
            profile: Optional[LayerProfile] = None) -> List[OpRecord]:
    """Ops 0, 1, ... until the next would end past ``seconds`` (at least
    the workload's fixed ops), or exactly ``count`` ops."""
    records: List[OpRecord] = []
    start = time.perf_counter()
    last = 0.0
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i >= workload.fixed_ops and time.perf_counter() - start + last > seconds:
            break
        traced = profile.traced if profile else nullcontext
        with traced():
            workload.prepare(i, spans)  # untimed, but its layers are traced
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            with traced():
                out = workload.run_op(i, spans)
        except Exception as exc:  # noqa: BLE001 — a crashed op is a failed op
            out = wl.Outcome(False, detail=f"{type(exc).__name__}: {exc}")
        last = time.perf_counter() - w0
        cpu = time.process_time() - c0
        counts = out.counts() if profile is not None and i < workload.fixed_ops else {}
        records.append(OpRecord(out.ok, cpu, last, out.cycles, out.messages,
                                out.checksum, out.detail, counts))
        del out
        # Free this op's machine now, so the peak RSS is one op's, not
        # however many the cyclic collector happened to leave behind.
        gc.collect()
        i += 1
    return records


def checksum_notes(name: str, seed: int, fixed: List[OpRecord]) -> tuple:
    """Sum the fixed ops' checksums; on seed 0 compare with the reference."""
    got: Dict[str, int] = {"cycles": sum(r.cycles for r in fixed),
                           "messages": sum(r.messages for r in fixed)}
    for r in fixed:
        for key, value in r.checksum.items():
            got[key] = got.get(key, 0) + value
    ok = seed != 0 or got == wl.REFERENCE[name]
    note = f"checksum {json.dumps(got, sort_keys=True)}"
    if not ok:
        note += f" differs from reference {json.dumps(wl.REFERENCE[name], sort_keys=True)}"
    return ok, got, note


# A run whose ops all failed still reports numbers (and correct=false).
def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p95(values: List[float]) -> float:
    return statistics.quantiles(values, n=20)[-1] if len(values) > 1 else median(values)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(counts: Dict[str, float], cycles: int, untraced_cpu: float,
                  profile: LayerProfile, overhead: float) -> Dict[str, float]:
    """Per-layer metrics from summed counts and the cProfile pass."""
    m = dict(profile.metrics())
    for key in PLAIN_COUNTS:
        m[key] = counts.get(key, 0)
    m["sim.cycles"] = cycles
    m["sim.events_per_cpu_s"] = ratio(m["sim.events"], untraced_cpu)
    m["network.mean_hops"] = ratio(counts.get("network.hops", 0),
                                   counts.get("network.messages", 0))
    hits = counts.get("node.cache_hits", 0)
    m["node.cache_hit_ratio"] = ratio(hits, hits + counts.get("node.cache_misses", 0))
    m["node.utilization"] = ratio(counts.get("node.useful_cycles", 0),
                                  counts.get("node.capacity_cycles", 0))
    m["trace_overhead"] = overhead
    for key in ("server.cache_hits", "server.cache_misses", "server.coalesced",
                "server.dispatches", "server.dispatch_saved_ratio",
                "server.run_share", "server.hit_p50_ratio",
                "server.hit_p95_ratio", "server.coalesced_p50_ratio"):
        m.setdefault(key, 0)
    return m


def sum_counts(records: List[OpRecord]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for r in records:
        for key, value in r.counts.items():
            total[key] = total.get(key, 0) + value
    return total


def finish(metrics: Dict[str, float], names: set, **rest: Any) -> Dict[str, Any]:
    """Keep exactly the metrics ``BENCHMARK.json`` lists for this mode."""
    missing = names - metrics.keys()
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {"metrics": {k: metrics[k] for k in sorted(names)}, **rest}


def run(args, proto, names: set) -> Optional[Dict[str, Any]]:
    spans = Spans()
    try:
        if args.workload == "serve":
            return run_serve(args, proto, names, spans)
        workload = wl.IN_PROCESS[args.workload](args.seed, spans)
        proto.write('{"ready": true}\n')
        if args.child == "setup":
            return None
        return run_in_process(args, workload, names, spans)
    finally:
        if args.spans and args.child == "measure":
            spans.write(Path(args.spans))


def run_in_process(args, workload, names: set, spans: Spans) -> Dict[str, Any]:
    if not args.trace:
        records = run_ops(workload, spans, seconds=args.seconds)
    else:
        records = run_ops(workload, spans, seconds=args.seconds / 3)
        profile = LayerProfile()
        traced = run_ops(workload, spans, count=len(records), profile=profile)
        records_fixed = traced[: workload.fixed_ops]
    fixed = records[: workload.fixed_ops]
    checks_ok, got, note = checksum_notes(workload.name, args.seed, fixed)
    failed = sum(not r.ok for r in records)
    notes = [note] + [f"op failed: {r.detail}" for r in records if not r.ok][:5]
    good = [r for r in records if r.ok]
    common = dict(correct=checks_ok and failed == 0, attempted=len(records),
                  failed=failed, notes=notes)
    if args.trace:
        overhead = ratio(sum(r.cpu_s for r in traced), sum(r.cpu_s for r in records))
        metrics = layer_metrics(sum_counts(records_fixed), got["cycles"],
                                sum(r.cpu_s for r in fixed), profile, overhead)
        return finish(metrics, names, samples={}, **common)
    walls = [r.wall_s for r in good]
    cpu_per_msg = [r.cpu_s / r.messages * 1e6 for r in good if r.messages]
    if len(walls) >= 200:
        notes.append(f"op_p95_ms {p95(walls) * 1000:.6g} "
                     f"cpu_us_per_msg_p95 {p95(cpu_per_msg):.6g} (n={len(walls)})")
    metrics = {
        "ops_per_s": ratio(len(good), sum(r.wall_s for r in records)),
        "op_p50_ms": median(walls) * 1000,
        "cpu_us_per_msg": median(cpu_per_msg),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"ops_per_s": len(records), "op_p50_ms": len(walls),
               "cpu_us_per_msg": len(cpu_per_msg), "peak_rss_mb": 1}
    return finish(metrics, names - {"setup_s"}, samples=samples, **common)


def run_serve(args, proto, names: set, spans: Spans) -> Optional[Dict[str, Any]]:
    serve = wl.Serve(args.seed)
    try:
        proto.write('{"ready": true}\n')
        if args.child == "setup":
            return None
        raw = serve.measure(args.seconds)
    finally:
        serve.close()
    requests = [r for client in raw["records"] for r in client]
    by_kind: Dict[str, List[float]] = {"hit": [], "miss": [], "coalesced": [], "failed": []}
    for r in requests:
        by_kind[r.kind].append(r.latency_ms)
    failed = len(by_kind["failed"])
    notes = [f"op failed: {r.result}" for r in requests if r.kind == "failed"][:5]

    # The served payloads must equal check_point computed here.
    keys = wl.Serve.verify_keys(raw["records"])
    direct_cpu = 0.0
    fixed: List[OpRecord] = []
    for j, (key, served) in enumerate(keys):
        c0 = time.process_time()
        direct = wl.recompute(key, spans, j)
        direct_cpu += time.process_time() - c0
        ok = json.dumps(served, sort_keys=True) == json.dumps(direct, sort_keys=True)
        if not ok:
            failed += 1
            notes.append(f"served payload for seed {key} differs from check_point")
        fixed.append(OpRecord(ok, 0.0, 0.0, direct["cycles"], direct["messages"], {}, "",
                              wl.stress_counts(direct, 0 if direct["ok"] else 1)))
    checks_ok, got, note = checksum_notes("serve", args.seed, fixed)
    notes.insert(0, note)
    misses = [r for r in requests if r.kind == "miss"]
    notes.append(f"hits {len(by_kind['hit'])} misses {len(misses)} "
                 f"coalesced {len(by_kind['coalesced'])} failed {len(by_kind['failed'])}; "
                 f"miss_p95_ms {p95(by_kind['miss']):.6g} (n={len(misses)})")
    common = dict(correct=checks_ok and failed == 0, attempted=len(requests),
                  failed=failed, notes=notes)
    miss_p50 = median(by_kind["miss"])
    if args.trace:
        profile = LayerProfile()
        for j, (key, _served) in enumerate(keys):
            with profile.traced():
                wl.recompute(key, spans, len(keys) + j)
        metrics = layer_metrics(sum_counts(fixed), got["cycles"], direct_cpu,
                                profile, ratio(profile.cpu_s, direct_cpu))
        stats = raw["stats"]
        total_ms = sum(r.timing.get("total_ms", 0) for r in misses)
        metrics.update({
            "server.cache_hits": stats.get("cache_hits", 0),
            "server.cache_misses": stats.get("cache_misses", 0),
            "server.coalesced": stats.get("coalesced", 0),
            "server.dispatches": stats.get("dispatches", 0),
            "server.dispatch_saved_ratio": 1 - ratio(stats.get("dispatches", 0),
                                                     len(requests)),
            "server.run_share": ratio(sum(r.timing.get("run_ms", 0) for r in misses),
                                      total_ms),
            "server.hit_p50_ratio": ratio(median(by_kind["hit"]), miss_p50),
            "server.hit_p95_ratio": ratio(p95(by_kind["hit"]), miss_p50),
            "server.coalesced_p50_ratio": ratio(median(by_kind["coalesced"]), miss_p50),
        })
        return finish(metrics, names, samples={}, **common)
    ok_requests = len(requests) - len(by_kind["failed"])
    miss_messages = sum(r.result["messages"] for r in misses)
    metrics = {
        "ops_per_s": ratio(ok_requests, raw["wall_s"]),
        "op_p50_ms": miss_p50,
        "cpu_us_per_msg": ratio(raw["cpu_s"], miss_messages) * 1e6,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    samples = {"ops_per_s": len(requests), "op_p50_ms": len(misses),
               "cpu_us_per_msg": len(misses), "peak_rss_mb": 1}
    return finish(metrics, names - {"setup_s"}, samples=samples, **common)
