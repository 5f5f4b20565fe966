"""Human-readable machine summaries for debugging and reports.

``machine_summary(machine)`` renders the topology, the shared-memory
map (every segment with its home and copy-list), and per-node resource
usage — the view an operator would want before filing a bug about a
placement decision.
"""

from __future__ import annotations

from typing import List

from repro.stats.report import format_table


def memory_map(machine) -> str:
    """The shared-memory map: one row per allocated segment."""
    rows: List[List[object]] = []
    for segment in machine.shm.segments:
        chains = []
        for vpage in segment.vpages:
            chain = [c.node for c in machine.os.copies_of(vpage)]
            chains.append("->".join(str(n) for n in chain))
        rows.append(
            [
                segment.name,
                f"0x{segment.base:06x}",
                segment.nwords,
                len(segment.vpages),
                segment.home,
                "; ".join(sorted(set(chains))),
            ]
        )
    return format_table(
        ["segment", "base", "words", "pages", "home", "copy-lists"],
        rows,
        title="shared-memory map",
    )


def node_summary(machine) -> str:
    """Per-node resource usage (frames, cache, TLB, protocol state)."""
    rows: List[List[object]] = []
    for node in machine.nodes:
        rows.append(
            [
                node.node_id,
                machine.mesh.coord(node.node_id),
                node.memory.allocated_frames,
                f"{node.cache.hit_rate:.2f}",
                node.page_table.tlb.hits,
                node.page_table.tlb.misses,
                len(node.cm.pending),
                node.cm.delayed.in_flight,
            ]
        )
    return format_table(
        [
            "node",
            "xy",
            "frames",
            "cache hit",
            "tlb hits",
            "tlb miss",
            "pending wr",
            "ops in flight",
        ],
        rows,
        title="nodes",
    )


def machine_summary(machine) -> str:
    """Topology + memory map + per-node state, as one printable block."""
    mesh = machine.mesh
    header = (
        f"PLUS machine: {machine.n_nodes} nodes on a "
        f"{mesh.width}x{mesh.height} mesh, "
        f"{machine.params.page_words * 4 // 1024} KB pages, "
        f"protocol={machine.params.coherence_protocol}, "
        f"cycle={machine.params.cycle_ns} ns"
    )
    return "\n\n".join([header, memory_map(machine), node_summary(machine)])
