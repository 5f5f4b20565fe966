"""Evaluation applications: shortest path, beam search, production
system, and the crash-recovery 2PC bank ledger."""

from repro import _lazy

__all__ = [
    "BeamConfig",
    "BeamResult",
    "BeamSearchApp",
    "Graph",
    "Lattice",
    "LedgerApp",
    "LedgerConfig",
    "LedgerResult",
    "ProdSysApp",
    "ProductionSystem",
    "Rule",
    "SSSPApp",
    "SSSPConfig",
    "SSSPResult",
    "StencilApp",
    "StencilConfig",
    "StencilResult",
    "beam_search_reference",
    "derive_crashes",
    "dijkstra",
    "geometric_graph",
    "initial_costs",
    "layered_lattice",
    "random_production_system",
    "run_beam",
    "run_ledger",
    "run_ledger_sweep",
    "run_prodsys",
    "run_reference",
    "run_sssp",
    "run_stencil",
    "stencil_reference",
    "verify_ledger",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "beam": ["BeamConfig", "BeamResult", "BeamSearchApp", "run_beam"],
    "ledger": [
        "LedgerApp", "LedgerConfig", "LedgerResult", "derive_crashes",
        "run_ledger", "run_ledger_sweep", "verify_ledger",
    ],
    "graphs": [
        "Graph", "Lattice", "beam_search_reference", "dijkstra",
        "geometric_graph", "initial_costs", "layered_lattice",
    ],
    "prodsys": [
        "ProductionSystem", "ProdSysApp", "Rule", "random_production_system",
        "run_prodsys", "run_reference",
    ],
    "sssp": ["SSSPApp", "SSSPConfig", "SSSPResult", "run_sssp"],
    "stencil": [
        "StencilApp", "StencilConfig", "StencilResult", "run_stencil",
        "stencil_reference",
    ],
})
