"""Online placement and chaining of VNF forwarding graphs for CDN
value-added services: exact reconfiguration-cost optimization, an explicit
binary-program compiler with MPS/LP export, and a seeded evaluation
harness."""

from .costs import CostBreakdown, total_objective, service_delay
from .ilp import BuildOptions, IlpModel, build_ilp, export_lp, export_mps, import_solution
from .model import (
    DeploymentDelta,
    Network,
    PlacementPlan,
    ProblemInstance,
    Report,
    ServiceRequest,
    Snapshot,
    Violation,
    VnfCatalog,
    VnfType,
    check_feasibility,
    snapshot_diff,
    validate_instance,
)
from .scenario import ScenarioSpec, generate, run_comparison, emit_report
from .solver import SolveOptions, SolveResult, brute_force, derive_routes, solve_exact

__version__ = "0.1.0"

__all__ = [
    "BuildOptions",
    "CostBreakdown",
    "DeploymentDelta",
    "IlpModel",
    "Network",
    "PlacementPlan",
    "ProblemInstance",
    "Report",
    "ScenarioSpec",
    "ServiceRequest",
    "Snapshot",
    "SolveOptions",
    "SolveResult",
    "Violation",
    "VnfCatalog",
    "VnfType",
    "brute_force",
    "build_ilp",
    "check_feasibility",
    "derive_routes",
    "emit_report",
    "export_lp",
    "export_mps",
    "generate",
    "import_solution",
    "run_comparison",
    "service_delay",
    "snapshot_diff",
    "solve_exact",
    "total_objective",
    "validate_instance",
]
