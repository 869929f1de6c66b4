"""Seeded evaluation harness: deterministic instance generation, the three
existing/new request mixes, and the online-versus-deploy-from-scratch
comparison with CSV/JSON reports.

The network is a full logical mesh. Link costs are drawn uniformly from the
0.09..0.115 money-per-unit band (as integer micro-money), link delays from
4..50 ms, request delay budgets from 1800..2000 ms, chain lengths from 1..3.
Moving one VNF transfers 44 traffic units (disk plus memory of its VM), so
a migration is priced at 44 times the connecting link's unit cost.

The current snapshot is bootstrapped: the existing requests are placed
offline against an empty network, and that deployment and those routes
become the snapshot the full instance must reconfigure.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace

from .costs import CostBreakdown, service_delay
from .errors import BootstrapInfeasibleError, IndexMismatchError
from .io import breakdown_to_document
from .model import (
    DeploymentDelta,
    EMPTY_SNAPSHOT,
    Network,
    ProblemInstance,
    ServiceRequest,
    Snapshot,
    STATUS_EXISTING,
    STATUS_NEW,
    VnfCatalog,
    VnfType,
    snapshot_diff,
)
from .solver import (
    STATUS_OPTIMAL,
    SolveOptions,
    SolveStats,
    solve_exact,
)

DEFAULT_SEED = 3

FULL_SCENARIOS = {1: (2, 4), 2: (3, 3), 3: (4, 2)}
REDUCED_SCENARIOS = {1: (1, 3), 2: (2, 2), 3: (3, 1)}
REDUCED_SERVERS = 4
REDUCED_USER_GROUPS = 4

CSV_HEADER = (
    "format_version,scenario,seed,case,total_micro,hosting_micro,"
    "instantiation_micro,routing_micro,migration_micro,migration_count,"
    "mean_delay_us,wall_time_s"
)


# generator parameters that must be at least 1; the others at least 0
_AT_LEAST_ONE = {"vnf_types", "server_capacity", "candidates_per_request", "chain_length_range"}


def _check_int(name: str, value, low: int) -> None:
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


@dataclass(frozen=True)
class ScenarioParams:
    """Tunable generator knobs, preset to the standard benchmark values.

    ``vnf_capacity`` has no standard benchmark value; 10 traffic units (the link
    bandwidth) keeps it non-binding at unit traffic, which preserves the
    instance-reuse behaviour the evaluation studies.
    """

    bandwidth: int = 10
    link_cost_range: tuple[int, int] = (90_000, 115_000)
    link_delay_ms_range: tuple[int, int] = (4, 50)
    delay_budget_ms_range: tuple[int, int] = (1800, 2000)
    chain_length_range: tuple[int, int] = (1, 3)
    vnf_types: int = 3
    license_cost: int = 100_000_000
    resource_req: int = 2
    vnf_capacity: int = 10
    processing_delay_us: int = 20_000
    server_capacity: int = 8
    server_unit_cost: int = 5_000_000
    traffic: int = 1
    usage_threshold: float = 1.0
    candidates_per_request: int = 3
    migration_traffic: int = 44

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            low = 1 if f.name in _AT_LEAST_ONE else 0
            if f.name == "usage_threshold":
                if type(value) not in (int, float) or not 0 < value <= 1:
                    raise ValueError(f"usage_threshold must be a number in (0, 1], got {value!r}")
            elif isinstance(f.default, tuple):
                if not (isinstance(value, tuple) and len(value) == 2):
                    raise ValueError(f"{f.name} must be a pair [low, high], got {value!r}")
                _check_int(f.name, value[0], low)
                _check_int(f.name, value[1], value[0])
            else:
                _check_int(f.name, value, low)
        if self.chain_length_range[0] > self.vnf_types:
            raise ValueError("chain_length_range cannot start above vnf_types")


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = DEFAULT_SEED
    n_servers: int = 6
    n_user_groups: int = 6
    existing_requests: int = 2
    new_requests: int = 4
    scenario_id: int | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_int("n_servers", self.n_servers, 1)
        _check_int("n_user_groups", self.n_user_groups, 1)
        _check_int("existing_requests", self.existing_requests, 0)
        _check_int("new_requests", self.new_requests, 0)
        if self.existing_requests + self.new_requests < 1:
            raise ValueError("at least one service request is required")
        self.params()  # builds, and so checks, the generator parameters

    def params(self) -> ScenarioParams:
        known = {f.name for f in fields(ScenarioParams)}
        bad = set(self.overrides) - known
        if bad:
            raise ValueError(f"unknown parameter overrides: {sorted(bad)}")
        cleaned = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in self.overrides.items()
        }
        return replace(ScenarioParams(), **cleaned)

    @classmethod
    def table_row(
        cls,
        scenario_id: int,
        seed: int = DEFAULT_SEED,
        reduced: bool = False,
        overrides: dict | None = None,
    ) -> "ScenarioSpec":
        table = REDUCED_SCENARIOS if reduced else FULL_SCENARIOS
        if scenario_id not in table:
            valid = ", ".join(str(k) for k in table)
            raise ValueError(f"unknown scenario id {scenario_id!r}; valid ids are {valid}")
        existing, new = table[scenario_id]
        return cls(
            seed=seed,
            n_servers=REDUCED_SERVERS if reduced else 6,
            n_user_groups=REDUCED_USER_GROUPS if reduced else 6,
            existing_requests=existing,
            new_requests=new,
            scenario_id=scenario_id,
            overrides=overrides or {},
        )


# The generator's per-type tables are read-only views over the network, so
# every type of an instance shares them and they store nothing per server.


class _ProcessingDelays(Mapping):
    """Every server of ``network`` processes in ``delay``."""

    def __init__(self, network: Network, delay: int):
        self._network = network
        self._delay = delay

    def __getitem__(self, server) -> int:
        if server not in self._network.servers:
            raise KeyError(server)
        return self._delay

    def __iter__(self):
        return iter(self._network.servers)

    def __len__(self) -> int:
        return len(self._network.servers)


class _MigrationPrices(Mapping):
    """Moving an instance from server ``s`` to server ``d`` sends ``traffic``
    units over their link, so it costs ``traffic`` times the link's unit
    cost, 0 when ``s == d``."""

    def __init__(self, network: Network, traffic: int):
        self._network = network
        self._traffic = traffic

    def __getitem__(self, pair) -> int:
        net = self._network
        try:
            s, d = pair
            a, b = net.position(s), net.position(d)
        except (TypeError, ValueError, IndexMismatchError):
            raise KeyError(pair) from None
        if max(a, b) >= len(net.servers):
            raise KeyError(pair)
        return self._traffic * net.link_cost[a][b]

    def __iter__(self):
        servers = self._network.servers
        return ((s, d) for s in servers for d in servers)

    def __len__(self) -> int:
        return len(self._network.servers) ** 2


def generate(spec: ScenarioSpec) -> ProblemInstance:
    """Deterministic instance for a spec: same seed, same bytes.

    All random draws happen before the bootstrap solve, so the drawn data
    never depends on solver behaviour.
    """
    params = spec.params()
    rng = random.Random(spec.seed)

    # names repeat across generated instances; interned, they share one
    # string each
    servers = tuple(sys.intern(f"s{j}") for j in range(spec.n_servers))
    users = tuple(sys.intern(f"u{j}") for j in range(spec.n_user_groups))
    nodes = servers + users
    n = len(nodes)

    cost = [[0] * n for _ in range(n)]
    delay = [[0] * n for _ in range(n)]
    band = [[0] * n for _ in range(n)]
    lo_c, hi_c = params.link_cost_range
    lo_d, hi_d = params.link_delay_ms_range
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.randint(lo_c, hi_c)
            d = rng.randint(lo_d, hi_d) * 1000
            cost[i][j] = cost[j][i] = c
            delay[i][j] = delay[j][i] = d
            band[i][j] = band[j][i] = params.bandwidth

    network = Network(
        servers=servers,
        users=users,
        bandwidth=band,
        link_cost=cost,
        link_delay=delay,
        server_capacity={s: params.server_capacity for s in servers},
        server_unit_cost={s: params.server_unit_cost for s in servers},
    )

    type_names = tuple(sys.intern(f"k{j}") for j in range(params.vnf_types))
    total_requests = spec.existing_requests + spec.new_requests
    lo_len, hi_len = params.chain_length_range
    hi_len = min(hi_len, params.vnf_types)
    lo_b, hi_b = params.delay_budget_ms_range
    n_candidates = min(params.candidates_per_request, spec.n_servers)

    drawn = []
    for idx in range(total_requests):
        length = rng.randint(lo_len, hi_len)
        chain = tuple(sorted(rng.sample(range(params.vnf_types), length)))
        budget = rng.randint(lo_b, hi_b) * 1000
        candidates = tuple(sorted(rng.sample(range(spec.n_servers), n_candidates)))
        drawn.append(
            ServiceRequest(
                id=sys.intern(f"r{idx}"),
                user=users[idx % len(users)],
                chain=tuple(type_names[t] for t in chain),
                traffic=params.traffic,
                delay_budget=budget,
                candidate_servers=tuple(servers[c] for c in candidates),
                status=STATUS_NEW,
            )
        )

    pool_size = {
        k: sum(1 for r in drawn if k in r.chain) for k in type_names
    }
    # every type moves the same traffic and takes the same processing
    # time, so one table of each serves them all
    migration_cost = _MigrationPrices(network, params.migration_traffic)
    processing_delay = _ProcessingDelays(network, params.processing_delay_us)
    types = tuple(
        VnfType(
            name=k,
            license_cost=params.license_cost,
            capacity=params.vnf_capacity,
            resource_req=params.resource_req,
            instances=tuple(range(pool_size[k])),
            processing_delay=processing_delay,
            migration_cost=migration_cost,
        )
        for k in type_names
    )
    catalog = VnfCatalog(types)

    snapshot = EMPTY_SNAPSHOT
    requests = list(drawn)
    if spec.existing_requests:
        bootstrap = ProblemInstance(
            network=network,
            catalog=catalog,
            requests=tuple(drawn[: spec.existing_requests]),
            snapshot=EMPTY_SNAPSHOT,
            usage_threshold=params.usage_threshold,
        )
        placed = solve_exact(bootstrap, SolveOptions(time_limit=10**9))
        if placed.status != STATUS_OPTIMAL:
            raise BootstrapInfeasibleError(
                f"offline placement of the existing requests is {placed.status} "
                f"(seed {spec.seed})"
            )
        snapshot = Snapshot(placed.plan.deployment)
        for idx in range(spec.existing_requests):
            requests[idx] = replace(
                drawn[idx],
                status=STATUS_EXISTING,
                current_route=placed.plan.routes[drawn[idx].id],
            )

    return ProblemInstance(
        network=network,
        catalog=catalog,
        requests=tuple(requests),
        snapshot=snapshot,
        usage_threshold=params.usage_threshold,
    )


@dataclass(frozen=True)
class CaseResult:
    label: str
    status: str
    breakdown: CostBreakdown
    delta: DeploymentDelta
    migration_count: int
    delays: dict[str, int]
    stats: SolveStats


@dataclass(frozen=True)
class ComparisonReport:
    spec: ScenarioSpec
    online: CaseResult
    no_reuse: CaseResult
    gap_micro: int


def _case(instance: ProblemInstance, label: str, result) -> CaseResult:
    delta = snapshot_diff(instance.snapshot, result.plan)
    return CaseResult(
        label=label,
        status=result.status,
        breakdown=result.breakdown,
        delta=delta,
        migration_count=len(delta.migrated),
        delays={
            r.id: service_delay(instance, result.plan, r.id)
            for r in instance.requests
        },
        stats=result.stats,
    )


def run_comparison(
    spec: ScenarioSpec,
    options: SolveOptions | None = None,
    license_refunds: bool = False,
) -> ComparisonReport:
    """Solve the same generated instance twice: once reusing deployed VNFs
    freely, once forbidding new requests from touching them.

    Both cases price instantiations clamped at zero (no license refund for
    removals). Under refund accounting the deploy-from-scratch case can
    always drop a current instance and recreate it under a fresh identifier
    at net zero, which collapses the comparison; clamping makes the reuse
    advantage measurable. Pass ``license_refunds=True`` for the literal
    delta accounting.
    """
    options = options or SolveOptions()
    options = replace(options, clamp_instantiation=not license_refunds)
    instance = generate(spec)

    online = solve_exact(instance, replace(options, no_reuse=False))
    scratch = solve_exact(instance, replace(options, no_reuse=True))
    for label, result in (("online", online), ("no_reuse", scratch)):
        if result.plan is None:
            raise BootstrapInfeasibleError(
                f"{label} case is {result.status} for seed {spec.seed}"
            )

    return ComparisonReport(
        spec=spec,
        online=_case(instance, "online", online),
        no_reuse=_case(instance, "no_reuse", scratch),
        gap_micro=scratch.breakdown.total - online.breakdown.total,
    )


def _csv_row(report: ComparisonReport, case: CaseResult, include_timing: bool) -> str:
    delays = list(case.delays.values())
    mean_delay = f"{sum(delays) / len(delays):.3f}" if delays else "0"
    wall = f"{case.stats.wall_time:.3f}" if include_timing else "0.000"
    scenario = "" if report.spec.scenario_id is None else str(report.spec.scenario_id)
    b = case.breakdown
    return ",".join(
        [
            "1",
            scenario,
            str(report.spec.seed),
            case.label,
            str(b.total),
            str(b.hosting_delta),
            str(b.instantiation),
            str(b.routing_delta),
            str(b.migration),
            str(case.migration_count),
            mean_delay,
            wall,
        ]
    )


def reports_to_csv(reports: list[ComparisonReport], include_timing: bool = False) -> str:
    lines = [CSV_HEADER]
    for report in reports:
        lines.append(_csv_row(report, report.online, include_timing))
        lines.append(_csv_row(report, report.no_reuse, include_timing))
    return "\n".join(lines) + "\n"


def _case_document(case: CaseResult, include_timing: bool) -> dict:
    return {
        "status": case.status,
        "breakdown": breakdown_to_document(case.breakdown),
        "delta_counts": {
            "reused": len(case.delta.reused),
            "migrated": len(case.delta.migrated),
            "instantiated": len(case.delta.instantiated),
            "removed": len(case.delta.removed),
        },
        "migration_count": case.migration_count,
        "delays_us": dict(sorted(case.delays.items())),
        "stats": {
            "nodes": case.stats.nodes,
            "incumbent_updates": case.stats.incumbent_updates,
            "wall_time_s": round(case.stats.wall_time, 3) if include_timing else 0.0,
        },
    }


def report_to_document(report: ComparisonReport, include_timing: bool = False) -> dict:
    return {
        "format_version": "1",
        "scenario": report.spec.scenario_id,
        "seed": report.spec.seed,
        "existing_requests": report.spec.existing_requests,
        "new_requests": report.spec.new_requests,
        "online": _case_document(report.online, include_timing),
        "no_reuse": _case_document(report.no_reuse, include_timing),
        "gap_micro": report.gap_micro,
    }


def emit_report(
    report: ComparisonReport, format: str = "csv", include_timing: bool = False
) -> str:
    """Render one comparison as CSV (two data rows) or canonical JSON."""
    if format == "csv":
        return reports_to_csv([report], include_timing)
    if format == "json":
        from .io import dumps

        return dumps(report_to_document(report, include_timing))
    raise ValueError(f"unknown report format {format!r}")
