"""Spans recorded from outside chainplace, around calls into its modules.

Each public function is wrapped at the module attribute its caller looks it
up through (``scenario.solve_exact`` is the name ``run_comparison`` calls,
``cli.build_ilp`` the name ``cli.main`` calls), so no file of the program
changes. A span holds a name, start, end, the index of its parent span and
the operation it belongs to; spans stay in memory until the run writes them.
Times are CPU seconds of the process (``time.process_time``), like the
benchmark's ``pass_s``.

Two wrappers are always on, also with tracing off: ``scenario.generate`` and
``scenario.solve_exact``. The correctness gate reads the solve results from
their spans, and a solve's parent tells a bootstrap solve from a table case.
That costs one span per generate or solve, against solves of 0.01 s and more.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

OFF, CORE, ALL = "off", "core", "all"


@dataclass
class Span:
    name: str
    op: str | None
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    args: tuple = ()
    result: object = None  # kept on core spans only, for the correctness gate

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_document(self) -> dict:
        return {
            "name": self.name,
            "op": self.op,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans while ``mode`` is ``core`` (gate probes only) or
    ``all`` (every probe); records nothing while ``off``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.mode = OFF
        self.op: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, name: str, core: bool = False, describe=None):
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def probe(*args, **kwargs):
            if tracer.mode == OFF or (tracer.mode == CORE and not core):
                return original(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, tracer.op, stack[-1] if stack else None)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.process_time()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.process_time()
                stack.pop()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            if core:
                span.args, span.result = args, result
            return result

        setattr(module, attr, probe)
        self._patches.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _solve_attrs(args, kwargs, result) -> dict:
    options = args[1] if len(args) > 1 else kwargs.get("options")
    return {
        "no_reuse": bool(options and options.no_reuse),
        "status": result.status,
        "nodes": result.stats.nodes,
        "incumbent_updates": result.stats.incumbent_updates,
        "gap_micro": result.stats.gap,
    }


def _model_attrs(args, kwargs, model) -> dict:
    return {"vars": len(model.variables), "rows": len(model.rows)}


def _text_attrs(args, kwargs, text) -> dict:
    return {"bytes": len(text.encode())}


def install(tracer: Tracer) -> None:
    """Wrap every public function the benchmark's operations reach, under
    the name of the module attribute it is looked up through."""
    from chainplace import cli, costs, ilp, io, model, scenario, solver

    probes = [
        (scenario, "generate", True, None),
        (scenario, "solve_exact", True, _solve_attrs),
        (scenario, "run_comparison", False, None),
        (scenario, "report_to_document", False, None),
        (scenario, "snapshot_diff", False, None),
        (scenario, "service_delay", False, None),
        (solver, "validate_instance", False, None),
        (solver, "enumerate_variables", False, None),
        (solver, "plan_vector", False, None),
        (costs, "total_objective", False, None),
        (model, "check_feasibility", False, None),
        (ilp, "validate_instance", False, None),
        (ilp, "enumerate_variables", False, None),
        (ilp, "build_ilp", False, _model_attrs),
        (ilp, "import_solution", False, None),
        (cli, "main", False, None),
        (cli, "validate_instance", False, None),
        (cli, "build_ilp", False, _model_attrs),
        (cli, "export_mps", False, _text_attrs),
        (cli, "export_lp", False, _text_attrs),
        (io, "document_to_instance", False, None),
        (io, "instance_to_document", False, None),
        (io, "dumps", False, _text_attrs),
    ]
    for module, attr, core, describe in probes:
        short = module.__name__.rsplit(".", 1)[-1]
        tracer.wrap(module, attr, f"{short}.{attr}", core=core, describe=describe)
