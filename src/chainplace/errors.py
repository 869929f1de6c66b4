"""Exception types shared across the toolkit."""


class ChainplaceError(Exception):
    """Base class for all toolkit errors."""


class IndexMismatchError(ChainplaceError):
    """A plan references a request, node, VNF type or instance the problem
    instance does not declare."""


class UnassignedChainError(ChainplaceError):
    """A per-request delay was asked for while the request's chain is not
    assigned exactly one instance per required type."""


class ValidationFailedError(ChainplaceError):
    """An operation that requires a valid instance received an invalid one.

    Carries the offending validation report on ``.report``.
    """

    def __init__(self, report):
        self.report = report
        codes = ", ".join(v.code for v in report.violations[:5])
        super().__init__(f"instance failed validation: {codes}")


class AliasCollisionError(ChainplaceError):
    """Two variables of a compiled program would share one interchange
    alias (``ilp.sanitize_name`` turns ``[`` into ``_`` and drops ``]``), so
    MPS/LP text could not tell them apart. Ids whose underscores line up
    with the brackets of another name cause it."""


class SolutionImportError(ChainplaceError):
    """Base class for errors while importing an external solver solution."""


class MissingVariableError(SolutionImportError):
    """A required decision variable is absent from the imported values."""


class NonBinaryValueError(SolutionImportError):
    """An imported value is not within tolerance of 0 or 1."""


class AuxiliaryInconsistentError(SolutionImportError):
    """An imported auxiliary (product) variable disagrees with the product of
    its defining binaries; the file is stale or the solver misbehaved."""


class TooLargeError(ChainplaceError):
    """The instance's decision space exceeds the brute-force enumeration cap."""


class BootstrapInfeasibleError(ChainplaceError):
    """The offline bootstrap placement of the existing requests is infeasible
    for the drawn scenario; reseed or override parameters."""


class TimeLimitError(ChainplaceError):
    """A comparison case stopped at its time limit before it found any
    plan; raise the limit to get one."""
