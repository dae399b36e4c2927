"""Exception types shared across the solver pipeline."""


class SolverError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SolverError):
    """Malformed instance or certificate file."""


class InfeasibleInput(SolverError):
    """Input that the solver does not accept (an edge that is not a pair of
    integer labels, loops, repeated edges, or a vertex count exceeding the
    host clique)."""


class InternalInfeasible(SolverError):
    """The pipeline reached a state it cannot handle.  Any instance of this
    is a bug or a broken invariant, never a property of the input."""


class InvariantViolation(InternalInfeasible):
    """A structural check failed mid-pipeline."""


class SearchExhausted(InternalInfeasible):
    """A backtracking search ran out of states without finding a solution
    that is guaranteed to exist."""


class BudgetExceeded(SolverError):
    """An explicit node budget ran out before the search finished."""


class PreconditionViolation(SolverError):
    """An operation was called with arguments outside its contract."""


class NotLinearForest(PreconditionViolation):
    """Edge set has a vertex of degree above two or contains a cycle."""
