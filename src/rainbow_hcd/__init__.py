"""Rainbow Hamiltonian cycle decompositions of complete graphs.

Given a graph with n edges, build a decomposition of K_{2n+1} into n
Hamiltonian cycles in which the graph appears with every edge in a
different cycle, and emit a certificate that can be re-verified from
scratch.
"""

from .errors import (
    BudgetExceeded,
    InfeasibleInput,
    InternalInfeasible,
    InvariantViolation,
    NotLinearForest,
    ParseError,
    PreconditionViolation,
    SearchExhausted,
    SolverError,
)
from .graph_core import (
    Decomposition,
    RainbowCertificate,
    VerificationReport,
    analyze_linear_forest,
    edge,
    is_hamiltonian_cycle,
    verify_certificate,
    walecki,
)
from .solver import solve

__all__ = [
    "BudgetExceeded",
    "Decomposition",
    "InfeasibleInput",
    "InternalInfeasible",
    "InvariantViolation",
    "NotLinearForest",
    "ParseError",
    "PreconditionViolation",
    "RainbowCertificate",
    "SearchExhausted",
    "SolverError",
    "VerificationReport",
    "analyze_linear_forest",
    "edge",
    "is_hamiltonian_cycle",
    "solve",
    "verify_certificate",
    "walecki",
]
