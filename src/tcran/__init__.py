"""tcran: deterministic simulator and checker for the T-CRAN protocol.

T-CRAN detects termination of a distributed computation in a multi-channel
cognitive radio network by conserving a fixed credit: work splits it,
passivity returns it, and the chief executive announces once its books
balance.  This package provides the per-node state machine, a seeded
discrete-event network simulator with primary-user and node-failure
injection, an omniscient checker for the protocol's invariants and
complexity bounds, and a Mattern-style credit-recovery baseline for
differential testing.
"""

from .credit import BACKEND, Credit, parse_credit, render_credit

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Credit",
    "parse_credit",
    "render_credit",
    "__version__",
]
