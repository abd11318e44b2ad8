"""Exception taxonomy shared across the package.

Every error raised on a *mathematical* precondition or verification failure
derives from UnimodError, so callers (and the CLI) can distinguish bad input
from bugs.
"""

from __future__ import annotations


class UnimodError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(UnimodError):
    """Operand shapes are incompatible with the requested operation."""


class PreconditionError(UnimodError):
    """An operation's stated precondition does not hold for the input."""


class RankError(UnimodError):
    """Input matrix does not have the required (full column) rank."""


class NotUnimodularError(UnimodError):
    """The input rows do not form a unimodular system.

    Carries a witness: either a square minor with value outside {0, 1, -1}
    (``rows``/``cols``/``value`` set), or a row whose expansion over the
    chosen base is non-integer (``rows`` = (base rows..., offending row),
    ``value`` = None).
    """

    def __init__(self, message, rows=None, cols=None, value=None):
        super().__init__(message)
        self.rows = tuple(rows) if rows is not None else None
        self.cols = tuple(cols) if cols is not None else None
        self.value = value

    def witness(self):
        """Witness data as a serializable dict (None entries omitted)."""
        out = {}
        if self.rows is not None:
            out["rows"] = list(self.rows)
        if self.cols is not None:
            out["cols"] = list(self.cols)
        if self.value is not None:
            out["value"] = self.value
        return out


class CapError(UnimodError):
    """An exponential search has done more work than its cap allows."""


class ConnectivityError(UnimodError):
    """Graph operation requires a connected multigraph.

    Carries a witness when one is known: ``vertex``, the smallest vertex
    that vertex 1 cannot reach.
    """

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex

    def witness(self):
        """Witness data as a serializable dict (empty without a vertex)."""
        return {} if self.vertex is None else {"vertex": self.vertex}


class DegenerateSystemError(UnimodError):
    """The construction would yield a system with no forms at all."""


class CatalogError(UnimodError):
    """Unknown catalog entry or malformed catalog reference."""


class MembershipError(UnimodError):
    """A vector does not belong to the lattice it was claimed to be in."""
