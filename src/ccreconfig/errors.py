"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input and wrong graph class
exit with 3, an oversized state space or reconfiguration graph with 4.
"""


class ReconfigError(Exception):
    """Base class for all package-specific errors."""


class InvalidInstanceError(ReconfigError, ValueError):
    """Malformed graph, subset, multiset, sequence, or instance file."""


class UnequalSizesError(InvalidInstanceError):
    """A solver that requires equal component sizes got mixed sizes."""


class WrongGraphClassError(ReconfigError, ValueError):
    """The input graph is outside the class a solver was asked to handle."""


class NotACographError(WrongGraphClassError):
    """A cograph-only routine detected a P4 witness mid-run."""


class StateSpaceTooLargeError(ReconfigError):
    """State enumeration exceeded the configured cap, or the work bound it sets."""

    def __init__(self, cap: int, work: int = 0):
        super().__init__(
            f"state search exceeds {work} frames, the work bound for a cap of {cap} states"
            if work else f"state space exceeds cap of {cap} states")
        self.cap = cap


class ReconfigGraphTooLargeError(ReconfigError):
    """A reconfiguration graph grew past the edge limit of an export."""

    def __init__(self, limit: int):
        super().__init__(f"reconfiguration graph exceeds the limit of {limit} edges")
        self.limit = limit


class InternalContradictionError(ReconfigError, RuntimeError):
    """A guarantee that is supposed to always hold failed; indicates a
    bug or a lie in the input's claimed graph class."""
