"""Exception types shared across the package."""

__all__ = ["DisconnectedGraphError", "EdgeListParseError", "SizeGuardError"]


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires connectivity the graph lacks."""


class SizeGuardError(ValueError):
    """Raised when an exhaustive or all-pairs routine is asked to run above its size guard."""


class EdgeListParseError(ValueError):
    """Raised on malformed edge-list text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
