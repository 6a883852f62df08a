"""Exception types shared across the package."""


class A2CentError(Exception):
    pass


class PresentationError(A2CentError):
    """Raised when a presentation document violates a structural invariant.

    ``issues`` is a list of human-readable strings, each naming the
    offending triple(s).
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class NotAWallWord(A2CentError):
    """The cyclic word bends at ``position`` (the pair is not straight)."""

    def __init__(self, position, pair):
        self.position = position
        self.pair = pair
        super().__init__(
            f"not a wall word: pair x{pair[0]},x{pair[1]} at position {position} "
            f"lies on a common triangle (the path bends); regular, median-line "
            f"and general elements are outside the supported class"
        )


class InvariantError(A2CentError):
    """An internal structural invariant failed; indicates a bug or bad input."""
