"""Exception types shared across the package."""


class UnsupportedConfigurationError(ValueError):
    """Constellation parameters outside the supported model (e.g. odd plane count)."""


class SlotFloorError(UnsupportedConfigurationError):
    """A snapshot slot or equal_time delta of at most two ties (``geometry.TIE_S``)."""


class ScenarioError(ValueError):
    """Scenario file is missing, malformed, or violates a field constraint."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
