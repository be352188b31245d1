"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A domain object violates one of its invariants."""


class UnsupportedMeasureError(ValueError):
    """The requested operation needs a measure representation that is absent
    (e.g. moments of a BDLM built from a sampler with no moment data, or a
    JSON document for a measure that has no wire form)."""


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ConfigurationError(ValueError):
    """An experiment configuration is inconsistent or incomplete."""
