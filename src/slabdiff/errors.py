"""Exception types shared across the package."""


class SlabDiffError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SlabDiffError, ValueError):
    """A physical or dimensionless parameter violates its constraints."""


class DomainError(SlabDiffError, ValueError):
    """A coordinate lies outside the slab domain [-1/2, 1/2] or v < 0."""


class QuadratureError(SlabDiffError, RuntimeError):
    """Adaptive quadrature failed to converge; carries diagnostics."""

    def __init__(self, message: str, *, best: float, last_delta: float, evaluations: int):
        super().__init__(
            f"{message} (best={best!r}, last_delta={last_delta!r}, "
            f"evaluations={evaluations})"
        )
        self.best = best
        self.last_delta = last_delta
        self.evaluations = evaluations


class ResonantModeError(SlabDiffError, ValueError):
    """The two-timescale closed form is singular for some mode index."""

    def __init__(self, mode: int, eps: float):
        super().__init__(
            f"mode m={mode} is resonant for eps={eps!r}: "
            f"|1 - eps*(2*m*pi)^2| < 1e-9, the closed-form coefficients blow up"
        )
        self.mode = mode
        self.eps = eps


class StabilityError(SlabDiffError, ValueError):
    """An explicit finite-difference configuration violates its stability bound."""


class InvalidInputError(SlabDiffError, ValueError):
    """Analysis input does not meet sampling or shape requirements."""


class ScenarioParseError(SlabDiffError, ValueError):
    """A scenario config document violates the schema."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ScenarioValidationError(SlabDiffError, ValueError):
    """A parsed scenario violates a cross-field invariant."""
