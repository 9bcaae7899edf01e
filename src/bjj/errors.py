"""Exception hierarchy shared across the package.

Split along the CLI's exit-code boundary: ``ConfigError`` is user input
(exit 1), everything else numerical failure (exit 2).
"""

from __future__ import annotations

__all__ = [
    "BjjError",
    "ConfigError",
    "SingularityError",
    "StepUnderflowError",
    "QuadratureError",
]


class BjjError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BjjError):
    """Malformed, unknown, or out-of-range configuration input."""


class SingularityError(BjjError):
    """The population imbalance hit the |z| -> 1 pole of the phase equation."""

    def __init__(self, t: float, z: float):
        self.t = t
        self.z = z
        super().__init__(
            f"population imbalance reached the |z|=1 singularity at t={t!r} (z={z!r}); "
            "the 1/sqrt(1-z^2) term in dphi/dt is no longer finite"
        )


class StepUnderflowError(BjjError):
    """Adaptive step control could not satisfy the tolerance above h_min."""

    def __init__(self, t: float, y: tuple, h: float, h_min: float):
        self.t, self.y, self.h, self.h_min = t, y, h, h_min
        super().__init__(
            f"step size underflow at t={t!r}, state={y!r}: step h={h!r} was "
            f"rejected and may not shrink below h_min={h_min!r}"
        )


class QuadratureError(BjjError):
    """Numerical quadrature failed to reach the requested accuracy."""

    def __init__(self, message: str, achieved: float):
        self.achieved = achieved
        super().__init__(f"{message} (achieved absolute error {achieved:.3e})")
