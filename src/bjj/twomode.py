"""Full two-mode amplitude equations, kept as an independent cross-check.

The reduced (z, phi) system is a change of variables applied to the
coupled mode amplitudes a1, a2:

    i da1/dt = (de(t)/2 + lam*|a1|^2) a1 - a2/2
    i da2/dt = (-de(t)/2 + lam*|a2|^2) a2 - a1/2

with |a1|^2 + |a2|^2 = 1 and time in the same tunneling units.  Projecting
z = |a1|^2 - |a2|^2 and phi = arg(a2) - arg(a1) reproduces the reduced
equations exactly, so integrating both routes and comparing z exposes sign
and coefficient mistakes in either one.  No damping variant exists here;
the oracle is conservative only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .integrate import StepControl, _sample, integrate_adaptive
from .model import PhaseState, TrapParams

__all__ = [
    "TwoModeTrajectory",
    "CrosscheckReport",
    "integrate_twomode",
    "crosscheck_max_dz",
]


@dataclass(frozen=True)
class TwoModeTrajectory:
    t: np.ndarray
    a1: np.ndarray
    a2: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class CrosscheckReport:
    """Worst-case imbalance disagreement between the two integration routes."""

    max_abs_dz: float
    t_at_max: float
    n_compared: int


def _amplitudes(z0: float, phi0: float) -> tuple[complex, complex]:
    """Unit-norm amplitudes with imbalance z0 and relative phase phi0, NaN
    for a z0 or phi0 that is not finite: the driver refuses them as a
    start, as it refuses that start on the reduced routes."""
    if math.isinf(z0) or math.isinf(phi0):
        z0 = phi0 = math.nan
    elif abs(z0) > 1.0:
        raise ValueError(f"|z0| must be <= 1, got {z0}")
    a1 = complex(math.sqrt(0.5 * (1.0 + z0)), 0.0)
    a2 = cmath.rect(math.sqrt(0.5 * (1.0 - z0)), phi0)
    return a1, a2


def _make_rate(p: TrapParams):
    """Rate f(t, de, x1, y1, x2, y2) of the amplitudes a1 = x1 + i*y1 and
    a2 = x2 + i*y2, four floats, under the tilt de that the driver
    evaluates at time t."""
    lam = p.lam

    def rate(t, de, x1, y1, x2, y2):
        half_de = 0.5 * de
        c1 = half_de + lam * (x1 * x1 + y1 * y1)
        c2 = -half_de + lam * (x2 * x2 + y2 * y2)
        # i da/dt = c a - other/2   =>   da/dt = -i c a + i other/2
        return c1 * y1 - 0.5 * y2, -c1 * x1 + 0.5 * x2, c2 * y2 - 0.5 * y1, -c2 * x2 + 0.5 * x1

    return rate


def integrate_twomode(
    p: TrapParams,
    s0: PhaseState,
    t_end: float,
    ctl: StepControl | None = None,
    sample_dt: float | None = None,
) -> TwoModeTrajectory:
    """Integrate the amplitude equations with the shared adaptive driver,
    from the unit-norm amplitudes with imbalance s0.z and phase s0.phi.

    Only the conservative system is defined at this level, so p.eta must
    be zero.  Sampling semantics match integrate_adaptive.  The driver
    steps the four floats (a1.real, a1.imag, a2.real, a2.imag), so a
    StepUnderflowError or BjjError (one for a start that is not finite
    too) lists those four.
    """
    if p.eta != 0.0:
        raise ValueError("two-mode oracle is conservative; requires eta = 0")
    a1, a2 = _amplitudes(s0.z, s0.phi)
    y0 = (a1.real, a1.imag, a2.real, a2.imag)
    rows = _sample(_make_rate(p), p, s0.t, y0, t_end, ctl, sample_dt)
    amps = rows[:, 1:].view(complex)  # a1, a2, then their rates
    return TwoModeTrajectory(t=rows[:, 0], a1=amps[:, 0], a2=amps[:, 1])


def crosscheck_max_dz(
    p: TrapParams,
    z0: float,
    phi0: float,
    t_end: float = 50.0,
    sample_dt: float = 0.05,
    ctl: StepControl | None = None,
) -> CrosscheckReport:
    """Integrate both routes from the same state and compare z on the
    sample_dt grid that both land on, row for row."""
    if sample_dt is None:  # two every-step recordings never share a grid
        raise ValueError("'sample_dt' must be a spacing both routes land on, got None")
    # the oracle runs first, so its eta = 0 rule fails before any integration
    s0 = PhaseState(t=0.0, z=z0, phi=phi0)
    full = integrate_twomode(p, s0, t_end, ctl=ctl, sample_dt=sample_dt)
    reduced = integrate_adaptive(p, s0, t_end, ctl=ctl, sample_dt=sample_dt)
    n1 = np.abs(full.a1) ** 2
    n2 = np.abs(full.a2) ** 2
    diff = np.abs(reduced.z - (n1 - n2) / (n1 + n2))
    i = int(np.argmax(diff))
    return CrosscheckReport(
        max_abs_dz=float(diff[i]),
        t_at_max=float(reduced.t[i]),
        n_compared=len(diff),
    )
