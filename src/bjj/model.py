"""Two-mode mean-field model of a bosonic Josephson junction.

Two condensate modes coupled by tunneling are reduced to a pair of
conjugate variables: the fractional population imbalance ``z`` and the
relative phase ``phi``.  In time units of the inverse tunneling rate the
equations of motion are

    dz/dt   = -sqrt(1 - z^2) sin(phi)                     (- eta*z when damped)
    dphi/dt = de(t) + lam*z + z cos(phi)/sqrt(1 - z^2)

with ``lam`` the ratio of on-site interaction to tunneling energy and
``de(t) = de0 + de1*sin(omega*t)`` the (possibly modulated) tilt between
the two wells.  The undriven system conserves

    H = lam*z^2/2 + de*z - sqrt(1 - z^2) cos(phi)

and the imbalance alone behaves as a fictitious particle with energy
``(1 - H^2)/2`` in a quartic potential; that picture drives the regime
classification implemented here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BjjError, SingularityError

__all__ = [
    "Z_GUARD",
    "TOL_SEP",
    "DampingKind",
    "TrapParams",
    "PhaseState",
    "PotentialShape",
    "MotionClass",
    "Regime",
    "trap_asymmetry",
    "make_rate",
    "hamiltonian",
    "effective_energy",
    "effective_potential",
    "classify_regime",
]

#: Exclusion band around |z| = 1 where dphi/dt diverges.
Z_GUARD = 1e-12

#: Half-width of the effective-energy band classified as separatrix motion.
TOL_SEP = 1e-9


class DampingKind(enum.Enum):
    """Where phenomenological dissipation enters the reduced equations.

    eta > 0 turns damping on; this only chooses where it acts.  POPULATION
    subtracts ``eta*z`` from dz/dt (direct relaxation of the imbalance);
    VELOCITY feeds ``-eta * dz/dt`` into dphi/dt.  Neither gives
    the plain ``-eta * dz/dt`` of the second-order (Duffing) form of the
    imbalance equation that the Melnikov analysis assumes.  Differentiating
    the reduced equations once, POPULATION gives
    ``-eta*dz/dt + eta*z^2*(dz/dt + eta*z)/(1 - z^2)`` and VELOCITY gives
    ``-eta*w*dz/dt`` with ``w = -sqrt(1 - z^2) cos(phi)``.  POPULATION is
    the nearer of the two to the plain term of the paper's Duffing-route
    Melnikov formula (acceptance checks c04 and c10).  The junction's own
    energy balance over one pass along its separatrix (h = 1) orders them
    the other way: VELOCITY changes the energy by exactly the plain term's
    8*eta*kappa^3/(3*lam^2), POPULATION by -4.42 (lam = 4) and -3.45
    (lam = 10) times that, the opposite sign.
    """

    POPULATION = "population"
    VELOCITY = "velocity"


@dataclass(frozen=True)
class TrapParams:
    """Dimensionless parameters of the reduced junction equations.

    lam:    interaction-to-tunneling ratio (U * n_total / 2k).
    de0:    static tilt between the wells.
    de1:    amplitude of the sinusoidal tilt modulation.
    omega:  modulation angular frequency (time measured in tunneling units).
    eta:    damping coefficient (>= 0); eta > 0 turns damping on.
    damping: where the damping term acts, see DampingKind.
    """

    lam: float
    de0: float = 0.0
    de1: float = 0.0
    omega: float = 2.0 * math.pi
    eta: float = 0.0
    damping: DampingKind = DampingKind.POPULATION

    def __post_init__(self) -> None:
        for name in ("lam", "de0", "de1", "omega", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"'{name}' must be finite, got {getattr(self, name)!r}")
        if not self.omega > 0.0:
            raise ValueError(f"'omega' must be > 0, got {self.omega!r}")
        if not self.eta >= 0.0:
            raise ValueError(f"'eta' must be >= 0, got {self.eta!r}")

    @property
    def period(self) -> float:
        """Drive period 2*pi/omega."""
        return 2.0 * math.pi / self.omega


@dataclass(frozen=True)
class PhaseState:
    """Point of the reduced phase space at time t."""

    t: float
    z: float
    phi: float


class PotentialShape(enum.Enum):
    DOUBLE_WELL = "DoubleWell"
    PARABOLIC = "Parabolic"


class MotionClass(enum.Enum):
    RABI = "RabiOscillation"
    SELF_TRAPPED = "SelfTrapped"
    SEPARATRIX = "Separatrix"


@dataclass(frozen=True)
class Regime:
    """Shape of the effective potential plus the class of motion in it."""

    potential_shape: PotentialShape
    motion: MotionClass
    h: float
    h_eff: float


def trap_asymmetry(p: TrapParams, t: float) -> float:
    """Instantaneous tilt de(t) = de0 + de1*sin(omega*t); at every time of
    an array t with numpy's sin, which rounds like math's."""
    if p.de1 == 0.0:
        return p.de0
    sin = np.sin if isinstance(t, np.ndarray) else math.sin
    return p.de0 + p.de1 * sin(p.omega * t)


# Rate of a state of float components at time t under the tilt de = de(t),
# f(t, de, y0, ..., yn-1) -> (dy0/dt, ..., dyn-1/dt): (z, phi) here, and the
# two-mode oracle's (a1.real, a1.imag, a2.real, a2.imag).  The integration
# driver evaluates the tilt once per stage time and passes it in; t is kept
# for error messages.
RateFn = Callable[..., tuple[float, ...]]


def make_rate(p: TrapParams) -> RateFn:
    """Bind parameters into a fast rate function ``f(t, de, z, phi)``.

    This closure is the single source of the equations of motion: the
    integration driver runs its body written in (bjj.integrate) and hands
    over the rate at each recorded state as a trajectory's dz_dt column,
    and ``make_rate(p)(t, trap_asymmetry(p, t), z, phi)`` is the rate
    ``(dz/dt, dphi/dt)`` at a single state.  The tilt ``de`` comes
    in as an argument, so the closure never evaluates the drive; the
    integration driver computes it once per distinct stage time, with the
    same bits as ``trap_asymmetry``.  The components go in flat, so a call
    builds no state tuple, and the driver's error test scores each float
    component on its own, as it scores the two-mode oracle's four.
    eta > 0 adds the damping term where p.damping places it.  Raises
    SingularityError, naming t, when |z| enters the Z_GUARD band around 1.
    """
    lam = p.lam
    eta = p.eta
    damped = eta > 0.0
    velocity = p.damping is DampingKind.VELOCITY
    sin = math.sin
    cos = math.cos
    sqrt = math.sqrt
    guard = 1.0 - Z_GUARD
    neg_guard = -guard

    def rate(t: float, de: float, z: float, phi: float) -> tuple[float, float]:
        if z > guard or z < neg_guard:
            raise SingularityError(t, z)
        root = sqrt(1.0 - z * z)
        dz = -root * sin(phi)
        dphi = de + lam * z + (z / root) * cos(phi)
        if damped:
            if velocity:
                dphi -= eta * dz
            else:
                dz -= eta * z
        return dz, dphi

    return rate


def hamiltonian(p: TrapParams, z: float, phi: float, t: float = 0.0) -> float:
    """Junction energy H = lam*z^2/2 + de(t)*z - sqrt(1-z^2) cos(phi).

    Conserved along trajectories when the tilt is constant and eta = 0.
    """
    if np.any(np.abs(z) > 1.0):
        raise ValueError(f"|z| must be <= 1, got {z}")
    de = trap_asymmetry(p, t)
    return 0.5 * p.lam * z * z + de * z - np.sqrt(1.0 - z * z) * np.cos(phi)


def effective_energy(h: float) -> float:
    """Energy (1 - h^2)/2 of the fictitious particle at junction energy h."""
    return 0.5 * (1.0 - h * h)


def effective_potential(p: TrapParams, h: float, z: float) -> float:
    """Quartic potential governing the imbalance as a fictitious particle.

    V(z) = z^2 (1 - lam*h + lam^2 z^2 / 4) / 2
           + de*lam*z^3/2 + de^2 z^2/2 - de*h*z

    with ``de`` the static tilt p.de0.  The identity
    (dz/dt)^2/2 + V(z) = (1 - h^2)/2 holds on trajectories with constant
    tilt and no damping (eta = 0).
    """
    de = p.de0
    lam = p.lam
    z2 = z * z
    symmetric = 0.5 * z2 * (1.0 - lam * h + 0.25 * lam * lam * z2)
    tilt = 0.5 * de * lam * z2 * z + 0.5 * de * de * z2 - de * h * z
    return symmetric + tilt


def classify_regime(p: TrapParams, z0: float, phi0: float) -> Regime:
    """Classify the undriven, undamped motion started from (z0, phi0).

    Uses the tilt at t=0 for the energy; the shape test 1 - lam*h < 0
    (double well vs. single parabolic-bottom well) and the sign of the
    fictitious-particle energy split the plane into Rabi-like oscillation
    (h_eff > 0, symmetric sweep), self-trapped motion (h_eff < 0, the
    particle is confined to one well) and the separatrix band between.
    Raises BjjError when that energy overflows.
    """
    h = float(hamiltonian(p, z0, phi0, t=0.0))  # a float: h*h overflows to inf, unwarned
    h_eff = effective_energy(h)
    if not math.isfinite(h_eff):
        raise BjjError(f"the fictitious-particle energy (1 - h^2)/2 overflows at h={h!r}")
    shape = (
        PotentialShape.DOUBLE_WELL
        if 1.0 - p.lam * h < 0.0
        else PotentialShape.PARABOLIC
    )
    if h_eff > TOL_SEP:
        motion = MotionClass.RABI
    elif abs(h_eff) <= TOL_SEP:
        motion = MotionClass.SEPARATRIX
    elif shape is PotentialShape.DOUBLE_WELL:
        motion = MotionClass.SELF_TRAPPED
    else:
        # h_eff < 0 in a single-well potential is only reachable with a
        # strong static tilt; trapping there is by the tilt, not by the
        # interaction, and is outside this classification.
        raise ValueError(
            "state has negative fictitious-particle energy in a single-well "
            "potential (strong static tilt); classification not defined"
        )
    return Regime(potential_shape=shape, motion=motion, h=h, h_eff=h_eff)
