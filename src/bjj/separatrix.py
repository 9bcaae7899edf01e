"""Separatrix geometry and Melnikov analysis of the driven, damped junction.

At energies where the effective potential is a double well (lam*h > 1) the
undriven imbalance has a homoclinic orbit with the closed form

    z_s(t) = A sech(xi),   xi = c0 + kappa*t,
    kappa = sqrt(lam*h - 1),   A = 2*kappa/|lam|.

Tilt modulation and weak damping perturb this orbit.  The Melnikov
function -- the integral along the separatrix of the perturbation times
the bounded solution z11 of the variational equation -- changes sign
exactly when the perturbed stable and unstable manifolds intersect, which
is the analytic onset criterion for chaotic population oscillation.  Its
zero set in the (omega, de1) plane is the stability curve.

The closed form used here is

    M = -8*eta*kappa^3 / (3*lam^2)
        + 2*de1*pi*omega * cos(omega*c0/kappa) * sech(pi*omega/(2*kappa))
          * [ lam*(lam*h - 1) * (1 + omega^2/kappa^2) / |lam|^3  -  h/|lam| ]

built from the two standard integrals
``int sech(x) tanh(x) sin(b x) dx = pi*b*sech(pi*b/2)`` and
``int sech^3(x) tanh(x) sin(b x) dx = (pi*b/6)(1+b^2) sech(pi*b/2)``.
The quadrature route in :func:`melnikov_numeric` is the authority; the
closed form is pinned against it in the test suite to 1e-6.  Note the
drive term scales with (lam*h - 1), not (lam*h - 1)^(3/2): the latter
variant circulates but disagrees with direct quadrature everywhere except
at lam*h = 2, where the two coincide.

The damping term is the plain -eta*dz/dt of the second-order imbalance
equation.  The integrator's damping placements add a state-dependent
correction to it (see DampingKind), so for a damped simulation the curve
is a first-order estimate in the drive but not exact in the damping.

A consequence of the corrected coefficient: the de1-coefficient vanishes
at omega = 1 for every valid (lam, h) — in these time units the dangerous
drive frequency is always the bare tunneling frequency, and the stability
curve has a vertical asymptote there.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError
from .integrate import MAX_TARGETS
from .model import TrapParams, trap_asymmetry

__all__ = [
    "SeparatrixFrame",
    "StabilityCurve",
    "separatrix_orbit",
    "separatrix_velocity",
    "separatrix_accel",
    "basis_z11",
    "basis_z12",
    "epsilon1",
    "melnikov_numeric",
    "melnikov_closed",
    "running_stability_integral",
    "drive_coefficient",
    "stability_curve",
    "duffing_residual",
    "frame_from_initial",
]


#: Drive frequency where the de1 coefficient's bracket vanishes.  Solving
#: lam*(kappa^2 + omega^2)/|lam|^3 = h/|lam| gives omega^2 = lam*h - kappa^2
#: = 1 identically: the resonance sits at the bare tunneling frequency for
#: every valid frame.
ASYMPTOTE_OMEGA = 1.0


def _sech(x):
    # sech(x) = 2 e^{-|x|} / (1 + e^{-2|x|}): overflow-free for any x,
    # elementwise on arrays, and exact to rounding for scalars.
    e = np.exp(-np.abs(x))
    return 2.0 * e / (1.0 + e * e)


@dataclass(frozen=True)
class SeparatrixFrame:
    """Separatrix of the double-well effective potential at energy h.

    Requires lam*h > 1.  c0 fixes where on the homoclinic loop t=0 sits;
    kappa (the inverse width) and the peak amplitude are cached.
    """

    lam: float
    h: float
    c0: float = 0.0
    kappa: float = field(init=False)
    amplitude: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("lam", "h", "c0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"'{name}' must be finite, got {getattr(self, name)!r}")
        excess = self.lam * self.h - 1.0
        if not 0.0 < excess < math.inf:
            raise ValueError(
                f"'h' must give a separatrix (lam*h > 1), got lam*h = {self.lam * self.h!r}"
            )
        kappa = math.sqrt(excess)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "amplitude", 2.0 * kappa / abs(self.lam))

    def xi(self, t: float) -> float:
        return self.c0 + self.kappa * t


def separatrix_orbit(f: SeparatrixFrame, t: float) -> float:
    """Imbalance z_s(t) = A sech(c0 + kappa t) on the homoclinic orbit."""
    return f.amplitude * _sech(f.xi(t))


def separatrix_velocity(f: SeparatrixFrame, t: float) -> float:
    """Analytic dz_s/dt = -A kappa sech(xi) tanh(xi)."""
    xi = f.xi(t)
    return -f.amplitude * f.kappa * _sech(xi) * np.tanh(xi)


def separatrix_accel(f: SeparatrixFrame, t: float) -> float:
    """Analytic d^2 z_s/dt^2 = A kappa^2 (sech(xi) - 2 sech(xi)^3)."""
    s = _sech(f.xi(t))
    return f.amplitude * f.kappa**2 * (s - 2.0 * s**3)


def basis_z11(f: SeparatrixFrame, t: float) -> float:
    """Bounded solution of the variational equation along the separatrix.

    Equals dz_s/dt: z11 = -(2 kappa^2/|lam|) sech(xi) tanh(xi).
    """
    return separatrix_velocity(f, t)


def basis_z12(f: SeparatrixFrame, t: float) -> float:
    """Unbounded companion solution, normalized to unit Wronskian with z11.

    z12 = -(|lam| / (16 kappa^3)) sech(xi)^2
          * (cosh(3 xi) - 9 cosh(xi) + 12 xi sinh(xi))

    Grows ~ e^{|xi|} far from the loop; z11*dz12/dt - z12*dz11/dt = 1.
    """
    xi = f.xi(t)
    s = _sech(xi)
    g = np.cosh(3.0 * xi) - 9.0 * np.cosh(xi) + 12.0 * xi * np.sinh(xi)
    return -(abs(f.lam) / (16.0 * f.kappa**3)) * s * s * g


def epsilon1(f: SeparatrixFrame, p: TrapParams, t: float) -> float:
    """First-order perturbation evaluated on the separatrix.

    eps1 = -eta * dz_s/dt + de(t) * (h - 1.5 * lam * z_s^2).

    Drive and damping magnitudes come from p; lam and h from the frame
    (p.lam is not consulted).  Damping here is the plain velocity term of
    the second-order imbalance equation, whatever placement a simulation
    uses; neither simulated placement produces exactly that term (see
    DampingKind), and population damping is the nearer of the two.
    """
    z0 = separatrix_orbit(f, t)
    z11 = basis_z11(f, t)
    de = trap_asymmetry(p, t)
    return -p.eta * z11 + de * (f.h - 1.5 * f.lam * z0 * z0)


def _integrand(f: SeparatrixFrame, p: TrapParams):
    lam = f.lam
    h = f.h
    kappa = f.kappa
    c0 = f.c0
    a = abs(lam)
    amp = f.amplitude
    eta = p.eta
    de0 = p.de0
    de1 = p.de1
    omega = p.omega
    exp = np.exp
    tanh = math.tanh
    sin = math.sin

    def g(t: float) -> float:
        xi = c0 + kappa * t
        # _sech(xi) in float arithmetic; np.exp stays, math.exp rounds differently
        e = float(exp(-abs(xi)))
        s = 2.0 * e / (1.0 + e * e)
        z0 = amp * s
        z11 = -(2.0 * kappa * kappa / a) * s * tanh(xi)
        de = de0 + de1 * sin(omega * t)
        eps = -eta * z11 + de * (h - 1.5 * lam * z0 * z0)
        return z11 * eps

    return g


def melnikov_numeric(
    f: SeparatrixFrame,
    p: TrapParams,
    xi_max: float = 40.0,
    epsabs: float = 1e-12,
) -> tuple[float, float]:
    """Melnikov integral by adaptive quadrature; returns (value, abs error).

    The integrand decays like e^{-|xi|}, so truncating at |xi| = 40 leaves
    a tail below 1e-12 of the coefficients.
    """
    t_lo = (-xi_max - f.c0) / f.kappa
    t_hi = (xi_max - f.c0) / f.kappa
    return running_stability_integral(f, p, t_lo, t_hi, epsabs)


def running_stability_integral(
    f: SeparatrixFrame,
    p: TrapParams,
    t_lo: float,
    t_hi: float,
    epsabs: float = 1e-12,
) -> tuple[float, float]:
    """Partial accumulation of the Melnikov integrand over [t_lo, t_hi].

    Returns (value, abs error).  Raises QuadratureError when quad reports
    trouble and the achieved error is worse than max(1e-10, 1e-8*|value|).
    """
    from scipy.integrate import quad  # loading it is most of `import bjj`'s cost

    if t_hi < t_lo:
        raise ValueError("t_hi must be >= t_lo")
    value, abserr, _info, *rest = quad(
        _integrand(f, p), t_lo, t_hi, epsabs=epsabs, epsrel=1e-11, limit=20000,
        full_output=1,
    )
    if rest and abserr > max(1e-10, 1e-8 * abs(value)):
        raise QuadratureError(
            f"stability integral over [{t_lo!r}, {t_hi!r}] did not converge", abserr
        )
    return float(value), float(abserr)


def drive_coefficient(f: SeparatrixFrame, omega: float) -> float:
    """d M / d de1: the drive-amplitude coefficient of the Melnikov function.

    Vanishes at the cosine zeros (set by c0) and at omega = 1, the root of
    the bracket lam*(omega^2 - 1)/|lam|^3 common to all valid frames.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    kappa = f.kappa
    a = abs(f.lam)
    common = (
        math.pi
        * omega
        * math.cos(omega * f.c0 / kappa)
        * _sech(math.pi * omega / (2.0 * kappa))
    )
    bracket = (
        2.0 * f.lam * kappa**2 * (1.0 + omega**2 / kappa**2) / a**3
        - 2.0 * f.h / a
    )
    return common * bracket


def melnikov_closed(f: SeparatrixFrame, p: TrapParams) -> float:
    """Closed form of the Melnikov integral (see module docstring).

    Independent of de0 -- the static tilt integrates against the odd z11
    and drops out exactly.
    """
    kappa = f.kappa
    damp = -8.0 * p.eta * kappa**3 / (3.0 * f.lam**2)
    if p.de1 == 0.0:
        return damp
    return damp + p.de1 * drive_coefficient(f, p.omega)


@dataclass(frozen=True)
class StabilityCurve:
    """Critical drive amplitude versus frequency at fixed damping.

    de1_critical solves M = 0 at each grid frequency (+/-inf next to an
    asymptote); branch counts how many asymptotes lie below each point, so
    it is constant on every continuous piece of the curve.  The sign of
    de1_critical is the algebraic root; drive amplitude being a phase
    convention, the physical threshold is its magnitude.
    """

    frame: SeparatrixFrame
    eta: float
    omega: np.ndarray
    de1_critical: np.ndarray
    branch: np.ndarray
    asymptotes: tuple[float, ...]


def _asymptotes_in(f: SeparatrixFrame, omega_min: float, omega_max: float) -> list[float]:
    marks: list[float] = []
    if omega_min <= ASYMPTOTE_OMEGA <= omega_max:
        marks.append(ASYMPTOTE_OMEGA)
    if f.c0 != 0.0:
        scale = f.kappa / abs(f.c0)
        k = 0
        while True:
            w = (0.5 + k) * math.pi * scale
            if w > omega_max:
                break
            if w >= omega_min and not any(
                abs(w - m) <= 1e-12 * max(1.0, w) for m in marks
            ):
                marks.append(w)
            k += 1
    marks.sort()
    return marks


def _check_grid(omega_min: float, omega_max: float, n_points: int) -> None:
    if not omega_min > 0.0:
        raise ValueError(f"'omega_min' must be > 0, got {omega_min!r}")
    if not omega_min < omega_max < math.inf:
        raise ValueError(
            f"'omega_max' must be finite and > omega_min={omega_min!r}, got {omega_max!r}"
        )
    if not 2 <= n_points <= MAX_TARGETS:
        raise ValueError(f"'n_points' must lie in [2, {MAX_TARGETS}], got {n_points!r}")


def stability_curve(
    f: SeparatrixFrame,
    eta: float,
    omega_min: float = 0.5,
    omega_max: float = 10.0,
    n_points: int = 200,
) -> StabilityCurve:
    """Solve the Melnikov zero condition for de1 on a frequency grid.

    M is linear in de1, so de1_critical = (8 eta kappa^3 / 3 lam^2) / G(omega)
    with G the drive coefficient.  Grid points where G vanishes to machine
    level get +/-inf; the closed-form asymptote list (bracket root at
    omega = 1 plus the cosine zeros for c0 != 0) is returned alongside.
    """
    if not eta >= 0.0:
        raise ValueError(f"'eta' must be >= 0, got {eta!r}")
    _check_grid(omega_min, omega_max, n_points)

    grid = np.linspace(omega_min, omega_max, n_points)
    damp = 8.0 * eta * f.kappa**3 / (3.0 * f.lam**2)
    crit = np.empty_like(grid)
    for i, w in enumerate(grid):
        if damp == 0.0:
            crit[i] = 0.0
            continue
        g = drive_coefficient(f, float(w))
        if g == 0.0 or abs(g) < 1e-300:
            crit[i] = math.copysign(math.inf, g) if g != 0.0 else math.inf
        else:
            crit[i] = damp / g

    marks = _asymptotes_in(f, float(grid[0]), float(grid[-1]))
    branch = np.fromiter(
        (bisect.bisect_left(marks, float(w)) for w in grid),
        dtype=int,
        count=len(grid),
    )
    return StabilityCurve(
        frame=f,
        eta=eta,
        omega=grid,
        de1_critical=crit,
        branch=branch,
        asymptotes=tuple(marks),
    )


def duffing_residual(
    p: TrapParams,
    h: float,
    z: float,
    dz: float,
    d2z: float,
    t: float = 0.0,
) -> float:
    """Defect of (z, dz, d2z) in the second-order imbalance equation.

    Zero when the triple satisfies
    d2z - (lam*h - 1) z + lam^2 z^3 / 2
        = -1.5 de(t) lam z^2 - de(t)^2 z + de(t) h - eta dz.
    """
    lam = p.lam
    de = trap_asymmetry(p, t)
    return (
        d2z
        - (lam * h - 1.0) * z
        + 0.5 * lam * lam * z**3
        + 1.5 * de * lam * z * z
        + de * de * z
        - de * h
        + p.eta * dz
    )


def frame_from_initial(
    lam: float, h: float, z0: float, dz0: float
) -> SeparatrixFrame:
    """Place t=0 on the separatrix through (z0, dz0).

    Only the sign of dz0 is consumed (the magnitude is implied by z0):
    descending states sit on the xi > 0 branch.  z0 must lie in
    (0, amplitude]; at the peak dz0 must be 0.
    """
    probe = SeparatrixFrame(lam=lam, h=h, c0=0.0)
    amp = probe.amplitude
    if not 0.0 < z0 <= amp * (1.0 + 1e-12):
        raise ValueError(
            f"z0 must lie in (0, {amp!r}] to sit on this separatrix, got {z0!r}"
        )
    u = min(z0 / amp, 1.0)
    xi0 = math.log((1.0 + math.sqrt(1.0 - u * u)) / u)  # arcsech(u)
    if xi0 == 0.0:
        return probe
    if dz0 == 0.0:
        raise ValueError(
            "zero velocity below the separatrix peak is inconsistent "
            "with motion on the separatrix"
        )
    c0 = xi0 if dz0 < 0.0 else -xi0
    return SeparatrixFrame(lam=lam, h=h, c0=c0)
