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
closed form is pinned against it in the test suite to 1e-6.  It is an
adaptive 21-point Gauss-Kronrod rule written in numpy, vectorised over
the pieces of the window; QUADPACK (scipy.integrate.quad) is its reference
in the tests only, so the package needs nothing beyond numpy.  Note the
drive term scales with (lam*h - 1), not (lam*h - 1)^(3/2): the latter
variant circulates but disagrees with direct quadrature everywhere except
at lam*h = 2, where the two coincide.

The damping term is the plain -eta*dz/dt of the second-order imbalance
equation.  The integrator's damping placements add a state-dependent
correction to it (see DampingKind), so for a damped simulation the curve
is a first-order estimate in the drive but not exact in the damping.

A consequence of the corrected coefficient: the de1-coefficient vanishes
at omega = 1 for every valid (lam, h), and the stability curve has a
vertical asymptote there.  That zero belongs to this Duffing-route
formula's bracket only, which acceptance checks c04 and c10 test.  The
junction's own energy change over one pass along its separatrix (h = 1)
is the Poisson bracket -int dz_s/dt * de(t) dt, which has no zero at
omega = 1: a simulated pass at lam = 4, de1 = 1e-8 changes the energy
by 1.10e-8 there.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BjjError, QuadratureError
from .integrate import MAX_TARGETS
from .model import TrapParams, trap_asymmetry

__all__ = [
    "SeparatrixFrame",
    "StabilityCurve",
    "separatrix_orbit",
    "separatrix_velocity",
    "separatrix_accel",
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
#: = 1 identically, for every valid frame.  The junction's own energy
#: balance has no zero there (see the module docstring).
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
    """Analytic dz_s/dt = -(2 kappa^2/|lam|) sech(xi) tanh(xi), which is also
    z11, the bounded solution of the variational equation along the
    separatrix."""
    c11 = -(2.0 * f.kappa * f.kappa / abs(f.lam))
    xi = f.xi(t)
    return c11 * _sech(xi) * np.tanh(xi)


def separatrix_accel(f: SeparatrixFrame, t: float) -> float:
    """Analytic d^2 z_s/dt^2 = A kappa^2 (sech(xi) - 2 sech(xi)^3)."""
    s = _sech(f.xi(t))
    return f.amplitude * f.kappa**2 * (s - 2.0 * s**3)


def epsilon1(f: SeparatrixFrame, p: TrapParams, t: float) -> float:
    """First-order perturbation evaluated on the separatrix.

    eps1 = -eta * dz_s/dt + de(t) * (h - 1.5 * lam * z_s^2).

    Drive and damping magnitudes come from p; lam and h from the frame
    (p.lam is not consulted).  Damping here is the plain velocity term of
    the second-order imbalance equation, whatever placement a simulation
    uses; neither simulated placement produces exactly that term (see
    DampingKind).  This is the paper's Duffing-route perturbation; it does
    not give the junction's own energy change over a separatrix pass.
    """
    z0 = separatrix_orbit(f, t)
    z11 = separatrix_velocity(f, t)
    de = trap_asymmetry(p, t)
    return -p.eta * z11 + de * (f.h - 1.5 * f.lam * z0 * z0)


def _integrand(f: SeparatrixFrame, p: TrapParams):
    """The Melnikov integrand z11 * eps1 at a float t, or elementwise on an
    array t."""
    return lambda t: separatrix_velocity(f, t) * epsilon1(f, p, t)


# The 21-point Gauss-Kronrod rule on [-1, 1] and the 10-point Gauss rule
# embedded in it (on the odd entries of _GK21_X): QUADPACK's qk21.
_GK21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003,
])
_G10_W = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332,
])
_K21_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192,
])

#: exp(-|xi|) underflows past this |xi|, and the integrand is 0 there.
_XI_EDGE = 745.0
#: Widest piece, in xi, of the partition the quadrature starts from.
_XI_PIECE = 40.0
#: Absolute and relative tolerances and the most pieces of the adaptive quadrature.
_EPSABS = 1e-12
_EPSREL = 1e-11
_LIMIT = 20000


def _gk21(g, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrals of g over each [a_i, b_i], their error estimates as in
    QUADPACK's qk21, and the rounding floors of those estimates, which no
    bisection lowers.  Call it under np.errstate(all="ignore").

    The weighted sums are products and row sums, not BLAS calls, so their
    bits do not depend on the BLAS build.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = g(c[:, None] + h[:, None] * _GK21_X)
    k = (y * _K21_W).sum(axis=1)
    err = np.abs((k - (y[:, 1::2] * _G10_W).sum(axis=1)) * h)
    # the spread of g about its mean scales the Gauss-Kronrod difference
    asc = (np.abs(y - 0.5 * k[:, None]) * _K21_W).sum(axis=1) * h
    err = np.where(asc > 0.0, asc * np.minimum(1.0, (200.0 * err / asc) ** 1.5), err)
    # and rounding in the sum bounds it from below
    floor = 50.0 * np.finfo(float).eps * (np.abs(y) * _K21_W).sum(axis=1) * h
    return k * h, np.maximum(err, floor), floor


def _xi_edges(lo: float, hi: float) -> np.ndarray:
    """Breakpoints of [lo, hi] split at the peak xi = 0, with pieces at most
    _XI_PIECE wide."""
    sides = [
        np.linspace(a, b, math.ceil((b - a) / _XI_PIECE) + 1)
        for a, b in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi))
        if a < b
    ]
    return np.concatenate([sides[0], *(s[1:] for s in sides[1:])])


def _check_xi_max(xi_max: float) -> None:
    if not xi_max > 0.0:
        raise ValueError(f"'xi_max' must be > 0, got {xi_max!r}")


def melnikov_numeric(
    f: SeparatrixFrame,
    p: TrapParams,
    xi_max: float = 40.0,
) -> tuple[float, float]:
    """Melnikov integral by adaptive quadrature; returns (value, abs error).

    The integrand decays like e^{-|xi|}, so truncating at |xi| = 40 leaves
    a tail below 1e-12 of the coefficients.  A wider window ends at
    |xi| = 745, past which the integrand is 0.
    """
    _check_xi_max(xi_max)
    t_lo = (-xi_max - f.c0) / f.kappa
    t_hi = (xi_max - f.c0) / f.kappa
    return running_stability_integral(f, p, t_lo, t_hi)


def running_stability_integral(
    f: SeparatrixFrame,
    p: TrapParams,
    t_lo: float,
    t_hi: float,
) -> tuple[float, float]:
    """Partial accumulation of the Melnikov integrand over [t_lo, t_hi].

    Returns (value, abs error) of an adaptive 21-point Gauss-Kronrod
    quadrature in numpy.  The window is cut to |xi| <= 745 and split at
    the orbit's peak into pieces at most 40 wide in xi.  Each round bisects
    the pieces whose errors can shrink most, as few as can bring the summed
    error within max(1e-12, 1e-11*|value|), and evaluates the new pieces in
    one call.  Raises QuadratureError when the integrand is not finite, or
    when the quadrature stops short of that tolerance (at 20000 pieces, or
    when rounding fills it) with an error worse than max(1e-10, 1e-8*|value|).
    """
    if not t_lo <= t_hi:
        raise ValueError(f"'t_hi' must be >= t_lo, got [{t_lo!r}, {t_hi!r}]")
    xi_lo, xi_hi = f.xi(t_lo), f.xi(t_hi)
    if xi_lo < -_XI_EDGE:
        xi_lo, t_lo = -_XI_EDGE, (-_XI_EDGE - f.c0) / f.kappa
    if xi_hi > _XI_EDGE:
        xi_hi, t_hi = _XI_EDGE, (_XI_EDGE - f.c0) / f.kappa
    if not xi_lo < xi_hi:
        return 0.0, 0.0
    edges = (_xi_edges(xi_lo, xi_hi) - f.c0) / f.kappa
    edges[0], edges[-1] = t_lo, t_hi  # the ends exactly, not via xi and back

    g = _integrand(f, p)
    new_a, new_b = edges[:-1], edges[1:]
    a = b = values = errors = floors = np.empty(0)
    while True:
        with np.errstate(all="ignore"):
            new_values, new_errors, new_floors = _gk21(g, new_a, new_b)
        if not (np.isfinite(new_values).all() and np.isfinite(new_errors).all()):
            raise QuadratureError(
                f"stability integrand is not finite on [{t_lo!r}, {t_hi!r}]", math.inf
            )
        a, b = np.concatenate([a, new_a]), np.concatenate([b, new_b])
        values = np.concatenate([values, new_values])
        errors = np.concatenate([errors, new_errors])
        floors = np.concatenate([floors, new_floors])
        # fsum: the totals do not depend on the order of the pieces
        value, abserr = math.fsum(values), math.fsum(errors)
        tol = max(_EPSABS, _EPSREL * abs(value))
        if abserr <= tol:
            return value, abserr
        # Bisection shrinks only the part of an error above its rounding
        # floor.  Leave at most tol less the floors, or a tenth of the floors
        # when rounding alone (nearly) fills the tolerance, and then stop.
        floor = math.fsum(floors)
        reducible = errors - floors
        left = max(tol - floor, 0.1 * floor)
        order = np.argsort(-reducible, kind="stable")
        gain = np.cumsum(reducible[order])
        if gain[-1] <= left or len(a) == _LIMIT:
            break
        # the pieces whose errors can shrink most, as few as reach that
        n = min(int(np.searchsorted(gain, gain[-1] - left)) + 1, _LIMIT - len(a))
        split, keep = order[:n], order[n:]
        mid = 0.5 * (a[split] + b[split])
        new_a, new_b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        a, b, values = a[keep], b[keep], values[keep]
        errors, floors = errors[keep], floors[keep]
    if abserr > max(1e-10, 1e-8 * abs(value)):
        raise QuadratureError(
            f"stability integral over [{t_lo!r}, {t_hi!r}] did not converge "
            f"in {len(a)} pieces", abserr
        )
    return value, abserr


def drive_coefficient(f: SeparatrixFrame, omega: float) -> float:
    """d M / d de1: the drive-amplitude coefficient of the Melnikov function.

    Vanishes at the cosine zeros (set by c0) and at omega = 1, the root of
    the bracket lam*(omega^2 - 1)/|lam|^3 common to all valid frames.
    Past the float range of the bracket, where sech has underflowed, it is
    the signed zero the product takes below that range; otherwise an
    overflowing bracket raises BjjError, naming omega.  Past the float
    range of the cosine's argument omega*c0/kappa, where sech has
    underflowed, it is +0.0 (the cosine's sign is lost with its argument);
    otherwise that raises BjjError, naming omega and c0.
    """
    if not omega > 0.0:
        raise ValueError(f"'omega' must be > 0, got {omega!r}")
    kappa = f.kappa
    a = abs(f.lam)
    sech = _sech(math.pi * omega / (2.0 * kappa))
    phase = omega * f.c0 / kappa
    if not math.isfinite(phase):
        if sech == 0.0:
            return 0.0
        raise BjjError(
            f"drive coefficient's cosine overflows at omega={omega!r}, c0={f.c0!r}"
        )
    cos = math.cos(phase)
    try:
        bracket = (
            2.0 * f.lam * kappa**2 * (1.0 + omega**2 / kappa**2) / a**3
            - 2.0 * f.h / a
        )
    except OverflowError:  # omega**2 or |lam|**3 is past the float range
        if not (sech == 0.0 and omega > 1.0):
            raise BjjError(
                f"drive coefficient overflows at omega={omega!r} (lam={f.lam!r})"
            ) from None
        bracket = math.inf
    if sech == 0.0 and math.isinf(bracket):
        # 0 * inf would be NaN; where the bracket is still finite it has
        # lam's sign for omega > 1, and the product is the cosine's zero
        return math.copysign(0.0, cos) * math.copysign(1.0, f.lam)
    return math.pi * omega * cos * sech * bracket


def _damping_loss(f: SeparatrixFrame, eta: float) -> float:
    # eta * int z11^2 dt, the damping term of the Melnikov function negated;
    # past the float range of kappa**3 or lam**2 (above or below), it is
    # computed as kappa*(kappa/lam)**2
    try:
        loss = 8.0 * eta * f.kappa**3 / (3.0 * f.lam**2)
    except (OverflowError, ZeroDivisionError):
        r = f.kappa / f.lam
        loss = 8.0 * eta * (f.kappa * r * r) / 3.0 if eta else 0.0
    if not math.isfinite(loss):
        raise BjjError(f"damping term overflows at lam={f.lam!r} (h={f.h!r}, eta={eta!r})")
    return loss


def melnikov_closed(f: SeparatrixFrame, p: TrapParams) -> float:
    """Closed form of the Melnikov integral (see module docstring).

    Independent of de0 -- the static tilt integrates against the odd z11
    and drops out exactly.
    """
    damp = -_damping_loss(f, p.eta)
    if p.de1 == 0.0:
        return damp
    return damp + p.de1 * drive_coefficient(f, p.omega)


@dataclass(frozen=True)
class StabilityCurve:
    """Critical drive amplitude versus frequency at fixed damping.

    de1_critical solves M = 0 at each grid frequency (inf at a grid point
    that is an asymptote); branch counts how many asymptotes lie below each
    point, so it is constant on every continuous piece of the curve.  The sign of
    de1_critical is the algebraic root; drive amplitude being a phase
    convention, the physical threshold is its magnitude.
    """

    omega: np.ndarray
    de1_critical: np.ndarray
    branch: np.ndarray
    asymptotes: tuple[float, ...]


def _asymptotes_in(f: SeparatrixFrame, omega_min: float, omega_max: float) -> list[float]:
    marks: list[float] = []
    if omega_min <= ASYMPTOTE_OMEGA <= omega_max:
        marks.append(ASYMPTOTE_OMEGA)
    if f.c0 != 0.0:
        # the cosine zeros (0.5 + k) * pi * scale lie at k in [lo, hi]
        scale = f.kappa / abs(f.c0)
        lo = omega_min / (math.pi * scale) - 0.5
        hi = omega_max / (math.pi * scale) - 0.5
        if not hi - max(lo, 0.0) + 2.0 <= MAX_TARGETS:
            raise ValueError(
                f"'omega_max'={omega_max!r} with 'c0'={f.c0!r} gives more than "
                f"{MAX_TARGETS} asymptotes"
            )
        for k in range(max(math.ceil(lo) - 1, 0), math.floor(hi) + 2):
            w = (0.5 + k) * math.pi * scale
            if w > omega_max:
                break
            if w < omega_min:
                continue
            # omega = 1, if in range, is the first mark and the zeros ascend,
            # so no other mark lies nearer than the first and the last
            near = 1e-12 * max(1.0, w)
            if not marks or (abs(w - marks[0]) > near and abs(w - marks[-1]) > near):
                marks.append(w)
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
    with G the drive coefficient.  The closed-form asymptote list (bracket
    root at omega = 1 plus the cosine zeros for c0 != 0) is returned
    alongside; a grid point that is one of them gets inf.  Raises BjjError
    where de1_critical is past the float range (G underflowed to zero, or
    the quotient overflowed), naming omega.
    """
    if not eta >= 0.0:
        raise ValueError(f"'eta' must be >= 0, got {eta!r}")
    _check_grid(omega_min, omega_max, n_points)

    grid = np.linspace(omega_min, omega_max, n_points)
    marks = _asymptotes_in(f, float(grid[0]), float(grid[-1]))
    damp = _damping_loss(f, eta)
    crit = np.empty_like(grid)
    branch = np.empty(len(grid), dtype=int)
    for i, w in enumerate(grid.tolist()):
        b = branch[i] = bisect.bisect_left(marks, w)
        if damp == 0.0:
            crit[i] = 0.0
        elif b < len(marks) and marks[b] == w:
            crit[i] = math.inf
        else:
            g = drive_coefficient(f, w)
            d = damp / g if g else math.inf
            if not math.isfinite(d):
                raise BjjError(f"de1_critical overflows at omega={w!r} "
                               f"(lambda={f.lam!r}, energy={f.h!r})")
            crit[i] = d

    return StabilityCurve(
        omega=grid, de1_critical=crit, branch=branch, asymptotes=tuple(marks)
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
            f"'z0' must lie in (0, {amp!r}] to sit on this separatrix, got {z0!r}"
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
