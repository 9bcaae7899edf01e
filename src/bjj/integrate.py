"""Adaptive fourth-order Runge-Kutta integration with exact sample landing.

The driver advances classical RK4 steps and controls the local error by
step doubling: each step is taken once at h and twice at h/2, the
per-component difference (scaled by 1/15) is the error estimate, and the
accepted state is the Richardson-extrapolated fine solution.  Requested
output times are hit exactly by clamping the step, never by interpolation,
which is what makes stroboscopic sections of driven runs trustworthy.

The driver writes its stages out for a state of two components, each a
float or a Python complex, with a flat rate f(t, de, y0, y1), so the same
loop integrates the reduced (z, phi) system and the two-mode amplitudes
(a1, a2).  The driver owns the drive: it evaluates the tilt
de(t) = de0 + de1*sin(omega*t) once per distinct stage time and hands it
to every rate call at that time.  A driven step evaluates it five times
(the tilt at the step's start is carried over from the end of the step
before, or evaluated afresh after a landing); an undriven one never does.
The rates add the tilt first, so passing the sum in keeps every bit.
Float components are scored as they are, complex ones by their real and
imaginary parts apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BjjError, SingularityError, StepUnderflowError
from .model import PhaseState, RateFn, TrapParams, make_rate, trap_asymmetry

__all__ = [
    "StepControl",
    "Trajectory",
    "SectionPoints",
    "default_control",
    "advance",
    "integrate_adaptive",
    "sample_stroboscopic",
    "section_from_trajectory",
]

# Two components, each a float or a Python complex.
State = tuple[complex, complex]

_MAX_GROW = 5.0
_MIN_SHRINK = 0.1

#: Most landing targets one run may request (the target list is built up
#: front), most rows an every-step recording may hold, and the largest
#: Lyapunov interval count and grid size (n_points, n_z).
MAX_TARGETS = 10**7


@dataclass(frozen=True)
class StepControl:
    """Adaptive step-size policy.

    A step is accepted when the estimated per-component error does not
    exceed abs_tol + rel_tol*|y|; the next step is proposed as
    safety * h * (tolerance/error)^(1/5), clamped to [h_min, h_max].
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 0.05
    safety: float = 0.9

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"'{name}' must be finite and >= 0, got {value!r}")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("'abs_tol' and 'rel_tol' cannot both be 0")
        for name in ("h_init", "h_min"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"'{name}' must be finite and > 0, got {value!r}")
        if not self.h_min <= self.h_max < math.inf:
            raise ValueError(
                f"'h_max' must be finite and >= h_min={self.h_min!r}, got {self.h_max!r}"
            )
        if not 0.0 < self.safety < 1.0:
            raise ValueError(f"'safety' must lie in (0, 1), got {self.safety!r}")


def default_control(p: TrapParams) -> StepControl:
    """Default policy for a given drive: h_max resolves fifty steps per
    drive period when the trap is modulated, 0.05 otherwise."""
    if p.de1 != 0.0:
        return StepControl(h_max=min(0.05, p.period / 50.0))
    return StepControl()


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the reduced equations.

    dz_dt holds the actual flow derivative (damping included), evaluated
    analytically from the rate function at each sample.
    """

    params: TrapParams
    control: StepControl
    t: np.ndarray
    z: np.ndarray
    phi: np.ndarray
    dz_dt: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class SectionPoints:
    """Stroboscopic section: one (z, dz/dt) point per drive period."""

    params: TrapParams
    control: StepControl
    period: float
    n: np.ndarray
    t: np.ndarray
    z: np.ndarray
    dz_dt: np.ndarray

    def __len__(self) -> int:
        return len(self.n)


def _drive(
    f: RateFn,
    drive: tuple[float, float, float],
    t: float,
    y: State,
    targets: Sequence[float],
    ctl: StepControl,
    on_target: Callable[[float, State], None] | None = None,
    on_step: Callable[[float, State], None] | None = None,
) -> tuple[float, State]:
    """Advance through an increasing list of target times, landing exactly.

    drive is (de0, de1, omega): every rate call gets the tilt
    de0 + de1*sin(omega*t) at its stage time, evaluated once per distinct
    stage time (never when de1 == 0, where every stage gets de0).
    on_target fires at every target (after exact landing); on_step fires
    at every other accepted step.  Raises StepUnderflowError when the
    tolerance cannot be met above h_min, and propagates SingularityError
    when the current state itself sits inside the guard band.  A NaN error
    estimate never passes the tolerance test.
    """
    abs_tol = ctl.abs_tol
    rel_tol = ctl.rel_tol
    h_min = ctl.h_min
    h_max = ctl.h_max
    safety = ctl.safety
    h = min(max(ctl.h_init, h_min), h_max)
    underflow_edge = h_min * (1.0 + 1e-9)
    de0, de1, omega = drive
    driven = de1 != 0.0
    sin = math.sin
    de = de0 + de1 * sin(omega * t) if driven else de0
    y0, y1 = y
    # Complex components score their real and imaginary parts apart.
    parts = isinstance(y0, complex) or isinstance(y1, complex)

    for target in targets:
        while t < target:
            gap = target - t
            if h >= gap:
                h_try = gap
                landing = True
            else:
                h_try = h
                landing = False

            # One classical RK4 step of h_try (to b) and two of h_try/2 (to
            # m, then n), all from the stage-1 rate k at t.  A singular
            # current state raises at k independent of h, so the exception
            # propagates (a ValueError there, from a non-finite state, as a
            # BjjError); singular *trial* states further along the step are
            # treated as a rejection instead, and so are trial states that
            # overflowed (math.sin(inf) raises ValueError).
            try:
                k0, k1 = f(t, de, y0, y1)
            except ValueError as exc:
                raise BjjError(
                    f"rate failed at t={t!r}, state={(y0, y1)!r}, h={h_try!r}: {exc}"
                ) from None
            half = 0.5 * h_try
            q = 0.5 * half
            t_half = t + half
            t_q = t + q
            t_full = t + h_try
            t_hq = t_half + q
            t_fine = t_half + half
            if driven:
                de_half = de0 + de1 * sin(omega * t_half)
                de_q = de0 + de1 * sin(omega * t_q)
                de_full = de0 + de1 * sin(omega * t_full)
                de_hq = de0 + de1 * sin(omega * t_hq)
                de_fine = de0 + de1 * sin(omega * t_fine)
            else:
                de_half = de_q = de_full = de_hq = de_fine = de0
            try:
                a0, a1 = f(t_half, de_half, y0 + half * k0, y1 + half * k1)
                c0, c1 = f(t_half, de_half, y0 + half * a0, y1 + half * a1)
                d0, d1 = f(t_full, de_full, y0 + h_try * c0, y1 + h_try * c1)
                sixth = h_try / 6.0
                b0 = y0 + sixth * (k0 + 2.0 * (a0 + c0) + d0)
                b1 = y1 + sixth * (k1 + 2.0 * (a1 + c1) + d1)
                a0, a1 = f(t_q, de_q, y0 + q * k0, y1 + q * k1)
                c0, c1 = f(t_q, de_q, y0 + q * a0, y1 + q * a1)
                d0, d1 = f(t_half, de_half, y0 + half * c0, y1 + half * c1)
                sixth = half / 6.0
                m0 = y0 + sixth * (k0 + 2.0 * (a0 + c0) + d0)
                m1 = y1 + sixth * (k1 + 2.0 * (a1 + c1) + d1)
                j0, j1 = f(t_half, de_half, m0, m1)
                a0, a1 = f(t_hq, de_hq, m0 + q * j0, m1 + q * j1)
                c0, c1 = f(t_hq, de_hq, m0 + q * a0, m1 + q * a1)
                d0, d1 = f(t_fine, de_fine, m0 + half * c0, m1 + half * c1)
                n0 = m0 + sixth * (j0 + 2.0 * (a0 + c0) + d0)
                n1 = m1 + sixth * (j1 + 2.0 * (a1 + c1) + d1)
            except (SingularityError, ValueError) as exc:
                if h_try <= underflow_edge:
                    if isinstance(exc, SingularityError):
                        raise
                    raise StepUnderflowError(t, (y0, y1), h_try, h_min) from None
                h = max(h_min, 0.5 * h_try)
                continue

            # err = |n - b| / (15 (abs_tol + rel_tol max(|y|, |n|))) per part;
            # a zero difference scores 0 without a division, and a NaN error
            # sticks as the step's ratio.  Parts are scored in the order
            # y0.real, y1.real, y0.imag, y1.imag.
            e0 = n0 - b0
            e1 = n1 - b1
            ratio = 0.0
            if parts:
                diff = abs(e0.real)
                if diff:
                    u, v = abs(y0.real), abs(n0.real)
                    ratio = diff / (15.0 * (abs_tol + rel_tol * (v if v > u else u)))
                diff = abs(e1.real)
                if diff:
                    u, v = abs(y1.real), abs(n1.real)
                    err = diff / (15.0 * (abs_tol + rel_tol * (v if v > u else u)))
                    if err > ratio or err != err:
                        ratio = err
                diff = abs(e0.imag)
                if diff:
                    u, v = abs(y0.imag), abs(n0.imag)
                    err = diff / (15.0 * (abs_tol + rel_tol * (v if v > u else u)))
                    if err > ratio or err != err:
                        ratio = err
                diff = abs(e1.imag)
                if diff:
                    u, v = abs(y1.imag), abs(n1.imag)
                    err = diff / (15.0 * (abs_tol + rel_tol * (v if v > u else u)))
                    if err > ratio or err != err:
                        ratio = err
            else:
                diff = abs(e0)
                if diff:
                    u, v = abs(y0), abs(n0)
                    ratio = diff / (15.0 * (abs_tol + rel_tol * (v if v > u else u)))
                diff = abs(e1)
                if diff:
                    u, v = abs(y1), abs(n1)
                    err = diff / (15.0 * (abs_tol + rel_tol * (v if v > u else u)))
                    if err > ratio or err != err:
                        ratio = err

            if ratio <= 1.0:
                y0 = n0 + e0 / 15.0
                y1 = n1 + e1 / 15.0
                if landing:
                    t = target  # exact by assignment, no accumulation drift
                    de = de0 + de1 * sin(omega * t) if driven else de0
                else:
                    t = t_full
                    de = de_full
                    if ratio > 1e-30:
                        fac = safety * ratio**-0.2
                        if fac > _MAX_GROW:
                            fac = _MAX_GROW
                    else:
                        fac = _MAX_GROW
                    h = h_try * fac
                    if h > h_max:
                        h = h_max
                    elif h < h_min:
                        h = h_min
                    if on_step is not None:
                        on_step(t, (y0, y1))
            else:
                if h_try <= underflow_edge:
                    raise StepUnderflowError(t, (y0, y1), h_try, h_min)
                fac = safety * ratio**-0.2
                if not fac >= _MIN_SHRINK:
                    fac = _MIN_SHRINK
                h = h_try * fac
                if h < h_min:
                    h = h_min
        if on_target is not None:
            on_target(t, (y0, y1))
    return t, (y0, y1)


def _check_sample_dt(sample_dt: float, t_end: float = 0.0) -> float:
    """The sample count t_end/sample_dt (plus 1e-9), once 'sample_dt' is > 0
    and the count finite."""
    if not sample_dt > 0.0:
        raise ValueError(f"'sample_dt' must be > 0, got {sample_dt!r}")
    count = t_end / sample_dt + 1e-9
    if not math.isfinite(count):
        raise ValueError(
            "'sample_dt' must give a finite sample count t_end/sample_dt, "
            f"got {t_end!r}/{sample_dt!r}"
        )
    return count


def _sample_targets(t_end: float, sample_dt: float) -> list[float]:
    """Multiples of sample_dt covering (0, t_end], end collapsed onto t_end."""
    n = int(math.floor(_check_sample_dt(sample_dt, t_end)))
    if n > MAX_TARGETS:
        raise ValueError(
            f"'sample_dt'={sample_dt!r} asks for {n} samples up to t_end={t_end!r}, "
            f"more than {MAX_TARGETS}"
        )
    targets = [k * sample_dt for k in range(1, n + 1)]
    if targets and targets[-1] > t_end:
        targets[-1] = t_end
    elif not targets or t_end - targets[-1] > 1e-9 * sample_dt:
        targets.append(t_end)
    return targets


def _sample(
    rate: RateFn,
    drive: tuple[float, float, float],
    t0: float,
    y0: State,
    t_end: float,
    ctl: StepControl,
    sample_dt: float | None,
) -> tuple[list[float], list[State]]:
    """Recorded (times, states) of one run from (t0, y0) to t_end under the
    drive (de0, de1, omega).

    The initial state is the first row.  With sample_dt unset every
    accepted step is recorded, up to MAX_TARGETS rows; otherwise only the
    multiples of sample_dt (sample grids are anchored at t=0) and t_end,
    each landed exactly.
    """
    if t_end < t0:
        raise ValueError(f"t_end={t_end} precedes initial time {t0}")
    ts = [t0]
    ys = [y0]

    def record(t: float, y: State) -> None:
        ts.append(t)
        ys.append(y)

    def record_step(t: float, y: State) -> None:
        if len(ts) >= MAX_TARGETS:
            raise BjjError(
                f"every-step recording stopped at t={t!r} after {len(ts)} rows; "
                "set sample_dt to record a grid"
            )
        record(t, y)

    if t_end > t0:
        if sample_dt is None:
            _drive(rate, drive, t0, y0, [t_end], ctl, on_target=record_step,
                   on_step=record_step)
        else:
            if t0 != 0.0:
                raise ValueError("sample grids are anchored at t=0")
            targets = _sample_targets(t_end, sample_dt)
            _drive(rate, drive, t0, y0, targets, ctl, on_target=record)
    return ts, ys


def _trajectory(
    p: TrapParams,
    s0: PhaseState,
    t_end: float,
    ctl: StepControl | None,
    sample_dt: float | None,
) -> Trajectory:
    """Body of integrate_adaptive, shared with sample_stroboscopic so that
    one public entry point never runs inside another."""
    if ctl is None:
        ctl = default_control(p)
    rate = make_rate(p)
    drive = (p.de0, p.de1, p.omega)
    ts, ys = _sample(rate, drive, s0.t, (s0.z, s0.phi), t_end, ctl, sample_dt)
    zphi = np.asarray(ys)
    return Trajectory(
        params=p,
        control=ctl,
        t=np.asarray(ts),
        z=zphi[:, 0],
        phi=zphi[:, 1],
        dz_dt=np.asarray(
            [rate(t, trap_asymmetry(p, t), z, phi)[0] for t, (z, phi) in zip(ts, ys)]
        ),
    )


def advance(
    p: TrapParams, s0: PhaseState, t_end: float, ctl: StepControl | None = None
) -> PhaseState:
    """Final state at t_end, recording nothing along the way."""
    if ctl is None:
        ctl = default_control(p)
    if t_end < s0.t:
        raise ValueError(f"t_end={t_end} precedes initial time {s0.t}")
    if t_end == s0.t:
        return s0
    drive = (p.de0, p.de1, p.omega)
    t, y = _drive(make_rate(p), drive, s0.t, (s0.z, s0.phi), [t_end], ctl)
    return PhaseState(t=t, z=y[0], phi=y[1])


def integrate_adaptive(
    p: TrapParams,
    s0: PhaseState,
    t_end: float,
    ctl: StepControl | None = None,
    sample_dt: float | None = None,
) -> Trajectory:
    """Integrate the reduced equations from s0.t to t_end.

    With sample_dt set, output rows sit exactly on multiples of sample_dt
    (plus the initial state and t_end); otherwise every accepted step is
    recorded.  Landing is by step clamping, so no interpolation error
    enters the samples.
    """
    return _trajectory(p, s0, t_end, ctl, sample_dt)


def sample_stroboscopic(
    p: TrapParams,
    s0: PhaseState,
    n_periods: int,
    ctl: StepControl | None = None,
) -> SectionPoints:
    """Stroboscopic phase-space section sampled at t = n * (2*pi/omega).

    Emits n_periods + 1 points (the initial state is point n=0).  The
    landing times are exact multiples of the period by construction.
    """
    if p.de1 == 0.0:
        raise ValueError("stroboscopic sections need a modulated trap (de1 != 0)")
    if not 1 <= n_periods <= MAX_TARGETS:
        raise ValueError(f"'n_periods' must lie in [1, {MAX_TARGETS}], got {n_periods}")
    period = p.period
    traj = _trajectory(p, s0, n_periods * period, ctl, sample_dt=period)
    return section_from_trajectory(traj, period)


def section_from_trajectory(traj: Trajectory, period: float) -> SectionPoints:
    """Extract the stroboscopic section from an evenly sampled trajectory.

    The trajectory's sample step must divide the period; sample times are
    checked against n*period to within 1e-9*period.  Useful when one run
    feeds both a section and time-series diagnostics.
    """
    if len(traj) < 2:
        raise ValueError("trajectory too short for a section")
    dt = traj.t[1] - traj.t[0]
    stride = int(round(period / dt))
    if stride < 1 or abs(stride * dt - period) > 1e-9 * period:
        raise ValueError(
            f"sample step {dt!r} does not divide the period {period!r}"
        )
    idx = np.arange(0, len(traj), stride)
    t_sec = traj.t[idx]
    n = np.arange(len(idx))
    if np.max(np.abs(t_sec - n * period)) > 1e-9 * period:
        raise ValueError("trajectory samples do not land on period multiples")
    return SectionPoints(
        params=traj.params,
        control=traj.control,
        period=period,
        n=n,
        t=t_sec,
        z=traj.z[idx],
        dz_dt=traj.dz_dt[idx],
    )
