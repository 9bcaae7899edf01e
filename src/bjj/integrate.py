"""Adaptive fourth-order Runge-Kutta integration with exact sample landing.

The driver advances classical RK4 steps and controls the local error by
step doubling: each step is taken once at h and twice at h/2, the
per-component difference (scaled by 1/15) is the error estimate, and the
accepted state is the Richardson-extrapolated fine solution.  Requested
output times are hit exactly by clamping the step, never by interpolation,
which is what makes stroboscopic sections of driven runs trustworthy.

The driver takes a state of n float components and a flat rate
f(t, de, y0, ..., yn-1).  _drive is written out, and runs as written, for
two components: the reduced (z, phi) system.  The driver owns the drive:
it evaluates the tilt de(t) = de0 + de1*sin(omega*t) once per distinct
stage time and hands it to every rate call at that time.  A driven step
evaluates it five times (the tilt at the step's start is carried over
from the end of the step before, or evaluated afresh after a landing); an
undriven one never does.  The rates add the tilt first, so passing the
sum in keeps every bit.

Every run goes through bjj._specialise._stepper(f, n), which writes the
rate into the driver's source (a Lyapunov run through
bjj._jvp._tangent(f, n), which writes in the rate's derivative as well
and carries a tangent vector).  That ast machinery is imported on the
first run, not with this module.  The driver hands each recorded state
over with its rate, so Trajectory.dz_dt costs no rate call of its own.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BjjError, SingularityError, StepUnderflowError
from .model import PhaseState, RateFn, TrapParams, make_rate

__all__ = [
    "StepControl",
    "Trajectory",
    "default_control",
    "advance",
    "integrate_adaptive",
    "sample_stroboscopic",
    "section_from_trajectory",
]

# n float components: (z, phi), or the oracle's (a1.real, a1.imag, a2.real,
# a2.imag).
State = tuple[float, ...]

_MAX_GROW = 5.0
_MIN_SHRINK = 0.1

#: Most landing targets one run may request (the target list is built up
#: front), most rows an every-step recording may hold, and the largest
#: Lyapunov interval count and grid size (n_points, n_z).
MAX_TARGETS = 10**7
#: Most steps of h_max one driver call may span: twice what the longest
#: section needs, MAX_TARGETS periods at h_max = period/50.
_MAX_SPAN = 100 * MAX_TARGETS


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


def _default_h_max(p: TrapParams) -> float:
    return min(0.05, p.period / 50.0) if p.de1 != 0.0 else 0.05


def default_control(p: TrapParams) -> StepControl:
    """Default policy for a given drive: h_max resolves fifty steps per
    drive period when the trap is modulated, 0.05 otherwise."""
    return StepControl(h_max=_default_h_max(p))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the reduced equations.

    A stroboscopic section is one too: sample_stroboscopic lands row k at
    t = k * period, so the row index is the section index.  dz_dt holds
    the actual flow derivative (damping included): the first component of
    the rate at every row, the stage-1 rate that the driver evaluated there
    and handed over with the state.
    """

    t: np.ndarray
    z: np.ndarray
    phi: np.ndarray
    dz_dt: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


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

    y holds two float components (_specialised(n) is this driver for n).
    drive is (de0, de1, omega): every rate call gets the tilt
    de0 + de1*sin(omega*t) at its stage time, evaluated once per distinct
    stage time (never when de1 == 0, where every stage gets de0).
    The stage-1 rate k is first-same-as-last (Dormand & Prince, J. Comput.
    Appl. Math. 6, 19 (1980)): it is evaluated once per state, at the
    start and after each accepted step, so a call makes
    1 + 10 * attempted + accepted rate calls.  on_target fires at every
    target (after exact landing) and on_step at every accepted step that
    ends before its target, each with (t, y + k): the state's two
    components, then their rates, so each fires once per state.
    The one judge of a run's inputs, so every route ends alike: ValueError
    when the targets end before t (or either is NaN); then, before the
    tilt, the budget or any rate, a BjjError naming t, the state and h for
    a start whose t or state is not finite; then ValueError naming t_end,
    the span and h_max when the span is more than _MAX_SPAN steps of h_max;
    SingularityError naming t, z and h from k at a start or accepted state
    in the guard band (so the returned state is never there) or from a
    trial state at h_min; a BjjError naming t, the state and h for a
    ValueError from k or from the tilt at the start or a landing (a trial
    stage's is a rejection).  Raises StepUnderflowError when the
    tolerance cannot be met above h_min; a NaN error estimate never
    passes the tolerance test.  Raises BjjError, naming t, the state, h
    and the count, once the call has attempted
    1000 * (targets after t + ceil((targets[-1] - t) / h_max)) + 100000
    steps, accepted and rejected; it names the guard band rather than
    h_max when more than half of them were rejected for a singular trial
    state.
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
    y0, y1 = y
    if targets and not targets[-1] >= t:
        raise ValueError(f"t_end={targets[-1]} precedes initial time {t}")
    # Before the tilt, the budget and the stage-1 rate, so that a start that
    # is not finite ends here on every route; the error test then rejects a
    # step to a state that is not finite.
    if not all(map(math.isfinite, (t, y0, y1))):
        raise BjjError(f"start is not finite at t={t!r}, state={(y0, y1)!r}, h={h!r}")
    # A span of more than _MAX_SPAN h_max-steps would run for hours at least.
    span = (targets[-1] - t) / h_max if targets else 0.0
    if span > _MAX_SPAN:
        raise ValueError(f"t_end={targets[-1]!r} lies {targets[-1] - t!r} past t={t!r}, "
                         f"more than {_MAX_SPAN} steps of h_max={h_max!r}")
    # The step budget: 1000 attempts per target after t and per h_max of
    # the span, and 100000 more.  It ends a run whose error test admits only
    # steps far below h_max, such as one whose phi nears the float range,
    # which would run for hours.
    ahead = len(targets) - bisect_right(targets, t)
    budget = 1000 * (ahead + math.ceil(span)) + 100000
    steps = in_band = 0
    # The stage-1 rate k at the current state, evaluated here and after each
    # accepted step, is first-same-as-last: a rejected step reuses it, and
    # the callbacks get it with the state.  A singular current state raises
    # here, whatever h, naming h; a ValueError, from the rate or from the
    # tilt (whose omega*t may overflow), as a BjjError.
    try:
        de = de0 + de1 * sin(omega * t) if driven else de0
        k0, k1 = f(t, de, y0, y1)
    except SingularityError as exc:
        raise SingularityError(exc.t, exc.z, h) from None
    except ValueError as exc:
        raise BjjError(f"rate failed at t={t!r}, state={(y0, y1)!r}, h={h!r}: {exc}") from None

    for target in targets:
        while t < target:
            steps += 1
            if steps > budget:
                # steps rejected for a singular trial state do not shrink
                # with h_max: an orbit held at the guard band spends them
                raise BjjError(
                    f"{budget} accepted and rejected steps, the run's budget, spent at "
                    f"t={t!r}, state={(y0, y1)!r}, h={h!r}; "
                    + (f"{in_band} of them were rejected for a trial state in the guard band "
                       "around |z| = 1, which no h_max avoids" if 2 * in_band > budget
                       else "a smaller h_max allows more steps")
                )
            gap = target - t
            if h >= gap:
                h_try = gap
                landing = True
            else:
                h_try = h
                landing = False

            # One classical RK4 step of h_try (to b) and two of h_try/2 (to
            # m, then n), all from the stage-1 rate k at t.  Singular trial
            # states along the step are treated as a rejection, and so are
            # trial states and stage tilts that overflowed (math.sin(inf)
            # raises ValueError).
            half = 0.5 * h_try
            q = 0.5 * half
            t_half = t + half
            t_q = t + q
            t_full = t + h_try
            t_hq = t_half + q
            t_fine = t_half + half
            try:
                if driven:
                    de_half = de0 + de1 * sin(omega * t_half)
                    de_q = de0 + de1 * sin(omega * t_q)
                    de_full = de0 + de1 * sin(omega * t_full)
                    de_hq = de0 + de1 * sin(omega * t_hq)
                    de_fine = de0 + de1 * sin(omega * t_fine)
                else:
                    de_half = de_q = de_full = de_hq = de_fine = de0
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
                singular = isinstance(exc, SingularityError)
                if h_try <= underflow_edge:
                    if singular:
                        raise SingularityError(exc.t, exc.z, h_try) from None
                    raise StepUnderflowError(t, (y0, y1), h_try, h_min) from None
                in_band += singular
                h = max(h_min, 0.5 * h_try)
                continue

            # err = |n - b| / (15 (abs_tol + rel_tol max(|y|, |n|))) per
            # component; a zero difference scores 0 without a division, and a
            # NaN error sticks as the step's ratio.
            e0 = n0 - b0
            e1 = n1 - b1
            ratio = 0.0
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
                try:
                    if landing and driven:
                        de = de0 + de1 * sin(omega * t)
                    k0, k1 = f(t, de, y0, y1)
                except SingularityError as exc:
                    raise SingularityError(exc.t, exc.z, h) from None
                except ValueError as exc:
                    raise BjjError(
                        f"rate failed at t={t!r}, state={(y0, y1)!r}, h={h!r}: {exc}"
                    ) from None
                # a step that is no landing may still end on the target by
                # rounding; on_target records that state
                if t < target and on_step is not None:
                    on_step(t, (y0, y1) + (k0, k1))
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
            on_target(t, (y0, y1) + (k0, k1))
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
    targets = (np.arange(1, n + 1) * sample_dt).tolist()  # k * sample_dt, as floats
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
) -> tuple[np.ndarray, np.ndarray]:
    """Recorded times and rows of one run from (t0, y0) to t_end under the
    drive (de0, de1, omega): an array of rows of 2 * len(y0) floats, each
    the state and then its rate, as the driver hands them over.

    The initial state is the first row, the driver's first target.  With
    sample_dt unset every accepted step is recorded, up to MAX_TARGETS
    rows; otherwise only the multiples of sample_dt (sample grids are
    anchored at t=0) and t_end, each landed exactly.  The driver judges
    the start, t_end and the step budget (see _drive).
    """
    from ._specialise import _stepper

    step = _stepper(rate, len(y0))
    # Rows go into flat buffers of C doubles, 8 bytes a value, not into
    # tuples of Python floats.
    ts = array("d")
    ys = array("d")

    def record(t: float, y: State) -> None:
        ts.append(t)
        ys.extend(y)

    if sample_dt is None:
        def record_step(t: float, y: State) -> None:
            if len(ts) >= MAX_TARGETS:
                raise BjjError(
                    f"every-step recording stopped at t={t!r} after {len(ts)} rows; "
                    "set sample_dt to record a grid"
                )
            record(t, y)

        step(drive, t0, y0, [t0] if t_end == t0 else [t0, t_end], ctl,
             on_target=record_step, on_step=record_step)
    else:
        targets = [t0]
        if t_end != t0:
            if t0 != 0.0:
                raise ValueError("sample grids are anchored at t=0")
            targets += _sample_targets(t_end, sample_dt)
        step(drive, t0, y0, targets, ctl, on_target=record)
    return np.frombuffer(ts), np.frombuffer(ys).reshape(-1, 2 * len(y0))


def _trajectory(
    p: TrapParams,
    s0: PhaseState,
    t_end: float,
    ctl: StepControl | None,
    sample_dt: float | None,
) -> Trajectory:
    """Body of integrate_adaptive, shared with sample_stroboscopic so that
    one public entry point never runs inside another.

    z, phi and dz_dt are the first three columns of the driver's rows, so
    dz_dt is the rate the driver evaluated at each row.  The driver judges
    the start, t_end and the step budget (see _drive), as for advance; its
    error test admits only finite states, where dz/dt is finite too.
    """
    if ctl is None:
        ctl = default_control(p)
    drive = (p.de0, p.de1, p.omega)
    t, rows = _sample(make_rate(p), drive, s0.t, (s0.z, s0.phi), t_end, ctl, sample_dt)
    return Trajectory(t=t, z=rows[:, 0], phi=rows[:, 1], dz_dt=rows[:, 2])


def advance(
    p: TrapParams, s0: PhaseState, t_end: float, ctl: StepControl | None = None
) -> PhaseState:
    """Final state at t_end, recording nothing along the way.  The driver
    judges the start, t_end and the step budget (see _drive), as for
    integrate_adaptive: even at t_end = s0.t it evaluates the rate at s0."""
    if ctl is None:
        ctl = default_control(p)
    from ._specialise import _stepper

    drive = (p.de0, p.de1, p.omega)
    t, y = _stepper(make_rate(p), 2)(drive, s0.t, (s0.z, s0.phi), [t_end], ctl)
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
) -> Trajectory:
    """Stroboscopic phase-space section sampled at t = k * (2*pi/omega).

    The trajectory on the period grid: n_periods + 1 rows, row k at
    t = k * period exactly (landed by construction), the initial state
    being row 0.
    """
    if p.de1 == 0.0:
        raise ValueError("stroboscopic sections need a modulated trap (de1 != 0)")
    if not 1 <= n_periods <= MAX_TARGETS:
        raise ValueError(f"'n_periods' must lie in [1, {MAX_TARGETS}], got {n_periods}")
    return _trajectory(p, s0, n_periods * p.period, ctl, sample_dt=p.period)


def section_from_trajectory(traj: Trajectory, period: float) -> Trajectory:
    """The rows of an evenly sampled trajectory at t = k * period.

    The trajectory's sample step must divide the period; sample times are
    checked against k*period to within 1e-9*period.  Useful when one run
    feeds both a section and time-series diagnostics.
    """
    if len(traj) < 2:
        raise ValueError("trajectory too short for a section")
    # No stride for a NaN or repeated first time, a NaN period or a period
    # over a step so small that the count overflows.
    dt = float(traj.t[1] - traj.t[0])
    count = float(period) / dt if dt > 0.0 else 0.0
    stride = round(count) if count < math.inf else 0
    if stride < 1 or abs(stride * dt - period) > 1e-9 * period:
        raise ValueError(
            f"sample step {dt!r} does not divide the period {period!r}"
        )
    t = traj.t[::stride]
    if np.max(np.abs(t - np.arange(len(t)) * period)) > 1e-9 * period:
        raise ValueError("trajectory samples do not land on period multiples")
    return Trajectory(t=t, z=traj.z[::stride], phi=traj.phi[::stride],
                      dz_dt=traj.dz_dt[::stride])
