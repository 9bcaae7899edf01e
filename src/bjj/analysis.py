"""Diagnostics on trajectories and stroboscopic sections.

Power spectra distinguish quasiperiodic from chaotic runs, the section
clustering detector identifies frequency-locked attractors of the damped
system, and the tangent-space Lyapunov estimate quantifies sensitivity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BjjError
from .integrate import _MAX_SPAN, MAX_TARGETS, StepControl, Trajectory, default_control
from .model import TrapParams, make_rate

__all__ = [
    "Spectrum",
    "AttractorReport",
    "power_spectrum",
    "dominant_bin",
    "time_average_z",
    "detect_frequency_locking",
    "lyapunov_estimate",
]

_WINDOWS = ("rect", "hann")
#: Smallest norm of a Lyapunov tangent vector whose direction keeps full
#: precision: below it the vector is subnormal or zero.
_NORMAL = sys.float_info.min
#: Fewest samples power_spectrum takes.
_MIN_SAMPLES = 16


@dataclass(frozen=True)
class Spectrum:
    """One-sided power spectrum of a mean-removed, evenly sampled series.

    freqs is in cycles per time unit, spaced 1/(n*dt) for n samples dt
    apart; power is normalized so that with
    the rectangular window the total equals the variance of the series
    (Parseval).  A drive at angular frequency w shows up at w / 2 pi.
    """

    freqs: np.ndarray
    power: np.ndarray


def _check_samples(n: int) -> None:
    if n < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples, got {n}")


def power_spectrum(t: np.ndarray, x: np.ndarray, window: str = "hann") -> Spectrum:
    """Spectrum of x(t) on a uniform grid; mean removed before windowing."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if t.ndim != 1 or t.shape != x.shape:
        raise ValueError("t and x must be one-dimensional and equally long")
    _check_samples(len(t))
    if window not in _WINDOWS:
        raise ValueError(f"'window' must be one of {_WINDOWS}, got {window!r}")
    steps = np.diff(t)
    dt = float(steps[0])
    if not dt > 0.0 or not np.max(np.abs(steps - dt)) <= 1e-9 * dt:
        raise ValueError("samples are not evenly spaced")

    n = len(x)
    y = x - x.mean()
    if window == "hann":
        y = y * np.hanning(n)
    spec = np.fft.rfft(y)
    power = np.abs(spec) ** 2 / (n * n)
    # one-sided: interior bins carry their mirror's share
    power[1:] *= 2.0
    if n % 2 == 0:
        power[-1] *= 0.5
    return Spectrum(freqs=np.fft.rfftfreq(n, d=dt), power=power)


def dominant_bin(spec: Spectrum) -> tuple[float, float]:
    """(frequency, fraction of non-DC power) of the strongest non-DC bin."""
    power = spec.power[1:]
    total = float(power.sum())
    if total <= 0.0:
        return 0.0, 0.0
    i = int(np.argmax(power))
    return float(spec.freqs[1 + i]), float(power[i] / total)


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def time_average_z(t: np.ndarray, z: np.ndarray, t_discard: float = 0.0) -> float:
    """Trapezoid mean of z(t) over samples with t >= t_discard."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    keep = t >= t_discard
    t_sel = t[keep]
    z_sel = z[keep]
    if len(t_sel) < 2:
        raise ValueError("need at least 2 samples past t_discard")
    span = t_sel[-1] - t_sel[0]
    if span <= 0.0:
        raise ValueError("samples must span a positive interval")
    return float(_trapezoid(z_sel, t_sel) / span)


@dataclass(frozen=True)
class AttractorReport:
    """Outcome of section clustering.

    kind is "FixedCycle" (with order p and the p cluster centers),
    "Chaotic" (spread beyond chaos_spread_min with no admissible cycle) or
    "Undecided".  transient_periods is the first section index from which
    every later point stays within cluster_tol of its cluster center; it
    is 0 for non-locked kinds.  mean_z averages the retained points.
    """

    kind: str
    order: int | None
    mean_z: float
    transient_periods: int
    spread: float
    cluster_centers: tuple[tuple[float, float], ...] | None


def _diameter(pts: np.ndarray) -> float:
    """Exact max pairwise distance: brute force over the vertices of the
    convex hull (Andrew's monotone chain, collinear and repeated points
    dropped); a distance never depends on which end it is taken from."""
    ordered = pts[np.lexsort((pts[:, 1], pts[:, 0]))].tolist()
    hull = []
    for chain_pts in (ordered, ordered[::-1]):  # lower chain, then upper
        chain = []
        for x, y in chain_pts:
            while len(chain) > 1:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):  # a left turn
                    break
                chain.pop()
            chain.append((x, y))
        hull += chain[:-1]  # each chain's last point starts the other
    hull_pts = np.array(hull)
    d2 = 0.0
    for i in range(len(hull_pts) - 1):
        diff = hull_pts[i + 1 :] - hull_pts[i]
        m = float(np.max(np.einsum("ij,ij->i", diff, diff)))
        if m > d2:
            d2 = m
    return math.sqrt(d2)


def _check_locking(cluster_tol: float, max_order: int, chaos_spread_min: float) -> None:
    if not cluster_tol > 0.0:
        raise ValueError(f"'cluster_tol' must be > 0, got {cluster_tol!r}")
    if max_order < 1:
        raise ValueError(f"'max_order' must be >= 1, got {max_order!r}")
    if not chaos_spread_min > 0.0:
        raise ValueError(f"'chaos_spread_min' must be > 0, got {chaos_spread_min!r}")


def _check_section_length(n_points: int, discard_periods: int, max_order: int) -> None:
    if n_points <= discard_periods + 10 * max_order:
        raise ValueError(
            f"need more than discard_periods + 10*max_order = "
            f"{discard_periods + 10 * max_order} section points, got {n_points}"
        )


def detect_frequency_locking(
    section: Trajectory,
    cluster_tol: float = 1e-3,
    max_order: int = 12,
    discard_periods: int = 2000,
    chaos_spread_min: float = 0.2,
) -> AttractorReport:
    """Classify the asymptotic behaviour of a stroboscopic section, a
    trajectory on the drive-period grid (sample_stroboscopic).

    After dropping the first discard_periods points, the retained points
    are grouped by section index mod p for p = 1..max_order; the smallest
    p whose residue classes all sit within cluster_tol of their centroids
    is reported as a locked cycle of that order.  Failing that, a point
    cloud whose diameter exceeds chaos_spread_min is chaotic; anything
    else (quasiperiodic loops, undamped islands) is undecided.  A section
    with a non-finite point is rejected before any clustering.
    """
    _check_locking(cluster_tol, max_order, chaos_spread_min)
    if discard_periods < 0:
        raise ValueError(f"'discard_periods' must be >= 0, got {discard_periods!r}")
    pts = np.column_stack([section.z, section.dz_dt])
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        raise ValueError(
            f"section has {len(bad)} non-finite points, the first at index {bad[0]}"
        )
    _check_section_length(len(pts), discard_periods, max_order)
    kept = pts[discard_periods:]
    mean_z = float(kept[:, 0].mean())
    spread = _diameter(kept)

    for p in range(1, max_order + 1):
        centers = np.empty((p, 2))
        ok = True
        for r in range(p):
            cls = kept[r::p]
            c = cls.mean(axis=0)
            centers[r] = c
            if np.max(np.hypot(cls[:, 0] - c[0], cls[:, 1] - c[1])) > cluster_tol:
                ok = False
                break
        if not ok:
            continue
        # residue r of the retained slice corresponds to absolute section
        # index (discard_periods + r) mod p; align centers to absolute
        # indices before scanning the full history for the transient end.
        by_abs = np.empty_like(centers)
        for r in range(p):
            by_abs[(discard_periods + r) % p] = centers[r]
        dist = np.hypot(
            pts[:, 0] - by_abs[np.arange(len(pts)) % p, 0],
            pts[:, 1] - by_abs[np.arange(len(pts)) % p, 1],
        )
        outside = np.nonzero(dist > cluster_tol)[0]
        transient = int(outside[-1]) + 1 if len(outside) else 0
        return AttractorReport(
            kind="FixedCycle",
            order=p,
            mean_z=mean_z,
            transient_periods=transient,
            spread=spread,
            cluster_centers=tuple((float(a), float(b)) for a, b in by_abs),
        )

    kind = "Chaotic" if spread > chaos_spread_min else "Undecided"
    return AttractorReport(
        kind=kind,
        order=None,
        mean_z=mean_z,
        transient_periods=0,
        spread=spread,
        cluster_centers=None,
    )


def _check_lyapunov(horizon: float, renorm_interval: float, d0: float) -> None:
    if not 0.0 < d0 < math.inf:
        raise ValueError(f"'d0' must be finite and > 0, got {d0!r}")
    if not renorm_interval > 0.0:
        raise ValueError(f"'renorm_interval' must be > 0, got {renorm_interval!r}")
    if not renorm_interval <= horizon < math.inf:
        raise ValueError(
            f"'horizon' must be finite and >= renorm_interval={renorm_interval!r}, "
            f"got {horizon!r}"
        )
    if not horizon / renorm_interval <= MAX_TARGETS:
        raise ValueError(
            f"'renorm_interval' must leave at most {MAX_TARGETS} intervals "
            f"up to horizon={horizon!r}, got {renorm_interval!r}"
        )


def lyapunov_estimate(
    p: TrapParams,
    z0: float,
    phi0: float,
    ctl: StepControl | None = None,
    horizon: float = 1000.0,
    renorm_interval: float = 0.5,
    d0: float = 1e-8,
) -> float:
    """Largest Lyapunov exponent by the tangent-space method (Benettin,
    Galgani, Giorgilli & Strelcyn, Meccanica 15, 9 (1980); Shimada &
    Nagashima, Prog. Theor. Phys. 61, 1605 (1979)).

    A tangent vector v, started along z, is integrated with the orbit: it
    rides the coarse RK4 step of every accepted step through the rate's
    forward-mode derivative, so v is the exact derivative of the orbit's
    chain of coarse RK4 maps (O(h^4) from the flow's), and the orbit keeps
    the bits and steps of a chain of advance calls.  Each renorm_interval
    is one run from h_init, as advance runs; after it log|v| is
    accumulated and v is rescaled to unit length.  Regular orbits give
    ~ log(T)/T, decaying toward zero with the horizon; chaotic ones
    converge to a positive rate.  d0, the clone offset of the earlier
    two-trajectory method, is still checked (finite, > 0) but enters
    nothing.  ValueError, naming horizon and h_max, when the horizon is
    more than 10^9 steps of ctl.h_max.  BjjError, naming t, z and the
    interval, when |v| is not finite after an interval, or zero or
    subnormal (its direction has lost precision): a shorter
    renorm_interval keeps it in range.
    """
    _check_lyapunov(horizon, renorm_interval, d0)
    if ctl is None:
        ctl = default_control(p)
    # the driver bounds each interval's span; this bounds the whole run's
    if horizon / ctl.h_max > _MAX_SPAN:
        raise ValueError(
            f"'horizon'={horizon!r} is more than {_MAX_SPAN} steps of h_max={ctl.h_max!r}"
        )
    from ._jvp import _tangent

    step = partial(_tangent(make_rate(p), 2), (p.de0, p.de1, p.omega))
    n_int = int(round(horizon / renorm_interval))
    t, y = 0.0, (z0, phi0, 1.0, 0.0)
    total = 0.0
    for k in range(n_int):
        t, (z, phi, vz, vphi) = step(t, y, [(k + 1) * renorm_interval], ctl)
        norm = math.hypot(vz, vphi)
        if not _NORMAL <= norm < math.inf:
            raise BjjError(
                f"tangent vector norm {norm!r} at t={t!r}, z={z!r} after a "
                f"renorm_interval of h={renorm_interval!r}"
            )
        total += math.log(norm)
        y = (z, phi, vz / norm, vphi / norm)
    return total / (n_int * renorm_interval)
