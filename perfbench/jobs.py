"""Workloads of the bjj benchmark: jobs made from a seed, and their output checks.

A job is one CLI invocation (``bjj.cli.main(argv)``) or one call into the
public Python API.  Every job starts from a preset plus overrides; the seed
only picks the scan's drive amplitudes and small offsets to each job's
initial state, so the program receives nothing but these generated inputs.
Checks use physics tolerances rather than byte digests, so a legitimate
change of stepper still passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import bjj

ROOT = Path(__file__).resolve().parents[1]

#: Offsets added to each job's initial (z0, phi0); small enough that every
#: check below holds for any seed.
STATE_JITTER = 2e-3

#: Finite-time Lyapunov exponent at horizon ``END_HORIZON`` separating the
#: regular end of the scan from the chaotic end.  Over 613 starts within
#: ``STATE_JITTER`` of z0=0.5 the regular end gave 0.051 to 0.074; over 647
#: starts the chaotic end gave 0.095 to 0.95.  A start that sticks near an
#: island stays low, so an end's verdict takes the largest exponent of
#: ``END_STARTS`` starts: over 200 seeds that was 0.18 or more at the
#: chaotic end.
LYAPUNOV_SPLIT = 0.11
END_HORIZON = 100.0
END_STARTS = 2
CELL_HORIZON = 50.0


@dataclass(frozen=True)
class Job:
    """One unit of work: a CLI subcommand or an API call, plus its check.

    ``command`` is a bjj subcommand when ``run`` is None; otherwise ``run``
    receives the resolved RunConfig and returns a dict of results.  ``check``
    maps the job's output (CLI text or that dict) to a list of problems.
    """

    name: str
    command: str
    preset: str
    overrides: dict[str, object]
    check: Callable[[object], list[str]]
    run: Callable[[bjj.RunConfig], dict] | None = None

    def argv(self) -> list[str]:
        args = [self.command, "--preset", self.preset]
        for key, value in self.overrides.items():
            # one token, so argparse never reads a value like -1e-05 as a flag
            args.append(f"--{key.replace('_', '-')}={value!r}")
        return args


def resolve(job: Job) -> bjj.RunConfig:
    """Resolve a job's configuration through the public config API."""
    base = bjj.parse_config(ROOT / "presets" / f"{job.preset}.cfg")
    cfg = bjj.RunConfig.from_values(bjj.merge_sources(base, dict(job.overrides)))
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# output parsing shared by the checks


def csv_rows(text: str) -> tuple[list[str], np.ndarray]:
    """Header columns and the numeric rows of a bjj CSV output."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    if not body:
        raise ValueError("no header line")
    rows = np.array([line.split(",") for line in body[1:]], dtype=float)
    return body[0].split(","), rows.reshape(len(body) - 1, -1)


def _non_finite_json(value: object) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, str):
        return value.lower() in ("nan", "inf", "-inf", "+inf")
    if isinstance(value, dict):
        return any(_non_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return any(_non_finite_json(v) for v in value)
    return False


def non_finite(output: object) -> bool:
    """True when a CSV, JSON or API output holds a NaN or an infinity."""
    if isinstance(output, dict):
        return any(not np.all(np.isfinite(np.asarray(v, dtype=float)))
                   for v in output.values())
    text = str(output)
    if text.lstrip().startswith("{"):
        return _non_finite_json(json.loads(text))
    _, rows = csv_rows(text)
    return not bool(np.all(np.isfinite(rows)))


def check_output(job: Job, output: object) -> list[str]:
    """Problems with a job's output; an empty list means it is correct."""
    try:
        if non_finite(output):
            return ["non-finite number in the output"]
        return job.check(output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc}"]


def _grid_problems(t: np.ndarray, step: float, t_end: float) -> list[str]:
    """Samples must sit exactly on k*step, with the end exactly on t_end."""
    expected = np.arange(int(math.floor(t_end / step + 1e-9)) + 1) * step
    if expected[-1] > t_end:
        expected[-1] = t_end
    elif t_end - expected[-1] > 1e-9 * step:
        expected = np.append(expected, t_end)
    if not np.array_equal(t, expected):
        return [f"sample times are not exact multiples of {step} ending at {t_end}"]
    return []


# --------------------------------------------------------------------------
# section: stroboscopic sections of long driven runs (figs 5-6)


def _section_check(n_periods: int, verdict: str) -> Callable[[object], list[str]]:
    def check(text: object) -> list[str]:
        cols, rows = csv_rows(str(text))
        if cols != ["n", "z", "dzdt"] or len(rows) != n_periods + 1:
            return [f"expected n,z,dzdt with {n_periods + 1} rows"]
        n, z, dz = rows.T
        problems = []
        if not np.array_equal(n, np.arange(n_periods + 1)):
            problems.append("section indices are not 0..n_periods")
        if np.max(np.abs(z)) >= 1.0:
            problems.append("|z| reached 1")
        spread = float(np.hypot(np.ptp(z), np.ptp(dz)))
        if verdict == "chaotic":
            # the chaotic sea fills both wells: wide spread, both signs of z
            if spread < 1.5 or z.min() > -0.2 or z.max() < 0.2:
                problems.append(f"not chaotic: spread {spread:.3g}, z in "
                                f"[{z.min():.3g}, {z.max():.3g}]")
        elif z.min() <= 0.1:
            problems.append(f"self-trapping lost: min z = {z.min():.3g}")
        return problems

    return check


def _section_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for preset, z0, n_periods, verdict in (
        ("fig5_de1_7.5", 0.5, 1000, "chaotic"),
        ("fig6_de1_1.565", 0.75, 600, "trapped"),
    ):
        jobs.append(Job(
            name=f"poincare:{preset}",
            command="poincare",
            preset=preset,
            overrides={
                "z0": z0 + rng.uniform(-STATE_JITTER, STATE_JITTER),
                "phi0": rng.uniform(-STATE_JITTER, STATE_JITTER),
                "n_periods": n_periods,
            },
            check=_section_check(n_periods, verdict),
        ))
    return jobs


# --------------------------------------------------------------------------
# dense_series: time series on the h_max-capped grid (figs 4, 7)


def _series_check(lam: float, t_end: float, step: float,
                  energy_tol: float | None) -> Callable[[object], list[str]]:
    def check(text: object) -> list[str]:
        cols, rows = csv_rows(str(text))
        if cols != ["t", "z", "phi", "dzdt"]:
            return ["expected columns t,z,phi,dzdt"]
        t, z, phi, dz = rows.T
        problems = _grid_problems(t, step, t_end)
        if np.max(np.abs(z)) >= 1.0:
            problems.append("|z| reached 1")
        root = np.sqrt(1.0 - z * z)
        if np.max(np.abs(dz + root * np.sin(phi))) > 1e-12:
            problems.append("dzdt column disagrees with the flow at the samples")
        if energy_tol is not None:
            h = 0.5 * lam * z * z - root * np.cos(phi)
            drift = float(np.max(np.abs(h - h[0])))
            if drift > energy_tol:
                problems.append(f"energy drift {drift:.3g} > {energy_tol:g}")
        return problems

    return check


def _crosscheck_check(n_compared: int, tol: float) -> Callable[[object], list[str]]:
    def check(text: object) -> list[str]:
        rep = json.loads(str(text))
        problems = []
        if rep["n_compared"] != n_compared:
            problems.append(f"compared {rep['n_compared']} samples, not {n_compared}")
        if not rep["max_abs_dz"] <= tol:
            problems.append(f"routes disagree: max |dz| = {rep['max_abs_dz']:.3g}")
        return problems

    return check


def _dense_jobs(rng: random.Random) -> list[Job]:
    def state(z0: float) -> dict[str, object]:
        return {"z0": z0 + rng.uniform(-STATE_JITTER, STATE_JITTER),
                "phi0": rng.uniform(-STATE_JITTER, STATE_JITTER)}

    # sample_dt equals each run's h_max (period/50 at omega=4pi, 0.05 undriven)
    return [
        Job("simulate:fig7_left", "simulate", "fig7_left",
            {**state(0.5), "t_end": 200.0, "sample_dt": 0.01},
            _series_check(10.0, 200.0, 0.01, energy_tol=None)),
        Job("simulate:fig4a", "simulate", "fig4a",
            {**state(0.5), "t_end": 400.0, "sample_dt": 0.05},
            _series_check(10.0, 400.0, 0.05, energy_tol=1e-6)),
        # de1=3 at omega=4pi stays on a regular island, so the two routes
        # cannot drift apart chaotically.
        Job("crosscheck:fig5_de1_3.0", "crosscheck", "fig5_de1_3.0",
            {**state(0.5), "t_end": 50.0, "sample_dt": 0.01},
            _crosscheck_check(5001, 1e-6)),
    ]


# --------------------------------------------------------------------------
# threshold_scan: amplitude sweep at omega=4pi plus the Melnikov side (fig 3)


SCAN_ENDS = (3.0, 7.5)
SCAN_INTERIOR = 4


def _scan_cell(cfg: bjj.RunConfig,
               more_starts: tuple[tuple[float, float], ...] = ()) -> dict:
    """Section, locking spread and Lyapunov exponents of one scan cell.

    The exponents are of the configured start followed by ``more_starts``.
    """
    ctl = cfg.control()
    sec = bjj.sample_stroboscopic(cfg.trap, cfg.state0, cfg.n_periods, ctl=ctl)
    rep = bjj.detect_frequency_locking(
        sec, cluster_tol=cfg.cluster_tol, max_order=cfg.max_order,
        discard_periods=0, chaos_spread_min=cfg.chaos_spread_min,
    )
    lyap = [bjj.lyapunov_estimate(cfg.trap, z0, phi0, ctl=ctl, horizon=cfg.horizon,
                                  renorm_interval=cfg.renorm_interval, d0=cfg.d0)
            for z0, phi0 in ((cfg.z0, cfg.phi0), *more_starts)]
    return {"t": sec.t, "z": sec.z, "dz_dt": sec.dz_dt, "period": cfg.period,
            "spread": rep.spread, "lyapunov": lyap}


def _cell_check(de1: float, n_periods: int) -> Callable[[object], list[str]]:
    def check(out: object) -> list[str]:
        t = out["t"]
        problems = []
        if len(t) != n_periods + 1 or not np.array_equal(
            t, np.arange(n_periods + 1) * out["period"]
        ):
            problems.append("section times are not exact period multiples")
        if np.max(np.abs(out["z"])) >= 1.0:
            problems.append("|z| reached 1")
        lyap = max(out["lyapunov"])
        if de1 == SCAN_ENDS[0] and not lyap < LYAPUNOV_SPLIT:
            problems.append(f"regular end has Lyapunov exponent {lyap:.3g}")
        if de1 == SCAN_ENDS[1] and not lyap > LYAPUNOV_SPLIT:
            problems.append(f"chaotic end has Lyapunov exponent {lyap:.3g}")
        return problems

    return check


#: Multiples of de1_critical at which both Melnikov integrals are compared:
#: 0 leaves the damping term alone, 1 is the curve itself (where the closed
#: form vanishes), and 0.5 and 2 weigh the drive term against the damping.
MELNIKOV_FACTORS = (0.0, 0.5, 1.0, 2.0)


def _melnikov(cfg: bjj.RunConfig) -> dict:
    frame = bjj.SeparatrixFrame(lam=cfg.lam, h=cfg.energy, c0=cfg.c0)
    curve = bjj.stability_curve(frame, cfg.eta, omega_min=cfg.omega_min,
                                omega_max=cfg.omega_max, n_points=cfg.n_points)
    # quadrature along the curve, away from the asymptote at omega = 1
    picks = [i for i in range(0, len(curve.omega), 12)
             if abs(curve.omega[i] - 1.0) > 0.3]
    closed, numeric = [], []
    for i in picks:
        for factor in MELNIKOV_FACTORS:
            p = bjj.TrapParams(lam=cfg.lam, omega=float(curve.omega[i]), eta=cfg.eta,
                               de1=factor * float(curve.de1_critical[i]))
            closed.append(bjj.melnikov_closed(frame, p))
            numeric.append(bjj.melnikov_numeric(frame, p, xi_max=cfg.xi_max)[0])
    return {"closed": closed, "numeric": numeric}


def _melnikov_check(out: object) -> list[str]:
    closed = np.asarray(out["closed"]).reshape(-1, len(MELNIKOV_FACTORS))
    numeric = np.asarray(out["numeric"]).reshape(closed.shape)
    # the damping term (de1 = 0) sets the scale: off the curve both integrals
    # are of its size, on the curve they must vanish to a tiny share of it
    damping = np.abs(closed[:, :1])
    if not np.all(damping > 0.0):
        return ["Melnikov damping term is zero; the comparison has no scale"]
    if np.any(np.abs(closed - numeric) > 1e-6 * damping):
        return ["closed-form Melnikov integral disagrees with quadrature"]
    return []


def _scan_jobs(rng: random.Random) -> list[Job]:
    lo, hi = SCAN_ENDS
    width = (hi - lo) / (SCAN_INTERIOR + 1)
    cells = [lo] + [lo + width * (k + rng.uniform(0.7, 1.3))
                    for k in range(SCAN_INTERIOR)] + [hi]
    n_periods = 150
    def start() -> tuple[float, float]:
        return (0.5 + rng.uniform(-STATE_JITTER, STATE_JITTER),
                rng.uniform(-STATE_JITTER, STATE_JITTER))

    jobs = []
    for de1 in cells:
        z0, phi0 = start()
        run = _scan_cell
        horizon = CELL_HORIZON
        if de1 in SCAN_ENDS:
            # only the ends carry a Lyapunov verdict, which needs the longer
            # horizon and more than one start
            run = partial(_scan_cell, more_starts=tuple(
                start() for _ in range(END_STARTS - 1)))
            horizon = END_HORIZON
        jobs.append(Job(
            f"scan:de1={de1:.4f}", "scan-cell", "fig5_de1_3.0",
            {"de1": de1, "z0": z0, "phi0": phi0,
             "n_periods": n_periods, "horizon": horizon},
            _cell_check(de1, n_periods), run=run))
    jobs.append(Job("melnikov:fig3_eta0.1", "melnikov-curve", "fig3_eta0.1",
                    {"energy": 0.5 + rng.uniform(-0.01, 0.01)},
                    _melnikov_check, run=_melnikov))
    return jobs


WORKLOADS: dict[str, Callable[[random.Random], list[Job]]] = {
    "section": _section_jobs,
    "dense_series": _dense_jobs,
    "threshold_scan": _scan_jobs,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for this seed; the same seed gives the same jobs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
