"""Command-line front end.

Subcommands produce plain-data output (CSV with ``# key=value`` metadata
lines, or JSON embedding the same resolved configuration) so any plotting
tool can consume them.  Exit codes: 0 success, 1 configuration/input error,
2 runtime failure (singular state, step underflow, quadrature failure).

Output is deterministic: same inputs give byte-identical output, and the
metadata echo of a run is itself a valid config file reproducing the run.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, separatrix, twomode
from .config import (
    _EXCLUSIVE,
    _KEYS,
    RunConfig,
    fmt,
    merge_sources,
    parse_config,
)
from .errors import BjjError, ConfigError
from .integrate import _sample_targets, integrate_adaptive, sample_stroboscopic
from .model import classify_regime, effective_potential, hamiltonian

__all__ = ["main", "console_main"]


# --------------------------------------------------------------------------
# serialization helpers


def _csv_text(cfg: RunConfig, header: str, *columns) -> str:
    """Metadata lines, the header, then row i from item i of every column.

    A column holds one type. Each row is one ``%`` over plain Python values
    that writes what ``fmt`` writes: ``%.17g`` for floats, ``%d`` for ints.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lines = cfg.metadata_lines()
    lines.append(header)
    if cols and len(cols[0]):
        row = ",".join("%.17g" if isinstance(c[0], float) else "%d" for c in cols)
        lines.extend(row % values for values in zip(*cols))
    return "\n".join(lines) + "\n"


def _json_value(value: object, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        return fmt(x) if math.isfinite(x) else f'"{fmt(x)}"'
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + _json_value(v, indent + 1) for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{"  " * (indent + 1)}"{k}": {_json_value(v, indent + 1)}'
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_text(payload: dict, cfg: RunConfig) -> str:
    payload = dict(payload)
    payload["config"] = dict(cfg.metadata_values())
    return _json_value(payload, 0) + "\n"


# --------------------------------------------------------------------------
# configuration assembly


def _find_preset(name: str) -> Path:
    tried: list[Path] = []
    candidates = [Path(name)]
    if not name.endswith(".cfg"):
        candidates.append(Path(name + ".cfg"))
    for base in (Path.cwd() / "presets", Path(__file__).resolve().parents[2] / "presets"):
        stem = name if name.endswith(".cfg") else name + ".cfg"
        candidates.append(base / stem)
    for cand in candidates:
        if cand.is_file():
            return cand
        tried.append(cand)
    raise ConfigError(
        f"preset '{name}' not found; tried: " + ", ".join(str(p) for p in tried)
    )


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _flag_overrides(args: argparse.Namespace) -> dict[str, object]:
    out: dict[str, object] = {}
    for key in _KEYS:
        value = getattr(args, f"ov_{key}")
        if value is not None:
            other = _EXCLUSIVE.get(key)
            if other in out:
                raise ConfigError(f"set exactly one of {_flag(other)} / {_flag(key)}")
            out[key] = value
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    sources: list[dict[str, object]] = []
    if args.preset is not None:
        sources.append(parse_config(_find_preset(args.preset)))
    if args.config is not None:
        sources.append(parse_config(args.config))
    sources.append(_flag_overrides(args))
    merged = merge_sources(*sources)
    cfg = RunConfig.from_values(merged)
    _apply_profile(cfg, args.command, explicit=set(merged))
    cfg.validate()
    _check_run_length(cfg, args.command)
    return cfg


def _apply_profile(cfg: RunConfig, command: str, explicit: set[str]) -> None:
    """Fill subcommand-specific defaults; reject keys a subcommand cannot honor."""
    if command in {"poincare", "attractor"} and cfg.t_end is not None:
        raise ConfigError(f"'{command}' counts its horizon in drive periods; use n_periods")
    if command == "simulate" and cfg.t_end is None and cfg.n_periods is None:
        cfg.t_end = 100.0
    elif command == "poincare" and cfg.n_periods is None:
        cfg.n_periods = 5000
    elif command == "attractor":
        if cfg.n_periods is None:
            cfg.n_periods = 10000 if cfg.eta > 0.0 else 5000
        if "discard" not in explicit:
            cfg.discard = 2000
    elif command == "spectrum":
        if cfg.t_end is None and cfg.n_periods is None:
            if cfg.de1 != 0.0:
                cfg.n_periods = 1000
            else:
                cfg.t_end = 100.0
        if cfg.sample_dt is None:
            cfg.sample_dt = cfg.period / 16.0 if cfg.de1 != 0.0 else 0.1
        if cfg.de1 == 0.0 and cfg.discard > 0:
            raise ConfigError("'discard' counts drive periods; it needs de1 != 0")
    elif command == "crosscheck":
        if cfg.t_end is None and cfg.n_periods is None:
            cfg.t_end = 50.0
        if cfg.sample_dt is None:
            cfg.sample_dt = 0.05
    elif command in {"melnikov", "stability-curve", "potential"}:
        if cfg.energy is None:
            raise ConfigError(f"'{command}' requires 'energy' (junction energy h)")
    elif command == "lyapunov" and cfg.t_end is None and cfg.n_periods is None:
        cfg.t_end = cfg.horizon


def _check_run_length(cfg: RunConfig, command: str) -> None:
    """Refuse, before integrating, a run too short for the analysis that
    follows it: the check that analysis makes, on the count the run gives."""
    if command == "attractor":
        analysis._check_section_length(cfg.n_periods + 1, cfg.discard, cfg.max_order)
    elif command == "spectrum":
        # the run's rows: t = 0 and every landing target
        t = np.array([0.0, *_sample_targets(cfg.resolved_t_end(), cfg.sample_dt)])
        try:
            analysis._check_samples(int(np.count_nonzero(_kept(cfg, t))))
        except ValueError as exc:
            raise ConfigError(
                f"{exc}: the horizon ('t_end' or 'n_periods') less the 'discard' "
                "periods, over 'sample_dt', sets the count"
            ) from None


def _kept(cfg: RunConfig, t: np.ndarray) -> np.ndarray:
    """The samples a spectrum keeps: those past the 'discard' periods."""
    return t >= cfg.discard * cfg.period - 1e-9 * cfg.sample_dt


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(cfg: RunConfig) -> str:
    """integrate the junction equations and emit t,z,phi,dzdt"""
    traj = integrate_adaptive(
        cfg.trap, cfg.state0, cfg.resolved_t_end(), ctl=cfg.control(), sample_dt=cfg.sample_dt
    )
    return _csv_text(cfg, "t,z,phi,dzdt", traj.t, traj.z, traj.phi, traj.dz_dt)


def _cmd_poincare(cfg: RunConfig) -> str:
    """stroboscopic section at the drive period (n,z,dzdt)"""
    sec = sample_stroboscopic(cfg.trap, cfg.state0, cfg.n_periods, ctl=cfg.control())
    return _csv_text(cfg, "n,z,dzdt", range(len(sec)), sec.z, sec.dz_dt)


def _cmd_spectrum(cfg: RunConfig) -> str:
    """one-sided power spectrum of z(t) (freq,power)"""
    traj = integrate_adaptive(
        cfg.trap, cfg.state0, cfg.resolved_t_end(), ctl=cfg.control(), sample_dt=cfg.sample_dt
    )
    keep = _kept(cfg, traj.t)
    spec = analysis.power_spectrum(traj.t[keep], traj.z[keep], window=cfg.window)
    return _csv_text(cfg, "freq,power", spec.freqs, spec.power)


def _cmd_attractor(cfg: RunConfig) -> str:
    """classify the long-time stroboscopic set (JSON)"""
    sec = sample_stroboscopic(cfg.trap, cfg.state0, cfg.n_periods, ctl=cfg.control())
    rep = analysis.detect_frequency_locking(
        sec,
        cluster_tol=cfg.cluster_tol,
        max_order=cfg.max_order,
        discard_periods=cfg.discard,
        chaos_spread_min=cfg.chaos_spread_min,
    )
    centers = None
    if rep.cluster_centers is not None:
        centers = [[float(z), float(dz)] for z, dz in rep.cluster_centers]
    payload = {
        "kind": rep.kind,
        "order": rep.order,
        "mean_z": rep.mean_z,
        "transient_periods": rep.transient_periods,
        "spread": rep.spread,
        "n_sections": len(sec),
        "centers": centers,
    }
    return _json_text(payload, cfg)


def _cmd_melnikov(cfg: RunConfig) -> str:
    """separatrix stability integral, closed form and quadrature (JSON)"""
    frame = separatrix.SeparatrixFrame(lam=cfg.lam, h=cfg.energy, c0=cfg.c0)
    closed = separatrix.melnikov_closed(frame, cfg.trap)
    numeric, abserr = separatrix.melnikov_numeric(frame, cfg.trap, xi_max=cfg.xi_max)
    payload = {
        "kappa": frame.kappa,
        "amplitude": frame.amplitude,
        "asymptote_omega": separatrix.ASYMPTOTE_OMEGA,
        "drive_coefficient": separatrix.drive_coefficient(frame, cfg.omega),
        "melnikov_closed": closed,
        "melnikov_numeric": numeric,
        "numeric_abserr": abserr,
    }
    return _json_text(payload, cfg)


def _cmd_stability_curve(cfg: RunConfig) -> str:
    """critical modulation amplitude vs frequency (CSV)"""
    frame = separatrix.SeparatrixFrame(lam=cfg.lam, h=cfg.energy, c0=cfg.c0)
    curve = separatrix.stability_curve(
        frame,
        cfg.eta,
        omega_min=cfg.omega_min,
        omega_max=cfg.omega_max,
        n_points=cfg.n_points,
    )
    # A grid point that is an asymptote is inf; it gives way to the
    # asymptote rows appended below.
    rows = [
        (float(w), float(d), int(b))
        for w, d, b in zip(curve.omega, curve.de1_critical, curve.branch)
        if math.isfinite(d)
    ]
    rows.extend((float(a), math.inf, i) for i, a in enumerate(curve.asymptotes))
    rows.sort(key=lambda r: (r[0], 0 if math.isinf(r[1]) else 1))
    return _csv_text(cfg, "omega,de1_critical,branch", *zip(*rows))


def _cmd_potential(cfg: RunConfig) -> str:
    """effective potential scan V(z) at fixed junction energy (CSV)"""
    z = np.linspace(cfg.z_min, cfg.z_max, cfg.n_z)
    with np.errstate(all="ignore"):
        v = effective_potential(cfg.trap, cfg.energy, z)
    bad = np.flatnonzero(~np.isfinite(v))
    if len(bad):
        raise BjjError(f"V overflows at z={float(z[bad[0]])!r} (lambda={cfg.lam!r}, "
                       f"energy={cfg.energy!r}, de0={cfg.de0!r})")
    return _csv_text(cfg, "z,V", z, v)


def _cmd_crosscheck(cfg: RunConfig) -> str:
    """compare the reduced equations against the mode-pair form (JSON)"""
    rep = twomode.crosscheck_max_dz(
        cfg.trap,
        cfg.z0,
        cfg.phi0,
        t_end=cfg.resolved_t_end(),
        sample_dt=cfg.sample_dt,
        ctl=cfg.control(),
    )
    payload = {
        "max_abs_dz": rep.max_abs_dz,
        "t_at_max": rep.t_at_max,
        "n_compared": rep.n_compared,
    }
    return _json_text(payload, cfg)


def _cmd_classify(cfg: RunConfig) -> str:
    """regime of an initial condition (JSON)"""
    regime = classify_regime(cfg.trap, cfg.z0, cfg.phi0)
    payload = {
        "kind": regime.motion.value,
        "potential_shape": regime.potential_shape.value,
        "h": regime.h,
        "h_eff": regime.h_eff,
    }
    return _json_text(payload, cfg)


def _cmd_lyapunov(cfg: RunConfig) -> str:
    """largest Lyapunov exponent estimate (JSON)"""
    exponent = analysis.lyapunov_estimate(
        cfg.trap,
        cfg.z0,
        cfg.phi0,
        ctl=cfg.control(),
        horizon=cfg.horizon,
        renorm_interval=cfg.renorm_interval,
        d0=cfg.d0,
    )
    payload = {
        "exponent": exponent,
        "h_initial": hamiltonian(cfg.trap, cfg.z0, cfg.phi0, t=0.0),
    }
    return _json_text(payload, cfg)


_HANDLERS = {
    "simulate": _cmd_simulate,
    "poincare": _cmd_poincare,
    "spectrum": _cmd_spectrum,
    "attractor": _cmd_attractor,
    "melnikov": _cmd_melnikov,
    "stability-curve": _cmd_stability_curve,
    "potential": _cmd_potential,
    "crosscheck": _cmd_crosscheck,
    "classify": _cmd_classify,
    "lyapunov": _cmd_lyapunov,
}

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _build_parser(command: str | None = None) -> _Parser:
    """The ``bjj`` parser. With ``command`` set, only that subcommand gets its
    flags; the others keep the name and help that ``bjj --help`` lists."""
    parser = _Parser(prog="bjj", description="coupled-condensate junction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.set_defaults(handler=handler)
        if command is not None and name != command:
            continue
        src = p.add_mutually_exclusive_group()
        src.add_argument("--config", metavar="PATH", help="key=value config file")
        src.add_argument("--preset", metavar="NAME", help="named preset (presets/NAME.cfg)")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        for key, (parse, help_text) in _KEYS.items():
            choices = getattr(parse, "choices", None)
            p.add_argument(_flag(key), dest=f"ov_{key}", help=help_text,
                           type=None if choices else parse, choices=choices)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command = next((a for a in argv if a in _HANDLERS), None)
        args = _build_parser(command).parse_args(argv)
        cfg = _resolve_config(args)
        text = args.handler(cfg)
        if args.out is not None:
            try:
                Path(args.out).write_text(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {args.out}: {exc}") from None
        else:
            sys.stdout.write(text)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BjjError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


def console_main() -> None:
    sys.exit(main())
