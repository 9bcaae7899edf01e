"""Flat key=value run configuration.

One ``key = value`` pair per line; ``#`` starts a comment (full line or
trailing); blank lines are ignored.  Unknown keys are rejected by name and
line.  ``omega_pi`` is a convenience spelling: ``omega_pi=4`` means
omega = 4*pi, matching how drive frequencies are quoted in the figure
presets.  Exactly one of ``t_end`` / ``n_periods`` may be set explicitly;
later configuration sources (preset < config file < command-line flags)
replace earlier ones key by key, and setting either member of such a pair
retires the other.

Every run echoes its fully resolved configuration as ``# key=value``
metadata lines; feeding those lines back as a config file reproduces the
run byte for byte.  To support that, a comment line that is an exact,
cleanly parseable assignment to a known key is honored as an assignment;
all other comment text is ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from . import analysis, separatrix
from .errors import ConfigError
from .integrate import MAX_TARGETS, StepControl, default_control
from .model import Z_GUARD, DampingKind, PhaseState, TrapParams

__all__ = ["RunConfig", "parse_kv_text", "parse_config", "merge_sources", "fmt"]


def fmt(value: object) -> str:
    """Canonical text for a config/output value (floats at 17 sig digits)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


_DAMPING_NAMES = tuple(k.value for k in DampingKind)
_WINDOW_NAMES = ("rect", "hann")


# The builtins themselves, so a command-line flag of this type reports a
# bad value as "invalid float value" / "invalid int value".
_parse_float = float
_parse_int = int


def _parse_word(allowed: tuple[str, ...]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}")
        return text

    parse.choices = allowed  # type: ignore[attr-defined]
    return parse


# key -> (parser, help); order defines the metadata echo.
_KEYS: dict[str, tuple[Callable[[str], object], str]] = {
    "lambda": (_parse_float, "interaction-to-tunneling ratio"),
    "de0": (_parse_float, "static tilt between the wells"),
    "de1": (_parse_float, "tilt modulation amplitude"),
    "omega": (_parse_float, "tilt modulation angular frequency"),
    "omega_pi": (_parse_float, "omega in units of pi (alternative to omega)"),
    "eta": (_parse_float, "damping coefficient (>= 0)"),
    "damping": (_parse_word(_DAMPING_NAMES), "damping placement"),
    "z0": (_parse_float, "initial population imbalance"),
    "phi0": (_parse_float, "initial relative phase"),
    "t_end": (_parse_float, "integration horizon in time units"),
    "n_periods": (_parse_int, "integration horizon in drive periods"),
    "sample_dt": (_parse_float, "output sample spacing"),
    "discard": (_parse_int, "leading drive periods dropped before analysis"),
    "abs_tol": (_parse_float, "absolute step error tolerance"),
    "rel_tol": (_parse_float, "relative step error tolerance"),
    "h_init": (_parse_float, "initial step size"),
    "h_min": (_parse_float, "smallest admissible step"),
    "h_max": (_parse_float, "largest admissible step"),
    "safety": (_parse_float, "step controller safety factor"),
    "window": (_parse_word(_WINDOW_NAMES), "spectral window"),
    "cluster_tol": (_parse_float, "attractor cluster radius"),
    "max_order": (_parse_int, "largest locking order searched"),
    "chaos_spread_min": (_parse_float, "minimum spread to call a section chaotic"),
    "d0": (_parse_float, "initial separation for the Lyapunov estimate"),
    "renorm_interval": (_parse_float, "Lyapunov renormalization interval"),
    "horizon": (_parse_float, "Lyapunov estimation horizon"),
    "energy": (_parse_float, "junction energy h for separatrix analysis"),
    "c0": (_parse_float, "separatrix phase offset"),
    "xi_max": (_parse_float, "separatrix quadrature window half-width"),
    "omega_min": (_parse_float, "stability curve lower frequency"),
    "omega_max": (_parse_float, "stability curve upper frequency"),
    "n_points": (_parse_int, "stability curve grid size"),
    "z_min": (_parse_float, "potential scan lower bound"),
    "z_max": (_parse_float, "potential scan upper bound"),
    "n_z": (_parse_int, "potential scan grid size"),
}

# Members of an exclusive pair retire each other across sources.
_EXCLUSIVE: dict[str, str] = {
    "t_end": "n_periods",
    "n_periods": "t_end",
    "omega": "omega_pi",
    "omega_pi": "omega",
}


def _metadata_assignment(comment: str) -> tuple[str, object] | None:
    """Recognize an emitted metadata line (`# key=value`) inside a comment.

    Only exact, cleanly parseable assignments to known keys count; any
    other comment text stays a comment.  This makes an output's metadata
    header directly reusable as a config file.
    """
    body = comment.lstrip("#").strip()
    if "=" not in body:
        return None
    key, _, raw_value = body.partition("=")
    key = key.strip()
    raw_value = raw_value.strip()
    if key not in _KEYS or not raw_value:
        return None
    parser, _ = _KEYS[key]
    try:
        return key, parser(raw_value)
    except ValueError:
        return None


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse key=value lines into typed values; errors carry key and line."""
    values: dict[str, object] = {}
    unknown: list[str] = []

    def assign(key: str, value: object, lineno: int) -> None:
        other = _EXCLUSIVE.get(key)
        if other is not None and other in values:
            raise ConfigError(
                f"{source}:{lineno}: '{key}' conflicts with '{other}' set above; "
                "set exactly one"
            )
        values[key] = value

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if stripped.startswith("#"):
            pair = _metadata_assignment(stripped)
            if pair is not None:
                assign(pair[0], pair[1], lineno)
            continue
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            unknown.append(f"'{key}' (line {lineno})")
            continue
        if not raw_value:
            raise ConfigError(f"{source}:{lineno}: empty value for '{key}'")
        parser, _ = _KEYS[key]
        try:
            value = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: invalid value for '{key}': {raw_value!r} ({exc})"
            ) from None
        assign(key, value, lineno)
    if unknown:
        raise ConfigError(f"{source}: unknown keys: {', '.join(unknown)}")
    return values


def parse_config(path: str | Path) -> dict[str, object]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_kv_text(text, source=str(path))


def merge_sources(*sources: dict[str, object]) -> dict[str, object]:
    """Later sources override earlier, retiring exclusive partners."""
    merged: dict[str, object] = {}
    for src in sources:
        for key, value in src.items():
            other = _EXCLUSIVE.get(key)
            if other is not None:
                merged.pop(other, None)
            merged[key] = value
    return merged


@dataclass
class RunConfig:
    """Fully resolved run parameters (one flat namespace for every subcommand)."""

    lam: float = 10.0
    de0: float = 0.0
    de1: float = 0.0
    omega: float = 2.0 * math.pi
    eta: float = 0.0
    damping: str = "population"
    z0: float = 0.5
    phi0: float = 0.0
    t_end: float | None = None
    n_periods: int | None = None
    sample_dt: float | None = None
    discard: int = 0
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float | None = None
    safety: float = 0.9
    window: str = "hann"
    cluster_tol: float = 1e-3
    max_order: int = 12
    chaos_spread_min: float = 0.2
    d0: float = 1e-8
    renorm_interval: float = 0.5
    horizon: float = 1000.0
    energy: float | None = None
    c0: float = 0.0
    xi_max: float = 40.0
    omega_min: float = 0.5
    omega_max: float = 10.0
    n_points: int = 200
    z_min: float = -1.0
    z_max: float = 1.0
    n_z: int = 401

    _FIELD_BY_KEY = {"lambda": "lam"}

    @classmethod
    def from_values(cls, values: dict[str, object]) -> "RunConfig":
        cfg = cls()
        for key, value in values.items():
            if key == "omega_pi":
                cfg.omega = float(value) * math.pi
                continue
            setattr(cfg, cls._FIELD_BY_KEY.get(key, key), value)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check the keys no other code owns, then call the checks of the code
        that uses the rest (trap, control, analysis, separatrix); each names its key."""

        def bad(key: str, why: str) -> ConfigError:
            return ConfigError(f"out-of-range value for '{key}': {why}")

        for key in _KEYS:
            value = getattr(self, self._FIELD_BY_KEY.get(key, key), None)
            if isinstance(value, float) and not math.isfinite(value):
                raise bad(key, f"must be finite, got {fmt(value)}")
        if not abs(self.z0) < 1.0 - Z_GUARD:
            raise bad("z0", f"|z0| must be < 1, got {fmt(self.z0)}")
        if self.t_end is not None and not self.t_end > 0.0:
            raise bad("t_end", f"must be > 0, got {fmt(self.t_end)}")
        if self.n_periods is not None and self.n_periods < 1:
            raise bad("n_periods", f"must be >= 1, got {self.n_periods}")
        if self.sample_dt is not None and not self.sample_dt > 0.0:
            raise bad("sample_dt", f"must be > 0, got {fmt(self.sample_dt)}")
        if self.discard < 0:
            raise bad("discard", f"must be >= 0, got {self.discard}")
        if not self.chaos_spread_min > 0.0:
            raise bad("chaos_spread_min", "must be > 0")
        if not self.xi_max > 0.0:
            raise bad("xi_max", f"must be > 0, got {fmt(self.xi_max)}")
        if not self.z_min < self.z_max:
            raise bad("z_min", "need z_min < z_max")
        if not 2 <= self.n_z <= MAX_TARGETS:
            raise bad("n_z", f"must lie in [2, {MAX_TARGETS}], got {self.n_z}")
        try:
            _ = (self.trap, self.control())
            analysis._check_locking(self.cluster_tol, self.max_order)
            analysis._check_lyapunov(self.horizon, self.renorm_interval, self.d0)
            separatrix._check_grid(self.omega_min, self.omega_max, self.n_points)
        except ValueError as exc:
            raise ConfigError(f"out-of-range value: {exc}") from None
        if self.t_end is not None or self.n_periods is not None:
            try:
                horizon = self.resolved_t_end()
            except OverflowError:  # an int too large for a float
                horizon = math.inf
            if not math.isfinite(horizon):  # t_end is finite by now
                raise bad("n_periods", "n_periods * period must be a finite time")
            if self.sample_dt is not None and not math.isfinite(horizon / self.sample_dt):
                raise bad("sample_dt", "horizon/sample_dt must be a finite sample count")

    # -- derived objects ---------------------------------------------------

    @property
    def trap(self) -> TrapParams:
        return TrapParams(
            lam=self.lam,
            de0=self.de0,
            de1=self.de1,
            omega=self.omega,
            eta=self.eta,
            damping=DampingKind(self.damping),
        )

    @property
    def state0(self) -> PhaseState:
        return PhaseState(t=0.0, z=self.z0, phi=self.phi0)

    @property
    def period(self) -> float:
        return self.trap.period

    def control(self) -> StepControl:
        """Step policy from the config's step keys; an unset h_max takes
        default_control's value for this trap."""
        h_max = self.h_max
        if h_max is None:
            h_max = default_control(self.trap).h_max
        return StepControl(
            abs_tol=self.abs_tol,
            rel_tol=self.rel_tol,
            h_init=self.h_init,
            h_min=self.h_min,
            h_max=h_max,
            safety=self.safety,
        )

    def resolved_t_end(self) -> float:
        """Horizon in time units, whichever of t_end/n_periods is active."""
        if self.t_end is not None:
            return self.t_end
        if self.n_periods is not None:
            return self.n_periods * self.period
        raise ConfigError("one of 't_end' or 'n_periods' must be set")

    # -- metadata echo -----------------------------------------------------

    def metadata_values(self) -> list[tuple[str, object]]:
        """Resolved (key, value) pairs in canonical order, ready to echo.

        h_max is emitted in its derived form so the echo is self-contained;
        omega_pi never appears (omega is canonical); unset optional keys
        are skipped.
        """
        by_field = {f.name: f.name for f in fields(self)}
        out: list[tuple[str, object]] = []
        for key in _KEYS:
            if key == "omega_pi":
                continue
            name = self._FIELD_BY_KEY.get(key, key)
            if name not in by_field:
                continue
            value = getattr(self, name)
            if key == "h_max" and value is None:
                value = self.control().h_max
            if value is None:
                continue
            out.append((key, value))
        return out

    def metadata_lines(self) -> list[str]:
        return [f"# {key}={fmt(value)}" for key, value in self.metadata_values()]
