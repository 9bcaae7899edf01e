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

The key table is ``RunConfig``'s field list: each field declares its key
(the field name, or ``lambda`` for ``lam``), parser, default and help
text.  The config reader, the command-line flags and the metadata echo all
read that one table (``_KEYS``, derived from the fields).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

from . import analysis, separatrix
from .errors import ConfigError
from .integrate import MAX_TARGETS, StepControl, _check_sample_dt, _default_h_max
from .model import Z_GUARD, DampingKind, PhaseState, TrapParams

__all__ = ["RunConfig", "parse_kv_text", "parse_config", "merge_sources"]


def fmt(value: object) -> str:
    """Canonical text for a config/output value (floats at 17 sig digits)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


_DAMPING_NAMES = tuple(k.value for k in DampingKind)


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


def _key(default: object, parse: Callable[[str], object], help_text: str,
         key: str | None = None) -> Any:
    """A RunConfig field that is also a config key (named after the field
    unless ``key`` is given)."""
    return field(default=default, metadata={"parse": parse, "help": help_text, "key": key})


# Members of an exclusive pair retire each other across sources.
_EXCLUSIVE: dict[str, str] = {
    "t_end": "n_periods",
    "n_periods": "t_end",
    "omega": "omega_pi",
    "omega_pi": "omega",
}


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse key=value lines into typed values; errors carry key and line.
    A comment line is read like a plain one but ignored where that fails."""
    values: dict[str, object] = {}
    unknown: list[str] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        comment = line.startswith("#")
        line = (line.lstrip("#") if comment else line.split("#", 1)[0]).strip()
        if not line:
            continue
        key, eq, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        try:
            if not eq:
                raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
            if key not in _KEYS:
                if not comment:
                    unknown.append(f"'{key}' (line {lineno})")
                continue
            if not raw_value:
                raise ConfigError(f"{source}:{lineno}: empty value for '{key}'")
            try:
                value = _KEYS[key][0](raw_value)
            except ValueError as exc:
                raise ConfigError(
                    f"{source}:{lineno}: invalid value for '{key}': {raw_value!r} ({exc})"
                ) from None
        except ConfigError:
            if comment:
                continue
            raise
        other = _EXCLUSIVE.get(key)
        if other is not None and other in values:
            raise ConfigError(
                f"{source}:{lineno}: '{key}' conflicts with '{other}' set above; "
                "set exactly one"
            )
        values[key] = value
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
    """Fully resolved run parameters (one flat namespace for every subcommand).

    Every field is a config key; ``_key`` gives its parser and help text."""

    lam: float = _key(10.0, _parse_float, "interaction-to-tunneling ratio", key="lambda")
    de0: float = _key(0.0, _parse_float, "static tilt between the wells")
    de1: float = _key(0.0, _parse_float, "tilt modulation amplitude")
    omega: float = _key(2.0 * math.pi, _parse_float, "tilt modulation angular frequency")
    eta: float = _key(0.0, _parse_float, "damping coefficient (>= 0)")
    damping: str = _key("population", _parse_word(_DAMPING_NAMES), "damping placement")
    z0: float = _key(0.5, _parse_float, "initial population imbalance")
    phi0: float = _key(0.0, _parse_float, "initial relative phase")
    t_end: float | None = _key(None, _parse_float, "integration horizon in time units")
    n_periods: int | None = _key(None, _parse_int, "integration horizon in drive periods")
    sample_dt: float | None = _key(None, _parse_float, "output sample spacing")
    discard: int = _key(0, _parse_int, "leading drive periods dropped before analysis")
    abs_tol: float = _key(1e-10, _parse_float, "absolute step error tolerance")
    rel_tol: float = _key(1e-10, _parse_float, "relative step error tolerance")
    h_init: float = _key(1e-3, _parse_float, "initial step size")
    h_min: float = _key(1e-12, _parse_float, "smallest admissible step")
    h_max: float | None = _key(None, _parse_float, "largest admissible step")
    safety: float = _key(0.9, _parse_float, "step controller safety factor")
    window: str = _key("hann", _parse_word(analysis._WINDOWS), "spectral window")
    cluster_tol: float = _key(1e-3, _parse_float, "attractor cluster radius")
    max_order: int = _key(12, _parse_int, "largest locking order searched")
    chaos_spread_min: float = _key(0.2, _parse_float, "minimum spread to call a section chaotic")
    d0: float = _key(1e-8, _parse_float, "unused: the Lyapunov estimate is tangent-space")
    renorm_interval: float = _key(0.5, _parse_float, "Lyapunov renormalization interval")
    horizon: float = _key(1000.0, _parse_float, "Lyapunov estimation horizon")
    energy: float | None = _key(None, _parse_float, "junction energy h for separatrix analysis")
    c0: float = _key(0.0, _parse_float, "separatrix phase offset")
    xi_max: float = _key(40.0, _parse_float, "separatrix quadrature window half-width")
    omega_min: float = _key(0.5, _parse_float, "stability curve lower frequency")
    omega_max: float = _key(10.0, _parse_float, "stability curve upper frequency")
    n_points: int = _key(200, _parse_int, "stability curve grid size")
    z_min: float = _key(-1.0, _parse_float, "potential scan lower bound")
    z_max: float = _key(1.0, _parse_float, "potential scan upper bound")
    n_z: int = _key(401, _parse_int, "potential scan grid size")

    @classmethod
    def from_values(cls, values: dict[str, object]) -> "RunConfig":
        unknown = [f"'{key}'" for key in values if key not in _KEYS]
        if unknown:
            raise ConfigError(f"unknown keys: {', '.join(unknown)}")
        cfg = cls()
        for key, value in values.items():
            if key == "omega_pi":
                cfg.omega = float(value) * math.pi
            else:
                setattr(cfg, _FIELDS[key], value)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check the keys no other code owns, then call the checks of the code
        that uses the rest (trap, control, sampling, analysis, separatrix);
        each names its key.

        h_max (set, or derived from the drive) need only be > 0 here;
        control() holds it to h_min <= h_max, so a command that never
        integrates runs at any drive, and its echo replays.
        """

        def bad(key: str, why: str) -> ConfigError:
            return ConfigError(f"out-of-range value for '{key}': {why}")

        for key, name in _FIELDS.items():
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise bad(key, f"must be finite, got {fmt(value)}")
        if not abs(self.z0) < 1.0 - Z_GUARD:
            raise bad("z0", f"|z0| must be < 1, got {fmt(self.z0)}")
        if self.t_end is not None and not self.t_end > 0.0:
            raise bad("t_end", f"must be > 0, got {fmt(self.t_end)}")
        if self.n_periods is not None and self.n_periods < 1:
            raise bad("n_periods", f"must be >= 1, got {self.n_periods}")
        if self.discard < 0:
            raise bad("discard", f"must be >= 0, got {self.discard}")
        if not self.z_min < self.z_max:
            raise bad("z_min", "need z_min < z_max")
        if not 2 <= self.n_z <= MAX_TARGETS:
            raise bad("n_z", f"must lie in [2, {MAX_TARGETS}], got {self.n_z}")
        try:
            _ = self.trap
            h_max = self._h_max()
            self._control(self.h_min)
            if not h_max > 0.0:
                raise bad("h_max", f"must be > 0, got {fmt(h_max)}")
            analysis._check_locking(self.cluster_tol, self.max_order, self.chaos_spread_min)
            analysis._check_lyapunov(self.horizon, self.renorm_interval, self.d0)
            separatrix._check_grid(self.omega_min, self.omega_max, self.n_points)
            separatrix._check_xi_max(self.xi_max)
            horizon = 0.0  # without one, only the sign of sample_dt is checked
            if self.t_end is not None or self.n_periods is not None:
                try:
                    horizon = self.resolved_t_end()
                except OverflowError:  # an int too large for a float
                    horizon = math.inf
                if not math.isfinite(horizon):  # t_end is finite by now
                    raise bad("n_periods", "n_periods * period must be a finite time")
            if self.sample_dt is not None:
                _check_sample_dt(self.sample_dt, horizon)
        except ValueError as exc:
            raise ConfigError(f"out-of-range value: {exc}") from None

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
        try:
            return self._control(self._h_max())
        except ValueError as exc:
            raise ConfigError(f"out-of-range value: {exc}") from None

    def _h_max(self) -> float:
        return self.h_max if self.h_max is not None else _default_h_max(self.trap)

    def _control(self, h_max: float) -> StepControl:
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
        out: list[tuple[str, object]] = []
        for key, name in _FIELDS.items():
            value = getattr(self, name)
            if key == "h_max" and value is None:
                value = self._h_max()
            if value is not None:
                out.append((key, value))
        return out

    def metadata_lines(self) -> list[str]:
        return [f"# {key}={fmt(value)}" for key, value in self.metadata_values()]


# key -> field name, and key -> (parser, help) in the order of the metadata
# echo; omega_pi is read into omega and never echoed.
_FIELDS = {f.metadata["key"] or f.name: f.name for f in fields(RunConfig)}
_KEYS: dict[str, tuple[Callable[[str], object], str]] = {}
for _f in fields(RunConfig):
    _KEYS[_f.metadata["key"] or _f.name] = (_f.metadata["parse"], _f.metadata["help"])
    if _f.name == "omega":
        _KEYS["omega_pi"] = (_parse_float, "omega in units of pi (alternative to omega)")
del _f
