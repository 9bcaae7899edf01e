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

Every run goes through _stepper(f, n).  Each driver but _drive is built by
one specialiser, _specialised, in one ast pass over _drive's source: it
widens _drive to n components (each run of statements that names only
index-1 components is repeated for the indices 2 .. n-1, and each
index-0/index-1 pair in a tuple or a rate call gains the same copies), so
the two-mode oracle steps (a1.real, a1.imag, a2.real, a2.imag) with the
operations of _drive per component and scores each component as a float;
and, given a rate that _inline has vetted, it writes the rate's body in
place of each of the 11 rate calls, with the rate's names prefixed and
its closing ``return e0, ..., en-1`` assigned to the call's n targets.
Each result is compiled once per process into one cache, keyed by (rate
code, n), or (None, n) for the called driver.  The floating-point
operations and their order are the called driver's, so the bits, counts
and exceptions are too.  A rate it cannot take (a lambda, one with
defaults, a wrapper over ``*args`` such as a counting one, a body with
nested scopes or an early return, no source) is called by _drive itself,
or by _drive widened to n, so one source serves every path.
"""

from __future__ import annotations

import ast
import copy
import inspect
import math
import textwrap
from dataclasses import dataclass
from functools import partial
from inspect import CO_VARARGS, CO_VARKEYWORDS
from itertools import groupby
from types import CodeType, FunctionType
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

# n float components: (z, phi), or the oracle's (a1.real, a1.imag, a2.real,
# a2.imag).
State = tuple[float, ...]

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

    y holds two float components (_specialised(n) is this driver for n).
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


#: Rate calls in one step of _drive; the specialiser finds every one of them.
_RATE_CALLS = 11
#: _drive's component locals are one of these letters and the index 0 or 1.
_COMPONENTS = "ykacdbmjne"
#: Prefix of every name of an inlined rate; no name in _drive starts with it.
_PREFIX = "_rate_"
#: Statements a rate body may hold: none binds a name other than through a
#: Name node, opens a scope, returns early or leaves a loop.
_STATEMENTS = (ast.Assign, ast.AugAssign, ast.If, ast.Expr, ast.Raise, ast.Pass)
#: Expressions it may not hold: each opens a scope, suspends the frame or
#: (starred) may change the arity of the return.
_DECLINED = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
             ast.Yield, ast.YieldFrom, ast.Await, ast.Starred)

# Every driver compiled in this process, keyed by (rate code, n).  For a rate
# code: (factory, names of the rate's globals), where factory(*free values,
# *global values) returns _drive widened to n with the rate written in, or None
# for a rate that runs through the called driver.  For None (n > 2): the
# called driver, _drive widened to n.
_DRIVERS: dict[tuple[CodeType | None, int],
               Callable | tuple[Callable, tuple[str, ...]] | None] = {}


def _stepper(f: RateFn, n: int) -> Callable[..., tuple[float, State]]:
    """The driver of n components with f bound:
    ``_stepper(f, n)(drive, t, y, targets, ctl, ...)`` with len(y) == n.

    A plain def rate (n + 2 positional parameters, no defaults, a body of
    simple statements ending in its one ``return`` of an n-tuple) is
    written by _specialised into _drive, widened to n components, at each
    of its rate calls, compiled once per process, rate definition and n,
    and bound to this f's closure and globals.  The inlined body runs the
    same floating-point operations in the same order, so every result and
    exception is the one the called driver gives.  Any other rate (a
    lambda, a wrapper over ``*args``, one with defaults, nested scopes or
    an early return, without source, or with an empty closure cell) is
    called by _drive widened to n components (_drive itself when n = 2).
    """
    if type(f) is FunctionType and f.__defaults__ is None and f.__kwdefaults__ is None:
        key = (f.__code__, n)
        if key not in _DRIVERS:
            _DRIVERS[key] = _inline(f, n)
        entry = _DRIVERS[key]
        if entry is not None:
            factory, names = entry
            scope = f.__globals__
            builtin = f.__builtins__
            try:
                free = [cell.cell_contents for cell in f.__closure__ or ()]
                glob = [scope[name] if name in scope else builtin[name] for name in names]
            except (ValueError, KeyError):  # an empty cell, an unbound global
                pass
            else:
                return factory(*free, *glob)
    return partial(_called(n), f)


def _called(n: int) -> Callable[..., tuple[float, State]]:
    """The driver of n components that calls its rate: _drive itself when
    n = 2, else _drive widened to n and compiled once per process."""
    if n == 2:
        return _drive
    key = (None, n)
    if key not in _DRIVERS:
        _DRIVERS[key] = _compiled(_specialised(n), f"<_drive widened to {n} components>")
    return _DRIVERS[key]


def _source(code: CodeType) -> str:
    """The source of code's definition, "" when it cannot be read."""
    try:
        return inspect.getsource(code)
    except OSError:
        return ""


def _indices(node: ast.AST) -> set[str]:
    """The indices, "0" or "1", of the component locals that node names."""
    return {sub.id[1] for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and len(sub.id) == 2
            and sub.id[0] in _COMPONENTS and sub.id[1] in "01"}


def _renamed(node: ast.AST, i: int) -> ast.AST:
    """A copy of node with each index-1 component local renamed to index i."""
    node = copy.deepcopy(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _indices(sub) == {"1"}:
            sub.id = sub.id[0] + str(i)
    return node


def _f_args(node: ast.AST) -> list[ast.expr]:
    """The arguments of node when it is a rate call f(...) without keywords,
    else []."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "f"
            and not node.keywords):
        return node.args
    return []


def _specialised(
    n: int, rate: tuple[Sequence[str], list[ast.stmt], ast.Tuple] | None = None
) -> ast.FunctionDef:
    """A fresh AST of _drive widened to n components, with rate's body
    written in at each rate site when rate = (params, body, returned).

    One pass widens and writes in.  In every statement list, a maximal run
    of statements that name only index-1 component locals is followed
    whole by its copies for the indices 2 .. n-1, which are not widened
    again; every other statement is widened inside.  A tuple or a rate
    call whose last two elements are an index-0 and an index-1 expression
    gains the copies of the latter.  With n = 2 nothing is widened.  A rate
    site is a statement ``X0, ..., Xn-1 = f(a, b, A0, ..., An-1)``; with a
    rate it becomes the params assigned a, b, A0, ..., the body, then
    ``X0 = e0`` up to ``Xn-1 = en-1`` for the returned ``e0, ..., en-1``, and
    the parameter f is dropped.  RuntimeError unless there are exactly
    _RATE_CALLS sites and f is loaded nowhere else.
    """
    (drive,) = ast.parse(_source(_drive.__code__)).body
    sites = 0

    def widen(node: ast.AST) -> None:
        for field, value in ast.iter_fields(node):
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                body: list[ast.stmt] = []
                for run, group in groupby(value, lambda stmt: _indices(stmt) == {"1"}):
                    group = list(group)
                    if run:
                        body += group + [_renamed(s, i) for i in range(2, n) for s in group]
                        continue
                    for stmt in group:
                        widen(stmt)
                        body += write_in(stmt)
                setattr(node, field, body)
            else:
                for item in value if isinstance(value, list) else [value]:
                    if isinstance(item, ast.AST):
                        widen(item)
        elts = node.elts if isinstance(node, ast.Tuple) else _f_args(node)
        if len(elts) >= 2 and _indices(elts[-2]) == {"0"} and _indices(elts[-1]) == {"1"}:
            elts += [_renamed(elts[-1], i) for i in range(2, n)]

    def write_in(stmt: ast.stmt) -> list[ast.stmt]:
        """[stmt], or the rate written in for it when stmt is a rate site."""
        nonlocal sites
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Tuple) and len(stmt.targets[0].elts) == n
                and len(_f_args(stmt.value)) == n + 2):
            return [stmt]
        sites += 1
        if rate is None:
            return [stmt]
        params, body, returned = rate
        return ([ast.Assign(targets=[ast.Name(_PREFIX + p, ast.Store())], value=arg)
                 for p, arg in zip(params, stmt.value.args)]
                + body
                + [ast.Assign(targets=[name], value=e)
                   for name, e in zip(stmt.targets[0].elts, returned.elts)])

    widen(drive)
    loads = sum(isinstance(node, ast.Name) and node.id == "f" for node in ast.walk(drive))
    if sites != _RATE_CALLS or loads != (sites if rate is None else 0):
        raise RuntimeError(
            f"_drive widened to {n} components has {sites} inlinable rate calls, "
            f"expected {_RATE_CALLS}, and must load f nowhere else"
        )
    if rate is not None:
        del drive.args.args[0]
    return drive


def _compiled(function: ast.FunctionDef, filename: str) -> Callable:
    """function compiled in this module's globals, its annotations (which
    the compiled code would evaluate) dropped."""
    for node in ast.walk(function):
        if isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, ast.FunctionDef):
            node.returns = None
    module = ast.fix_missing_locations(ast.Module([function], type_ignores=[]))
    namespace: dict[str, Callable] = {}
    exec(compile(module, filename, "exec", dont_inherit=True), globals(), namespace)
    return namespace[function.name]


def _inline(f: FunctionType, n: int) -> tuple[Callable, tuple[str, ...]] | None:
    """Compile _drive, widened to n components, with the body of f at every
    rate site, or None when f is not a rate the inliner takes."""
    code = f.__code__
    if (code.co_name == "<lambda>" or code.co_argcount != n + 2 or code.co_kwonlyargcount
            or code.co_cellvars or code.co_flags & (CO_VARARGS | CO_VARKEYWORDS)):
        return None
    try:
        (rate,) = ast.parse(textwrap.dedent(_source(code))).body
    except (SyntaxError, ValueError):  # no source, or not one definition
        return None
    params = code.co_varnames[:n + 2]
    *body, last = rate.body
    if (not isinstance(rate, ast.FunctionDef) or rate.decorator_list
            or [a.arg for a in rate.args.posonlyargs + rate.args.args] != list(params)
            or not isinstance(last, ast.Return) or not isinstance(last.value, ast.Tuple)
            or len(last.value.elts) != n):
        return None
    stores = set(params)
    loads = set()
    for node in body + [last.value]:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.stmt) and not isinstance(sub, _STATEMENTS)
                    or isinstance(sub, _DECLINED)):
                return None
            if isinstance(sub, ast.Name):
                (loads if isinstance(sub.ctx, ast.Load) else stores).add(sub.id)
                sub.id = _PREFIX + sub.id
    if stores != set(code.co_varnames) or not set(code.co_freevars) <= loads:
        return None  # the source on disk is not the code that runs
    names = tuple(sorted(loads - stores - set(code.co_freevars)))

    drive = _specialised(n, (params, body, last.value))
    (outer,) = ast.parse(
        "def factory(" + ", ".join(_PREFIX + name for name in code.co_freevars + names) + "): pass"
    ).body
    outer.body = [drive, ast.Return(ast.Name(drive.name, ast.Load()))]
    return _compiled(outer, f"<_drive inlining {f.__qualname__}>"), names


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
            _stepper(rate, len(y0))(drive, t0, y0, [t_end], ctl, on_target=record_step,
                           on_step=record_step)
        else:
            if t0 != 0.0:
                raise ValueError("sample grids are anchored at t=0")
            targets = _sample_targets(t_end, sample_dt)
            _stepper(rate, len(y0))(drive, t0, y0, targets, ctl, on_target=record)
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
