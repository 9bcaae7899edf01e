"""The ast machinery behind bjj.integrate's drivers, imported on the first
run rather than with bjj.

Every run goes through _stepper(f, n), and a rate runs one of two ways.
A rate that _vet takes is written into the driver: _specialised, in one
ast pass over _drive's source, which is read once per process and parsed
for each build, widens _drive to n components (each run of statements
that names only index-1 components is repeated for the indices 2 .. n-1,
and each index-0/index-1 pair in a tuple or a rate call gains the same
copies), so the two-mode oracle steps (a1.real, a1.imag, a2.real,
a2.imag) with the operations of _drive per component and scores each
component as a float; and it writes the rate's body in place of each of
the 12 rate calls, with the rate's names prefixed, a parameter whose
argument is a bare name read as that name, and the returned values
landing in the call's n targets.  The floating-point operations and
their order are those of _drive calling the rate, so the bits, counts
and exceptions are too.  A rate of 2 components that _vet declines (a
lambda, one with defaults, a wrapper over ``*args`` such as a counting
one, a body with nested scopes, an early return, an ``x op= v`` or a
``:=``, no source) runs on _drive as written, which calls it.  Any other
request is refused by name: a TypeError, or a BjjError naming the code
whose source cannot be read when that is why.

Each builder keeps its own functools.cache, keyed by exactly what its
build reads: _drive_source by nothing, _vet by the rate's code and n,
_inline by those and the qualname that names the compiled driver, and
bjj._jvp's _tangent_form by those, which of the rate's values are math's
sin, cos and sqrt, and whether the driver calls the rate.  _vet compiles
nothing, so each driver is compiled once per process, and only when it
runs.

One vetted body gives two: the scalar one written into the driver, and
its forward-mode derivative (bjj._jvp), written in at the coarse sites
of a driver whose components past the first scored are passengers, a
tangent vector that rides only the coarse RK4 step and is never scored
(after a call of the rate, when the driver calls a wrapper over it).
Trajectory.dz_dt needs no body of its own: the driver hands over the
stage-1 rate of each state it records.
"""

from __future__ import annotations

import ast
import inspect
import pickle
import textwrap
import tokenize
from functools import cache, partial
from inspect import CO_VARARGS, CO_VARKEYWORDS
from itertools import groupby
from types import CodeType, FunctionType
from typing import Callable, NamedTuple

from . import integrate
from .errors import BjjError
from .integrate import State, _drive
from .model import RateFn

#: Rate calls in _drive's source; the specialiser finds every one of them.
_RATE_CALLS = 12
#: Those, counted from 1 in source order, that are stages of the coarse RK4
#: step, the one that passengers ride: the stage-1 rate before the loop,
#: the three stages after it, and the stage-1 rate after an accepted step.
_COARSE_SITES = (1, 2, 3, 4, 12)
#: _drive's component locals are one of these letters and the index 0 or 1.
_COMPONENTS = "ykacdbmjne"
#: Prefix of every name of an inlined rate; no name in _drive starts with it.
_PREFIX = "_rate_"
#: Statements a rate body may hold: none binds a name other than through a
#: Name node, opens a scope, returns early or leaves a loop.
_STATEMENTS = (ast.Assign, ast.If, ast.Expr, ast.Raise, ast.Pass)
#: Expressions it may not hold: each opens a scope, suspends the frame,
#: (starred) may change the arity of the return or (:=) binds a name
#: outside an assignment.
_DECLINED = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
             ast.Yield, ast.YieldFrom, ast.Await, ast.Starred, ast.NamedExpr)

#: A rate body as the specialiser writes it in: (its parameters, its
#: statements, its returned tuple), every name prefixed.
_Body = tuple[list[str], list[ast.stmt], ast.Tuple]


class _Vetted(NamedTuple):
    """A rate definition that the inliner takes.  names are the globals it
    reads and body its body, every name prefixed; args are the leading
    parameters of a driver it is written into, the prefixed names of its
    free variables and then of those globals, so that the rate's constants
    are locals."""

    names: tuple[str, ...]
    body: _Body
    args: tuple[str, ...]


def _bound(f: RateFn, n: int) -> list[object] | None:
    """The values of the leading parameters of f's drivers (see _Vetted)
    when f is a rate of n components that the inliner takes, else None."""
    if (type(f) is not FunctionType or f.__defaults__ is not None or f.__kwdefaults__ is not None
            or (vetted := _vet(f.__code__, n)) is None):
        return None
    try:
        free = [cell.cell_contents for cell in f.__closure__ or ()]
        return free + [f.__globals__[name] if name in f.__globals__ else f.__builtins__[name]
                       for name in vetted.names]
    except (ValueError, KeyError):  # an empty cell, an unbound global
        return None


def _refused(f: RateFn, why: str) -> Exception:
    """The error that refuses f: a BjjError naming f's code when its source
    cannot be read, else a TypeError naming f, followed by why."""
    if type(f) is FunctionType and not _source(f.__code__):
        return BjjError(f"cannot read the source of {f.__qualname__} ({f.__code__.co_filename}, "
                        f"line {f.__code__.co_firstlineno}), from which its drivers are written")
    return TypeError(f"rate {getattr(f, '__qualname__', f)!r} {why}")


def _stepper(f: RateFn, n: int) -> Callable[..., tuple[float, State]]:
    """The driver of n components with f bound:
    ``_stepper(f, n)(drive, t, y, targets, ctl, ...)`` with len(y) == n.

    A plain def rate (n + 2 positional parameters, no defaults, a body of
    simple statements ending in its one ``return`` of an n-tuple) is
    written by _inline into _drive, widened to n components, at each of
    its rate calls, compiled once per process, rate definition and n, and
    bound to this f's closure and globals.  The inlined body runs the same
    floating-point operations in the same order, so every result and
    exception is the one that _drive calling f gives.  Any other rate (a
    lambda, a wrapper over ``*args``, one with defaults, nested scopes, an
    early return, an ``x op= v`` or a ``:=``, without source, or with an
    empty closure cell) runs on _drive as written when n = 2; for any
    other n it is refused, by a TypeError naming it (a BjjError naming
    its code when its source cannot be read).
    """
    values = _bound(f, n)
    if values is not None:
        return partial(_inline(f.__code__, n, f.__qualname__), *values)
    if n == 2:
        return partial(_drive, f)
    raise _refused(f, f"of {n} components cannot be written in; only one of 2 runs on _drive")


def _source(code: CodeType) -> str:
    """The source of code's definition, read from its file without
    linecache, "" when it cannot be read."""
    try:
        with tokenize.open(code.co_filename) as file:
            return "".join(inspect.getblock(file.readlines()[code.co_firstlineno - 1:]))
    except OSError:
        return ""


@cache
def _drive_source() -> str:
    """_drive's source, read once per process: parsing it again for each
    build costs less than copying the parsed tree."""
    return _source(_drive.__code__)


def _indices(node: ast.AST) -> set[str]:
    """The indices, "0" or "1", of the component locals that node names."""
    return {sub.id[1] for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and len(sub.id) == 2
            and sub.id[0] in _COMPONENTS and sub.id[1] in "01"}


def _copy(nodes: object) -> object:
    """A deep copy of nodes, made at C speed."""
    return pickle.loads(pickle.dumps(nodes, pickle.HIGHEST_PROTOCOL))


def _renamed(node: ast.AST, i: int) -> ast.AST:
    """A copy of node with each index-1 component local renamed to index i."""
    return _renaming([node], {c + "1": c + str(i) for c in _COMPONENTS})[0]


def _f_args(node: ast.AST) -> list[ast.expr]:
    """The arguments of node when it is a rate call f(...) without keywords,
    else []."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "f"
            and not node.keywords):
        return node.args
    return []


def _stored(nodes: list[ast.AST]) -> set[str]:
    """The names that nodes bind."""
    return {sub.id for node in nodes for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load)}


def _renaming(nodes: list[ast.AST], names: dict[str, str]) -> list[ast.AST]:
    """A copy of nodes with each name that names maps renamed."""
    nodes = _copy(nodes)
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in names:
                sub.id = names[sub.id]
    return nodes


def _site(stmt: ast.stmt, n: int) -> bool:
    """Whether stmt is a rate site of n components,
    ``X0, ..., Xn-1 = f(a, b, A0, ..., An-1)``."""
    return (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Tuple) and len(stmt.targets[0].elts) == n
            and len(_f_args(stmt.value)) == n + 2)


def _specialised(
    n: int, rate: _Body | None = None, scored: int | None = None, coarse: _Body | None = None
) -> ast.FunctionDef:
    """A fresh AST of _drive widened to n components, the first scored of
    them (default all) scored and the rest passengers, with rate's body
    written in at each rate site when rate = (params, body, returned).

    One pass widens and writes in.  In every statement list, a maximal run
    of statements that name only index-1 component locals is followed
    whole by its copies for the indices 2 .. scored-1, which are not
    widened again; every other statement is widened inside.  A tuple or a
    rate call whose last two elements are an index-0 and an index-1
    expression gains the copies of the latter.  With n = 2 nothing is
    widened.  A rate site is a statement ``X0, X1 = f(a, b, A0, A1)`` of
    _drive; with a rate it becomes the body, preceded by each parameter
    assigned its argument and followed by ``Xi = ei`` for each returned
    ``ei``, and the parameter f is dropped.  Copy-free, a parameter that
    the body never binds and whose argument is a bare name other than the
    targets is that name, and a returned local that is not a parameter is
    its target Xi when Xi is not a bare-name argument; no float operation
    changes.

    Passengers ride the coarse RK4 step only.  The _COARSE_SITES, the
    stages of b (its stage 1 is the rate at the start or at the state
    accepted last), are widened to all n components and the others to
    scored; the run that computes b1 is copied for the
    passengers too, and the run that accepts y1 gains ``yi = bi`` for
    each passenger.  Every other tuple, the state, carries them all, but
    in a raise statement, whose message names the scored state.  So a
    passenger never enters the half steps, the extrapolation or the error
    score, and the scored components keep their bits and steps.  The
    coarse sites get coarse's body, a rate of all n components whose first
    scored values are the rate's own, bit for bit; without a rate each is
    preceded by the call of f over the scored components, so that f is
    called at every site.  RuntimeError unless there are exactly
    _RATE_CALLS sites, f is loaded nowhere else and a passenger is both
    stepped and accepted.
    """
    scored = n if scored is None else scored
    (drive,) = ast.parse(_drive_source()).body
    sites = candidates = carried = 0

    def widen(node: ast.AST, width: int) -> None:
        for field, value in ast.iter_fields(node):
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                body: list[ast.stmt] = []
                for run, group in groupby(value, lambda s: n > 2 and _indices(s) == {"1"}):
                    group = list(group)
                    if run:
                        body += group + [_renamed(s, i) for i in range(2, scored) for s in group]
                        body += passengers(group)
                        continue
                    for stmt in group:
                        if _site(stmt, 2):
                            body += write_in(stmt)
                        else:
                            widen(stmt, scored if isinstance(stmt, ast.Raise) else n)
                            body.append(stmt)
                setattr(node, field, body)
            else:
                for item in value if isinstance(value, list) else [value]:
                    if isinstance(item, ast.AST):
                        widen(item, width)
        elts = node.elts if isinstance(node, ast.Tuple) else _f_args(node)
        if len(elts) >= 2 and _indices(elts[-2]) == {"0"} and _indices(elts[-1]) == {"1"}:
            elts += [_renamed(elts[-1], i) for i in range(2, width)]

    def passengers(group: list[ast.stmt]) -> list[ast.stmt]:
        """The passengers' copies of a run: of the one computing b1, and
        ``yi = bi`` for the one accepting y1."""
        nonlocal carried
        if n == scored or _stored(group) not in ({"b1"}, {"y1"}):
            return []
        carried += 1
        if _stored(group) == {"b1"}:
            return [_renamed(s, i) for i in range(scored, n) for s in group]
        return [ast.copy_location(ast.Assign(targets=[ast.Name(f"y{i}", ast.Store())],
                                             value=ast.Name(f"b{i}", ast.Load())), group[0])
                for i in range(scored, n)]

    def write_in(stmt: ast.stmt) -> list[ast.stmt]:
        """stmt widened, and the rate written in for it when it is still a
        rate site."""
        nonlocal sites, candidates
        candidates += 1
        width = n if candidates in _COARSE_SITES else scored
        body = coarse if width > scored else rate
        # a called rate with a derivative: f over the scored components first
        call = [_copy(stmt)] if rate is None and body is not None else []
        for site in call:
            widen(site, scored)
        widen(stmt, width)
        is_site = _site(stmt, width)
        sites += is_site
        if body is None or not is_site:
            return [stmt]
        params, body, returned = body
        stored = _stored(body)
        targets = stmt.targets[0].elts
        target_ids = {getattr(x, "id", None) for x in targets}
        args = stmt.value.args
        bare = {arg.id for arg in args if isinstance(arg, ast.Name)}
        names: dict[str, str] = {}
        head = []
        for p, arg in zip(params, args):
            if isinstance(arg, ast.Name) and arg.id not in target_ids and p not in stored:
                names[p] = arg.id
            else:
                head.append(ast.Assign(targets=[ast.Name(p, ast.Store())], value=arg))
        for x, e in zip(targets, returned.elts):
            if (isinstance(x, ast.Name) and x.id not in bare and isinstance(e, ast.Name)
                    and e.id in stored and e.id not in params and e.id not in names):
                names[e.id] = x.id
        *body, returned = _renaming(body + [returned], names)
        return call + head + body + [ast.Assign(targets=[x], value=e)
                              for x, e in zip(targets, returned.elts)
                              if not (isinstance(e, ast.Name) and e.id == getattr(x, "id", None))]

    widen(drive, n)
    loads = sum(isinstance(node, ast.Name) and node.id == "f" for node in ast.walk(drive))
    if (sites != _RATE_CALLS or loads != (sites if rate is None else 0)
            or carried != (0 if n == scored else 2)):
        raise RuntimeError(
            f"_drive widened to {n} components has {sites} inlinable rate calls, "
            f"expected {_RATE_CALLS}, and must load f nowhere else"
            + ("" if n == scored else ", and step and accept its passengers once")
        )
    if rate is not None:
        del drive.args.args[0]
    return drive


def _compiled(function: ast.FunctionDef, args: tuple[str, ...], filename: str) -> Callable:
    """function, with the leading parameters args added, compiled in
    bjj.integrate's globals, which _drive's body uses, with its
    annotations left unevaluated strings, as in bjj.integrate."""
    function.args.args[:0] = [ast.arg(arg) for arg in args]
    module = ast.fix_missing_locations(ast.Module([function], type_ignores=[]))
    namespace: dict[str, Callable] = {}
    exec(compile(module, filename, "exec", annotations.compiler_flag, dont_inherit=True),
         vars(integrate), namespace)
    return namespace[function.name]


@cache
def _vet(code: CodeType, n: int) -> _Vetted | None:
    """The rate definition code of n components as the inliner takes it,
    or None when it does not (see _stepper).  It compiles nothing."""
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
    args = tuple(_PREFIX + name for name in code.co_freevars + names)
    return _Vetted(names, ([_PREFIX + p for p in params], body, last.value), args)


@cache
def _inline(code: CodeType, n: int, qualname: str) -> Callable[..., tuple[float, State]]:
    """Compile _drive, widened to n components, with the body of the rate
    definition code, which _vet takes, at every rate site; it takes the
    values of _Vetted.args first.  qualname names the compiled driver."""
    vetted = _vet(code, n)
    return _compiled(_specialised(n, vetted.body), vetted.args, f"<_drive inlining {qualname}>")
