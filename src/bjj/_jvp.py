"""The tangent form of a rate, imported by the first Lyapunov run rather
than with bjj or with the other drivers.

_jvp differentiates, in forward mode, the rate body that
bjj._specialise._vet returns, and _tangent(f, n) writes it into
_drive widened with a tangent vector as passengers (_specialised with
scored = n): the orbit keeps its bits and steps, and the vector rides the
coarse RK4 step.  The rest of the driver has the rate written in, or, for
a wrapper over the rate (a counting one), calls the wrapper at every site,
so one writer serves both.  _tangent_form compiles it once per process
into its own cache, keyed by the rate's definition and n, by which of the
values the rate binds are math's sin, cos and sqrt (a closure of the same
definition that binds another of them gets its own tangent) and by
whether the driver calls the rate.  It reads the vetted body alone, so a
Lyapunov run compiles no driver without a tangent.
"""

from __future__ import annotations

import ast
import inspect
import math
from functools import cache, partial
from itertools import count
from types import CodeType
from typing import Callable

from ._specialise import (_PREFIX, _Body, _bound, _compiled, _copy, _refused, _specialised,
                          _stored, _vet)
from .integrate import State
from .model import RateFn

#: Prefix of every name the tangent adds: the tangent of the rate's local
#: _rate_x is _tangent_x, and its temporaries are _tangent_0, _tangent_1 ...
_TANGENT = "_tangent_"
#: The math functions whose calls _jvp differentiates, by what it calls them.
_DERIVATIVES = ((math.sin, "sin"), (math.cos, "cos"), (math.sqrt, "sqrt"))
#: Operators with a derivative rule.
_JVP_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


def _tangent(f: RateFn, n: int) -> Callable[..., tuple[float, State]]:
    """The driver of f's n components and one tangent vector v:
    ``_tangent(f, n)(drive, t, y + v, targets, ctl, ...)`` returns
    ``(t, y' + v')``, with y' the state that _stepper(f, n) gives.

    v is n passengers (see _specialised): they ride only the coarse RK4
    step of each accepted step, their stages taken at the orbit's own
    coarse stage states with f's forward-mode derivative, and take its
    result.  So y keeps every bit and step of the plain run, and v' is the
    exact derivative of the chain of coarse RK4 maps along it, O(h^4) from
    the flow's.  The derivative is generated from the body of
    inspect.unwrap(f), which must be a rate the inliner takes and whose
    body _jvp can differentiate.  That f itself is written in, as for
    _stepper; a wrapper over it (a counting one) is called at every site
    instead, its derivative written in after it at the coarse ones, with
    the same bits and calls.  TypeError, naming the rate, when there is no
    tangent form; a BjjError, naming its code, when that is because the
    rate's source cannot be read.
    """
    rate = inspect.unwrap(f)
    values = _bound(rate, n)
    if values is not None:
        kinds = tuple(next((kind for fn, kind in _DERIVATIVES if value is fn), None)
                      for value in values)
        driver = _tangent_form(rate.__code__, n, rate.__qualname__, kinds, rate is not f)
    if values is None or driver is None:
        raise _refused(rate, "has no tangent form")
    return partial(driver, *values) if rate is f else partial(driver, *values, f)


class _NoTangent(Exception):
    """A rate body that _jvp cannot differentiate."""


def _jvp(vetted: _Body, funcs: dict[str, str]) -> _Body | None:
    """The forward-mode derivative (JVP) of a vetted rate body of n
    components, or None when it has none: a body of 2n + 2 parameters
    (the rate's, then the tangent _tangent_y of each state parameter _rate_y)
    returning the rate's n values and then their tangents.

    funcs names the locals bound to the math functions of _DERIVATIVES.  The
    active names are the state parameters and every name the body binds
    but t and de.  Each assignment must bind one of them, through one Name
    target, and is preceded by its tangent (0.0 for one that reads nothing
    active, which is exact), so the tangent reads the values its expression
    reads; an expression statement passes through unchanged, and so does
    every if test (the guard's raise and the branches on closure
    constants).  Rules: + - * / and unary minus, and sin, cos and sqrt
    calls of one argument (sin' is cos and cos' is -sin, so a rate that
    calls either must bind both).  Each differentiated call and quotient
    is bound to a temporary, shared by the rate and its derivative
    (sin'(u) is a cos(u) that the rate may evaluate as well) while no name
    it reads is rebound; a temporary holds the value its expression gives,
    so the rate's values keep their bits.  Any other expression that reads an
    active name has no derivative.
    """
    params, body, returned = _copy(vetted)
    state = params[2:]
    active = (set(state) | _stored(body)) - set(params[:2])
    temps = count()

    def reads(node: ast.AST) -> set[str]:
        return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}

    def tangent(name: str) -> str:
        return _TANGENT + name[len(_PREFIX):]

    def binop(left: ast.expr | None, op: ast.operator, right: ast.expr | None) -> ast.expr | None:
        """left op right, None standing for a zero tangent."""
        if isinstance(op, (ast.Mult, ast.Div)):
            return None if left is None or right is None else ast.BinOp(left, op, right)
        if right is None:
            return left
        if left is None:
            return right if isinstance(op, ast.Add) else ast.UnaryOp(ast.USub(), right)
        return ast.BinOp(left, op, right)

    def bound(key: tuple[str, str], value: ast.expr, memo: dict,
              hoisted: list[ast.stmt]) -> ast.Name:
        """The temporary that memo holds for key, else a new one assigned
        value in hoisted."""
        if key not in memo:
            name = f"{_TANGENT}{next(temps)}"
            hoisted.append(ast.Assign(targets=[ast.Name(name, ast.Store())], value=value))
            memo[key] = name, reads(value)
        return ast.Name(memo[key][0], ast.Load())

    def call(kind: str, arg: ast.expr, memo: dict, hoisted: list[ast.stmt]) -> ast.Name:
        """The temporary holding the math function kind of arg, which the
        rate must bind."""
        name = next((local for local, k in funcs.items() if k == kind), None)
        if name is None:
            raise _NoTangent
        value = ast.Call(ast.Name(name, ast.Load()), [_copy(arg)], [])
        return bound((kind, ast.dump(arg)), value, memo, hoisted)

    def derive(e: ast.expr, memo: dict, hoisted: list[ast.stmt]) -> tuple[ast.expr, ast.expr | None]:
        """(e with its calls and quotients read from temporaries, its tangent
        or None for zero), the temporaries' assignments added to hoisted."""
        if not reads(e) & active:
            return e, None
        if isinstance(e, ast.Name):
            return e, ast.Name(tangent(e.id), ast.Load())
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
            e.operand, d = derive(e.operand, memo, hoisted)
            return e, binop(None, ast.Sub(), d)
        if isinstance(e, ast.BinOp) and isinstance(e.op, _JVP_OPS):
            e.left, dl = derive(e.left, memo, hoisted)
            e.right, dr = derive(e.right, memo, hoisted)
            a, b = _copy(e.left), _copy(e.right)
            if isinstance(e.op, (ast.Add, ast.Sub)):
                return e, binop(dl, e.op, dr)
            if isinstance(e.op, ast.Mult):
                return e, binop(binop(dl, ast.Mult(), b), ast.Add(), binop(a, ast.Mult(), dr))
            if dr is None:
                return e, binop(dl, ast.Div(), b)
            q = bound(("/", ast.dump(e)), e, memo, hoisted)
            return q, binop(binop(dl, ast.Sub(), binop(_copy(q), ast.Mult(), dr)), ast.Div(), b)
        if (isinstance(e, ast.Call) and isinstance(e.func, ast.Name) and e.func.id in funcs
                and len(e.args) == 1 and not e.keywords):
            kind = funcs[e.func.id]
            e.args[0], du = derive(e.args[0], memo, hoisted)
            u = e.args[0]
            value = bound((kind, ast.dump(u)), e, memo, hoisted)
            if kind == "sqrt":
                return value, binop(binop(ast.Constant(0.5), ast.Mult(), du), ast.Div(),
                                    _copy(value))
            if kind == "sin":
                return value, binop(call("cos", u, memo, hoisted), ast.Mult(), du)
            sin = call("sin", u, memo, hoisted)
            return value, binop(ast.UnaryOp(ast.USub(), sin), ast.Mult(), du)
        raise _NoTangent

    def statements(stmts: list[ast.stmt], memo: dict) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                stmt.body = statements(stmt.body, dict(memo))
                stmt.orelse = statements(stmt.orelse, dict(memo))
                out.append(stmt)
            elif isinstance(stmt, ast.Assign):
                x = getattr(stmt.targets[0], "id", None)
                if len(stmt.targets) != 1 or x not in active:
                    raise _NoTangent
                hoisted: list[ast.stmt] = []
                stmt.value, d = derive(stmt.value, memo, hoisted)
                d = ast.Constant(0.0) if d is None else d
                out += hoisted + [ast.Assign(targets=[ast.Name(tangent(x), ast.Store())],
                                             value=d), stmt]
            else:
                out.append(stmt)
            stored = _stored([stmt])
            for key in [key for key, (_, names) in memo.items() if names & stored]:
                del memo[key]
        return out

    try:
        body = statements(body, memo := {})
        hoisted: list[ast.stmt] = []
        values, tangents = zip(*(derive(e, memo, hoisted) for e in returned.elts))
    except _NoTangent:
        return None
    tangents = [ast.Constant(0.0) if d is None else d for d in tangents]
    return ([*params, *map(tangent, state)], body + hoisted,
            ast.Tuple([*values, *tangents], ast.Load()))


@cache
def _tangent_form(code: CodeType, n: int, qualname: str, kinds: tuple[str | None, ...],
                  called: bool) -> Callable | None:
    """Compile, once per process, the driver of the rate definition code of
    n components, which _vet takes, and its tangent: _drive widened to 2n
    components, n of them scored, with the rate's forward-mode derivative
    (_jvp) written in at the coarse sites, and the rate written in at the
    others or, when called, called at every site.  It takes the values of
    _Vetted.args, of which kinds names the math functions (None for any
    other value), then, when called, the rate.  None when the body has no
    derivative (see _jvp).  It reads the vetted body alone, so it compiles
    only this driver."""
    vetted = _vet(code, n)
    jvp = _jvp(vetted.body, {name: kind for name, kind in zip(vetted.args, kinds) if kind})
    if jvp is None:
        return None
    drive = _specialised(2 * n, None if called else vetted.body, scored=n, coarse=jvp)
    how = "calling" if called else "inlining"
    return _compiled(drive, vetted.args, f"<_drive {how} {qualname} and its tangent>")
