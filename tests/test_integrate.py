import ast
import dataclasses
import hashlib
import inspect
import math
import re
import textwrap
import types
from functools import partial, wraps

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bjj._jvp
import bjj._specialise
import bjj.analysis
import bjj.integrate
import bjj.twomode
from bjj._jvp import _DERIVATIVES, _jvp, _tangent
from bjj._specialise import _bound, _called, _specialised, _stepper
from bjj.analysis import lyapunov_estimate
from bjj.errors import BjjError, SingularityError, StepUnderflowError
from bjj.integrate import (
    MAX_TARGETS,
    StepControl,
    Trajectory,
    _drive,
    _sample_targets,
    advance,
    default_control,
    integrate_adaptive,
    sample_stroboscopic,
    section_from_trajectory,
)
from bjj.model import (
    Z_GUARD,
    DampingKind,
    PhaseState,
    TrapParams,
    hamiltonian,
    make_rate,
    trap_asymmetry,
)
from bjj.twomode import crosscheck_max_dz, integrate_twomode

TIGHT = StepControl(abs_tol=1e-12, rel_tol=1e-12, h_init=1e-3, h_min=1e-14, h_max=0.05)


def oscillator(t, de, x, v):
    """Harmonic oscillator; from (1, 0) the exact state is (cos t, -sin t)."""
    return v, -x


#: Drive (de0, de1, omega) of a rate that ignores its tilt argument.
NO_DRIVE = (0.0, 0.0, 1.0)


def fixed_steps(h, t_end):
    """Oscillator state at t_end from (1, 0) after steps of exactly h: a
    unit tolerance accepts every step, and h_min = h_max = h pins it."""
    ctl = StepControl(abs_tol=1.0, rel_tol=1.0, h_init=h, h_min=h, h_max=h)
    return _drive(oscillator, NO_DRIVE, 0.0, (1.0, 0.0), [t_end], ctl)[1]


def test_rk4_single_step_accuracy():
    y = fixed_steps(0.1, 0.1)
    assert abs(y[0] - math.cos(0.1)) < 1e-7
    assert abs(y[1] + math.sin(0.1)) < 1e-7


def test_rk4_fixed_step_is_fourth_order():
    # the accepted state is the Richardson extrapolation of two fourth-order
    # solutions, so the global error falls as h^5: halving h divides it by 32
    def run(n):
        y = fixed_steps(1.0 / n, 1.0)
        return math.hypot(y[0] - math.cos(1.0), y[1] + math.sin(1.0))

    ratio = run(32) / run(64)
    assert 24.0 < ratio < 40.0


def counting(make, evals):
    """make, with every call of the rates it builds counted in evals[0]: a
    wrapper over ``*args``, as the benchmark's tracer counts them."""

    def make_counted(p):
        rate = make(p)

        @wraps(rate)
        def counted(*args):
            evals[0] += 1
            return rate(*args)

        return counted

    return make_counted


def inlined(f, n=2):
    """Whether the driver of n components runs f written into its source."""
    return _stepper(f, n).func is not _called(n)


#: The specialiser's builders, each with its own cache.
BUILDERS = (bjj._specialise._drive_source, bjj._specialise._called,
            bjj._specialise._inline, bjj._jvp._tangent_form)


def clear_builders():
    for builder in BUILDERS:
        builder.cache_clear()


@pytest.fixture
def fresh_builders():
    """Every builder's cache empty before the test and after it, so that
    nothing built from a patched source or compiler outlives the test."""
    clear_builders()
    yield
    clear_builders()


def assert_fig5_pins(evals=None):
    p = TrapParams(lam=10.0, de1=7.5, omega=4.0 * math.pi)
    s0 = PhaseState(0.0, 0.5, 0.0)
    sec = sample_stroboscopic(p, s0, 40)
    if evals is not None:
        assert evals[0] == 26925  # 1 + 10 x 2448 attempted + 2444 accepted steps
    assert sec.z[-1] == 0.020592784343077236
    assert sec.dz_dt[-1] == -0.9935658489367988
    traj = integrate_adaptive(p, s0, 40 * p.period, sample_dt=p.period)
    assert (traj.z[-1], traj.phi[-1]) == (0.020592784343077236, 1.6824196467883532)
    # fig5_de1_3.0 parameters; the two-mode oracle runs on four floats
    p3 = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    assert crosscheck_max_dz(p3, 0.5, 0.0, t_end=10.0).max_abs_dz == 7.731298075699944e-10
    return p, p3


def test_stepper_keeps_pinned_orbit_bits(monkeypatch):
    # Values recorded from the tuple-generic stepper that the 2-component
    # kernel replaced: the same floating-point operations in the same order
    # give the same steps, rate evaluations and bits.  The counting wrappers
    # run every rate through the called driver; without them both rates
    # are inlined.
    evals = [0]
    monkeypatch.setattr(bjj.integrate, "make_rate", counting(make_rate, evals))
    monkeypatch.setattr(bjj.twomode, "_make_rate", counting(bjj.twomode._make_rate, [0]))
    assert_fig5_pins(evals)
    monkeypatch.undo()
    p, p3 = assert_fig5_pins()
    assert inlined(make_rate(p)) and inlined(bjj.twomode._make_rate(p3), 4)


@pytest.mark.parametrize(
    "damping, evals, exponent",
    [(DampingKind.POPULATION, 5829, 0.6627514819883186),
     (DampingKind.VELOCITY, 5840, 0.6712346815650729)],
    ids=["population", "velocity"],
)
def test_damped_lyapunov_keeps_pinned_bits(monkeypatch, damping, evals, exponent):
    # fig8 parameters; the orbit steps the damped rate with its tangent,
    # through the called driver under the counting wrapper (the tangent
    # taken from the rate it wraps) and through the inlined one without it
    p = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi, eta=0.01, damping=damping)
    count = [0]
    monkeypatch.setattr(bjj.analysis, "make_rate", counting(make_rate, count))
    assert lyapunov_estimate(p, 0.5, 0.0, horizon=5.0) == exponent
    assert count[0] == evals
    monkeypatch.undo()
    assert inlined(make_rate(p))
    assert lyapunov_estimate(p, 0.5, 0.0, horizon=5.0) == exponent


S_PIN = PhaseState(0.0, 0.5, 0.3)

#: (p, sample_dt, evals, rows, z, phi) of the pinned runs from S_PIN.
S_PINS = [
    # undriven: every stage gets de0 and no sin is evaluated
    (TrapParams(lam=10.0), 0.5, 13881, 41, -0.22191888138686355, -1.7527239785630258),
    (TrapParams(lam=10.0, de1=2.0, eta=0.05, damping=DampingKind.POPULATION), 0.5,
     14160, 41, -0.12179148388330586, -5.535668405817371),
    (TrapParams(lam=10.0, de1=2.0, eta=0.05, damping=DampingKind.VELOCITY), 0.5,
     13625, 41, 0.5409370209014888, 84.44174223604693),
    # every accepted step recorded
    (TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi), None,
     5644, 514, 0.1279277221190182, -2.3104289405126646),
]

S_PIN_CASES = pytest.mark.parametrize(
    "p, sample_dt, evals, rows, z, phi", S_PINS,
    ids=["undriven", "population_damped", "velocity_damped", "every_step"],
)


@S_PIN_CASES
def test_rate_closures_keep_pinned_orbit_bits(monkeypatch, p, sample_dt, evals, rows, z, phi):
    # Values recorded before the driver was written out stage by stage; the
    # count is 1 + 10 x attempted + accepted steps, and dz_dt costs none.
    count = [0]
    monkeypatch.setattr(bjj.integrate, "make_rate", counting(make_rate, count))
    t_end = 5.0 if sample_dt is None else 20.0
    traj = integrate_adaptive(p, S_PIN, t_end, sample_dt=sample_dt)
    assert (count[0], len(traj)) == (evals, rows)
    assert (traj.z[-1], traj.phi[-1]) == (z, phi)
    monkeypatch.undo()
    traj = integrate_adaptive(p, S_PIN, t_end, sample_dt=sample_dt)
    assert len(traj) == rows and inlined(make_rate(p))
    assert (traj.z[-1], traj.phi[-1]) == (z, phi)


def test_numpy_rounds_sin_cos_sqrt_like_math():
    # The Melnikov integrand's tilt column, trap_asymmetry over an array,
    # runs numpy's sin where the driver runs math's, and trap_asymmetry
    # promises math's bits at every time; numpy's cos and sqrt are probed
    # alike, on the arguments the equations see: phases and drive phases up
    # to 1e5 in size, and 1 - z^2 in [0, 1].  A numpy build that rounds
    # differently fails here first, not through the output pins.
    rng = np.random.default_rng(20260)
    n = 200_000
    angles = np.concatenate([rng.uniform(-4.0, 4.0, n // 2), rng.uniform(-1e5, 1e5, n // 2)])
    squares = 1.0 - rng.uniform(-1.0, 1.0, n) ** 2
    for ufunc, fn, xs in [(np.sin, math.sin, angles), (np.cos, math.cos, angles),
                          (np.sqrt, math.sqrt, squares)]:
        expected = np.array([fn(x) for x in xs.tolist()])
        differ = np.flatnonzero(ufunc(xs).view(np.int64) != expected.view(np.int64))
        assert differ.size == 0, (
            f"numpy.{ufunc.__name__} differs from math.{fn.__name__} on {differ.size} of {n} "
            f"draws, first at x={xs[differ[0]]!r}"
        )


def test_numpy_exp_tanh_keep_the_melnikov_pin_bits():
    # The Melnikov integrand runs numpy's exp (in sech) and tanh, whose SIMD
    # kernels differ from math's on some inputs; the quadrature's bit pins
    # were taken where these digests hold.  A numpy that dispatches other
    # kernels fails here by name, not through those pins.
    xi = np.linspace(-40.0, 40.0, 200_000)
    for name, values, digest in [
        ("exp(-|xi|)", np.exp(-np.abs(xi)),
         "b43f0d6a212aee7a096c0c3006677eb4a6089d469e4095f0cf3932ef59539ab7"),
        ("tanh(xi)", np.tanh(xi),
         "dd3a622330f7e665f309d2181b11981a26c8fe21107853e8d46398fd0df18a56"),
    ]:
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest, (
            f"numpy's {name} on 200000 points of [-40, 40] has other bits than where "
            "the Melnikov pins were recorded"
        )


def test_dz_dt_rows_outside_the_flow_raise_naming_t():
    # a row in the guard band raises the rate's own SingularityError; a row
    # that is not finite (an infinite phase too) a BjjError naming t and the
    # state
    p = TrapParams(lam=10.0, de1=2.0, omega=4.0 * math.pi)
    with pytest.raises(SingularityError, match=r"at t=0\.0 \(z=0\.9999999999999"):
        integrate_adaptive(p, PhaseState(0.0, 1.0 - 1e-13, 0.3), 0.0)
    for phi in (math.inf, math.nan):
        with pytest.raises(BjjError, match=rf"t=0\.0, state=\(0\.5, {phi}\).*") as info:
            integrate_adaptive(p, PhaseState(0.0, 0.5, phi), 0.0)
        assert type(info.value) is BjjError and "not finite" in str(info.value)


def test_twomode_keeps_pinned_amplitude_bits():
    p = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    traj = integrate_twomode(p, S_PIN, 5.0, sample_dt=0.5)
    assert (complex(traj.a1[-1]), complex(traj.a2[-1])) == (
        0.013766190900418373 + 0.7508490880616501j,
        0.47955608560102075 - 0.4539406347224939j,
    )


def rows_digest(traj):
    """SHA-256 of every row's time and amplitude bits."""
    parts = [traj.t] + [np.ascontiguousarray(a).view(float) for a in (traj.a1, traj.a2)]
    return hashlib.sha256(np.concatenate(parts).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "sample_dt, t_end, evals, rows, a1, a2, digest",
    [
        (None, 5.0, 13201, 1201,
         0.013766190905263832 + 0.7508490880614505j, 0.4795560855967738 - 0.4539406347280407j,
         "2580135158d72db7717a0f2ed6d91ac5216617719feca1dcaafb71c88fe83865"),
        (0.5, 20.0, 53307, 41,
         0.4966646176767654 + 0.6548683228176547j, -0.3212266035547778 + 0.47040961623270305j,
         "1b84b9ecc2b40032a84e71508d1e4e2e651c1e9052e38daaf1ede35308f4ce29"),
    ],
    ids=["every_step", "grid"],
)
def test_driven_oracle_keeps_pinned_bits(monkeypatch, sample_dt, t_end, evals, rows, a1, a2,
                                         digest):
    # Values recorded while the oracle still stepped Python complex (a1, a2)
    # pairs: its float components must take the same steps to the same bits.
    # The counting wrapper runs the rate through the widened called driver;
    # without it the rate is written into the widened driver.
    p = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    count = [0]
    monkeypatch.setattr(bjj.twomode, "_make_rate", counting(bjj.twomode._make_rate, count))
    for counted in (True, False):
        traj = integrate_twomode(p, S_PIN, t_end, sample_dt=sample_dt)
        assert (count[0], len(traj)) == (evals, rows)
        assert (complex(traj.a1[-1]), complex(traj.a2[-1])) == (a1, a2)
        assert rows_digest(traj) == digest
        monkeypatch.undo()
    assert inlined(bjj.twomode._make_rate(p), 4)


def test_advance_matches_trajectory_endpoint():
    p = TrapParams(lam=10.0, de1=2.0, omega=4.0 * math.pi)
    s0 = PhaseState(0.0, 0.4, 0.3)
    end = advance(p, s0, 7.0)
    traj = integrate_adaptive(p, s0, 7.0, sample_dt=0.5)
    assert traj.t[-1] == 7.0
    assert end.z == pytest.approx(traj.z[-1], abs=1e-9)
    assert end.phi == pytest.approx(traj.phi[-1], abs=1e-9)


def test_sample_grid_is_exact_products():
    p = TrapParams(lam=10.0)
    traj = integrate_adaptive(p, PhaseState(0.0, 0.5, 0.0), 2.0, sample_dt=0.125)
    expected = np.array([k * 0.125 for k in range(17)])
    assert np.array_equal(traj.t, expected)


def test_sample_grid_appends_ragged_end():
    p = TrapParams(lam=10.0)
    traj = integrate_adaptive(p, PhaseState(0.0, 0.5, 0.0), 1.0, sample_dt=0.3)
    assert traj.t[-1] == 1.0
    assert np.array_equal(traj.t[:-1], [k * 0.3 for k in range(4)])


@given(
    lam=st.floats(0.0, 12.0),
    de1=st.sampled_from([0.0, 3.0]),
    z0=st.floats(-0.8, 0.8),
    phi0=st.floats(-3.0, 3.0),
    t_end=st.floats(0.01, 1.0),
)
# a step that is no landing ends on t_end by rounding
@example(lam=0.0, de1=0.0, z0=0.0, phi0=0.0, t_end=0.581)
@example(lam=10.0, de1=3.0, z0=0.5, phi0=0.0, t_end=0.036000000000000004)
@settings(max_examples=30)
def test_every_step_times_strictly_increase(lam, de1, z0, phi0, t_end):
    # to t_end, and to the end of the longer run's step nearest after it
    # (about a quarter of which a shorter step reaches by rounding), every
    # recorded time follows the one before and the last is t_end
    p = TrapParams(lam=lam, de1=de1, omega=4.0 * math.pi)
    s0 = PhaseState(0.0, z0, phi0)
    ends = integrate_adaptive(p, s0, 1.0).t
    for end in (t_end, ends[np.searchsorted(ends, t_end)]):
        t = integrate_adaptive(p, s0, end).t
        assert np.all(np.diff(t) > 0.0) and t[-1] == end


def test_dz_dt_matches_rate_at_samples(monkeypatch):
    # dz_dt is the stage-1 rate the driver evaluated at each row: the bits
    # of make_rate's own value there, on the inlined path and on the called
    # one that the counting wrapper takes, for the pinned runs (undriven,
    # both damping placements, every step recorded), a damped driven grid
    # and a one-row run.
    damped = TrapParams(lam=10.0, de1=2.0, omega=2.0 * math.pi, eta=0.01)
    runs = [(p, S_PIN, 5.0 if dt is None else 20.0, dt, rows) for p, dt, _, rows, _, _ in S_PINS]
    runs += [(damped, PhaseState(0.0, 0.5, 0.0), 3.0, 0.25, 13), (damped, S_PIN, 0.0, None, 1)]
    for wrapped in (False, True):
        for p, s0, t_end, sample_dt, rows in runs:
            assert inlined(bjj.integrate.make_rate(p)) is not wrapped
            traj = integrate_adaptive(p, s0, t_end, sample_dt=sample_dt)
            rate = make_rate(p)
            expected = [rate(t, trap_asymmetry(p, t), z, phi)[0].hex()
                        for t, z, phi in zip(traj.t.tolist(), traj.z.tolist(), traj.phi.tolist())]
            assert len(traj) == rows and [dz.hex() for dz in traj.dz_dt.tolist()] == expected
        monkeypatch.setattr(bjj.integrate, "make_rate", counting(make_rate, [0]))


def test_stroboscopic_lands_exactly_on_periods():
    p = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    sec = sample_stroboscopic(p, PhaseState(0.0, 0.5, 0.0), 16)
    assert len(sec) == 17
    assert np.array_equal(sec.t, np.array([k * p.period for k in range(17)]))


def test_stroboscopic_requires_drive():
    with pytest.raises(ValueError):
        sample_stroboscopic(TrapParams(lam=10.0), PhaseState(0.0, 0.5, 0.0), 10)


def test_section_from_trajectory_matches_direct_sampling():
    p = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    s0 = PhaseState(0.0, 0.5, 0.0)
    traj = integrate_adaptive(p, s0, 40 * p.period, sample_dt=p.period / 8.0)
    sec_a = section_from_trajectory(traj, p.period)
    sec_b = sample_stroboscopic(p, s0, 40)
    assert len(sec_a) == len(sec_b) == 41
    assert isinstance(sec_a, Trajectory) and isinstance(sec_b, Trajectory)
    assert np.array_equal(sec_a.t, traj.t[::8]) and np.array_equal(sec_a.phi, traj.phi[::8])
    assert np.max(np.abs(sec_a.z - sec_b.z)) < 1e-8
    assert np.max(np.abs(sec_a.phi - sec_b.phi)) < 1e-7
    assert np.max(np.abs(sec_a.dz_dt - sec_b.dz_dt)) < 1e-7


def test_section_from_trajectory_rejects_incommensurate_grid():
    p = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    traj = integrate_adaptive(p, PhaseState(0.0, 0.5, 0.0), 5.0, sample_dt=0.3)
    with pytest.raises(ValueError):
        section_from_trajectory(traj, p.period)
    # a repeated or NaN first time gives no sample step, refused before the
    # division by it
    for t1 in (0.0, math.nan):
        t = traj.t.copy()
        t[1] = t1
        with pytest.raises(ValueError, match=r"^sample step \S+ does not divide the period "):
            section_from_trajectory(dataclasses.replace(traj, t=t), p.period)
    # nor does a subnormal first step, whose period/dt overflows, or a NaN
    # period
    t = traj.t.copy()
    t[1] = 5e-324
    for run, period in [(dataclasses.replace(traj, t=t), p.period), (traj, math.nan)]:
        with pytest.raises(ValueError, match=r"^sample step \S+ does not divide the period "):
            section_from_trajectory(run, period)


def test_default_control_caps_step_by_drive_period():
    p = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    assert default_control(p).h_max == pytest.approx(p.period / 50.0)
    assert default_control(TrapParams(lam=10.0)).h_max == 0.05


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        StepControl(h_min=0.1, h_max=0.01)
    with pytest.raises(ValueError, match="'abs_tol'"):
        StepControl(abs_tol=math.nan)


def test_step_underflow_on_non_integrable_kink():
    def f(t, de, y0, y1):
        return (1.0 / math.sqrt(abs(t - 0.5)) if t != 0.5 else 1e300), 0.0

    ctl = StepControl(abs_tol=1e-12, rel_tol=1e-12, h_init=1e-3, h_min=1e-10, h_max=0.05)
    with pytest.raises(StepUnderflowError):
        _drive(f, NO_DRIVE, 0.0, (0.0, 0.0), [1.0], ctl)


@pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)])
def test_non_finite_rates_never_pass_the_error_test(bad):
    # a NaN error estimate in any component rejects the step down to h_min
    with pytest.raises(StepUnderflowError):
        _drive(lambda t, de, y0, y1: bad, NO_DRIVE, 0.0, (0.0, 0.0), [1.0], TIGHT)


def test_overflowing_trial_stage_is_a_rejection():
    # the RK4 weights sum dphi/dt = 1e308 to inf, so every trial step lands
    # on phi = inf, where math.sin raises ValueError
    with pytest.raises(StepUnderflowError):
        _drive(lambda t, de, y0, y1: (math.sin(y1), 1e308), NO_DRIVE, 0.0, (0.0, 0.0), [1.0],
               TIGHT)


def test_drive_phase_past_the_float_range_is_refused_before_any_rate_call():
    # omega*t overflows past t = 1.7976...: every stage tilt beyond fails,
    # so the run could only spend its step budget short of t_end
    p = TrapParams(lam=1.0, de1=1.0, omega=1e308)
    refusal = (r"^omega=1e\+308 times t_end=1\.8 leaves the float range, "
               r"so no step from t={} reaches t_end$")

    def never(*args):
        raise AssertionError("called the rate of a run that cannot finish")

    ctl = StepControl(h_max=0.05)  # default_control's h_max, period/50, is below h_min
    with pytest.raises(ValueError, match=refusal.format(r"1\.797")):
        _drive(never, (0.0, 1.0, 1e308), 1.797, (0.5, 0.0), [1.8], ctl)
    with pytest.raises(ValueError, match=refusal.format(r"1\.797")):
        advance(p, PhaseState(1.797, 0.5, 0.0), 1.8, ctl)
    # on every route, from t = 0 as from anywhere else
    s0 = PhaseState(0.0, 0.5, 0.3)
    tangent = partial(_tangent(make_rate(p), 2), (p.de0, p.de1, p.omega))
    for route in [partial(advance, p, s0, 1.8, ctl),
                  partial(integrate_adaptive, p, s0, 1.8, ctl, sample_dt=0.25),
                  partial(integrate_adaptive, p, s0, 1.8, ctl),
                  partial(integrate_twomode, p, s0, 1.8, ctl),
                  partial(tangent, s0.t, (s0.z, s0.phi, 1.0, 0.0), [1.8], ctl)]:
        with pytest.raises(ValueError, match=refusal.format(r"0\.0")):
            route()
    # undriven, omega enters nothing, and the run ends at t_end
    assert advance(TrapParams(lam=1.0, omega=1e308), PhaseState(1.797, 0.5, 0.0), 1.8).t == 1.8


@given(
    de0=st.floats(-5.0, 5.0),
    de1=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-8.0, 8.0)),
    omega=st.floats(0.1, 40.0),
    t0=st.floats(0.0, 100.0),
    gaps=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4),
    tight=st.booleans(),
)
@example(de0=-0.0, de1=0.0, omega=1.0, t0=0.0, gaps=[0.3], tight=True)
@example(de0=0.0, de1=-0.0, omega=1.0, t0=0.0, gaps=[0.3], tight=False)
# the second landing starts from a t with t + (target - t) != target, so a
# tilt carried across that landing, not recomputed at the target, differs
@example(de0=0.5, de1=1.5, omega=1.0, t0=0.17412782971344687,
         gaps=[0.06665597452689973, 1.6166443828810433, 2.1775996049215016], tight=False)
@settings(max_examples=40)
def test_driver_tilt_matches_trap_asymmetry(de0, de1, omega, t0, gaps, tight):
    # The driver evaluates de(t) itself, once per distinct stage time, and
    # carries it across accepted steps; every rate call must still get
    # exactly trap_asymmetry(p, t), through landings and rejections.  A
    # call makes 1 + 10 x attempted + accepted rate calls: the stage-1 rate
    # at the start and after each accepted step, and ten more per attempt.
    p = TrapParams(lam=1.0, de0=de0, de1=de1, omega=omega)
    calls = []
    accepted = []

    def rate(t, de, y0, y1):
        calls.append((t, de))
        return de, -y1

    # at the tight tolerance the first step, h = min(0.5, gap) on y1' = -y1,
    # is far too long and is rejected; the loose one takes long steps
    tol = 1e-12 if tight else 1.0
    ctl = StepControl(abs_tol=tol, rel_tol=tol, h_init=0.5, h_min=1e-14, h_max=2.0)
    targets = [t0 + gaps[0]]
    for gap in gaps[1:]:
        targets.append(targets[-1] + gap)
    t, _ = _drive(rate, (de0, de1, omega), t0, (0.0, 1.0), targets, ctl,
                  on_target=lambda row: accepted.append(row[0]),
                  on_step=lambda row: accepted.append(row[0]))
    assert t == targets[-1]
    attempted, rest = divmod(len(calls) - 1 - len(accepted), 10)
    assert rest == 0 and attempted >= len(accepted) >= len(targets)
    if tight:
        assert attempted > len(accepted)  # a rejected step
    for t, de in calls:
        assert de.hex() == trap_asymmetry(p, t).hex(), t
    if de1 == 0.0:
        assert {de.hex() for _, de in calls} == {de0.hex()}


def outcome(step, drive, y, targets, ctl):
    """Every on_target and on_step row, then the final (t, y) or the type and
    message of the exception, each as exact text."""
    rows = []
    try:
        end = step(drive, 0.0, y, targets, ctl,
                   on_target=lambda row: rows.append(repr(("target", row))),
                   on_step=lambda row: rows.append(repr(("step", row))))
    except Exception as exc:
        end = (type(exc), str(exc))
    rows.append(repr(end))
    return rows


@given(
    kind=st.sampled_from(DampingKind),
    eta=st.sampled_from([0.0, 0.05, 0.5]),
    de0=st.floats(-2.0, 2.0),
    de1=st.sampled_from([0.0, 2.5, 7.5]),
    z0=st.one_of(st.floats(-0.95, 0.95), st.sampled_from([1.0 - Z_GUARD / 2, 1.0 - 1e-7])),
    phi0=st.one_of(st.floats(-3.0, 3.0), st.just(math.inf)),
    tol=st.sampled_from([1e-13, 1e-10, 1e-6]),
    h_min=st.sampled_from([1e-14, 1e-4]),
    oracle=st.booleans(),
    gaps=st.lists(st.floats(0.05, 0.6), min_size=1, max_size=3),
)
@example(kind=DampingKind.VELOCITY, eta=0.05, de0=0.0, de1=7.5, z0=1.0 - Z_GUARD / 2,
         phi0=0.0, tol=1e-10, h_min=1e-14, oracle=False, gaps=[0.5])
@example(kind=DampingKind.POPULATION, eta=0.0, de0=0.0, de1=2.5, z0=0.5, phi0=math.inf,
         tol=1e-10, h_min=1e-14, oracle=False, gaps=[0.5])
@example(kind=DampingKind.POPULATION, eta=0.0, de0=0.3, de1=7.5, z0=0.5, phi0=0.3,
         tol=1e-13, h_min=1e-14, oracle=True, gaps=[0.3, 0.4])
@settings(max_examples=40)
def test_inlined_driver_matches_called_driver(kind, eta, de0, de1, z0, phi0, tol, h_min,
                                              oracle, gaps):
    # The driver with the rate written into it against the driver calling
    # it (_drive, or _drive widened to the oracle's four float components):
    # the same rows, end state, exception and message, as exact text.  The
    # first step, h_init = 0.2, is far too long at the tight tolerances.
    p = TrapParams(lam=10.0, de0=de0, de1=de1, omega=4.0 * math.pi, eta=eta, damping=kind)
    if oracle:
        f = bjj.twomode._make_rate(p)
        if math.isfinite(phi0):
            a1, a2 = bjj.twomode._amplitudes(z0, phi0)
            y = (a1.real, a1.imag, a2.real, a2.imag)
        else:
            y = (0.0, 1.0, 0.0, phi0)
    else:
        f = make_rate(p)
        y = (z0, phi0)
    ctl = StepControl(abs_tol=tol, rel_tol=tol, h_init=0.2, h_min=h_min, h_max=0.2)
    targets = np.cumsum(gaps).tolist()
    drive = (de0, de1, p.omega)
    assert inlined(f, len(y))
    assert outcome(_stepper(f, len(y)), drive, y, targets, ctl) == outcome(
        partial(_called(len(y)), f), drive, y, targets, ctl
    )


def interval_chain(step, drive, y, targets, ctl):
    """A run restarted from h_init at every target, as lyapunov_estimate
    runs its intervals: each accepted step's t and first two components,
    each end, then the type and message of the exception if one ends it,
    as exact text."""
    rows = []
    t = 0.0
    try:
        for target in targets:
            t, y = step(drive, t, y, [target], ctl,
                        on_step=lambda row: rows.append(repr(row[:3])))
            rows.append(repr(("end", t, y[:2])))
    except Exception as exc:
        rows.append(repr((type(exc), str(exc))))
    return rows


@given(
    kind=st.sampled_from(DampingKind),
    eta=st.sampled_from([0.0, 0.05]),
    de0=st.floats(-2.0, 2.0),
    de1=st.sampled_from([0.0, 2.5, 7.5]),
    z0=st.one_of(st.floats(-0.95, 0.95), st.sampled_from([1.0 - Z_GUARD / 2, 1.0 - 1e-7])),
    phi0=st.floats(-3.0, 3.0),
    tol=st.sampled_from([1e-13, 1e-10, 1e-6]),
    gaps=st.lists(st.floats(0.05, 0.6), min_size=1, max_size=3),
)
@example(kind=DampingKind.POPULATION, eta=0.0, de0=0.0, de1=7.5, z0=1.0 - 1e-7, phi0=0.0,
         tol=1e-10, gaps=[0.5, 0.5])
@example(kind=DampingKind.VELOCITY, eta=0.05, de0=0.0, de1=2.5, z0=1.0 - Z_GUARD / 2,
         phi0=0.0, tol=1e-10, gaps=[0.5])
@settings(max_examples=30)
def test_passengers_keep_the_orbit_bits_and_steps(kind, eta, de0, de1, z0, phi0, tol, gaps):
    # The tangent rides the coarse step unscored: the orbit's accepted
    # steps, ends and exceptions are the plain driver's, inlined and
    # called, and the called drivers make the same rate calls.
    p = TrapParams(lam=10.0, de0=de0, de1=de1, omega=4.0 * math.pi, eta=eta, damping=kind)
    f = make_rate(p)
    ctl = StepControl(abs_tol=tol, rel_tol=tol, h_init=0.2, h_min=1e-14, h_max=0.2)
    targets = np.cumsum(gaps).tolist()
    drive = (de0, de1, p.omega)
    plain = interval_chain(_stepper(f, 2), drive, (z0, phi0), targets, ctl)
    assert interval_chain(_tangent(f, 2), drive, (z0, phi0, 1.0, 0.0), targets, ctl) == plain
    counts = []
    for step, y in [(_stepper, (z0, phi0)), (_tangent, (z0, phi0, 1.0, 0.0))]:
        evals = [0]
        counted = counting(lambda p: f, evals)(p)
        assert interval_chain(step(counted, 2), drive, y, targets, ctl) == plain
        counts.append(evals[0])
    assert counts[0] == counts[1]


@given(
    lam=st.one_of(st.floats(0.5, 20.0), st.floats(-20.0, -0.5)),
    de1=st.floats(0.0, 8.0),
    omega=st.floats(0.5, 8.0 * math.pi),
    eta=st.sampled_from([0.0, 0.01]),
    kind=st.sampled_from(DampingKind),
    z0=st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True),
    phi0=st.floats(-3.0, 3.0),
)
@settings(max_examples=25, deadline=None)
def test_tangent_matches_central_differences(lam, de1, omega, eta, kind, z0, phi0):
    # The tangent over one interval, from each unit vector, against central
    # differences of the plain driver's map over that interval.  Measured
    # here: at most 5e-9 of the largest entry over 60 random draws.
    p = TrapParams(lam=lam, de1=de1, omega=omega, eta=eta, damping=kind)
    ctl = StepControl(abs_tol=1e-13, rel_tol=1e-13, h_init=1e-3, h_min=1e-14, h_max=0.01)
    drive = (p.de0, p.de1, p.omega)
    f = make_rate(p)
    tangent, plain = _tangent(f, 2), _stepper(f, 2)
    eps = 1e-6
    jvp, differences = [], []
    for dz, dphi in [(1.0, 0.0), (0.0, 1.0)]:
        jvp.append(tangent(drive, 0.0, (z0, phi0, dz, dphi), [0.5], ctl)[1][2:])
        ahead = plain(drive, 0.0, (z0 + eps * dz, phi0 + eps * dphi), [0.5], ctl)[1]
        behind = plain(drive, 0.0, (z0 - eps * dz, phi0 - eps * dphi), [0.5], ctl)[1]
        differences.append([(a - b) / (2.0 * eps) for a, b in zip(ahead, behind)])
    jvp, differences = np.array(jvp), np.array(differences)
    assert np.max(np.abs(jvp - differences)) <= 1e-6 * np.max(np.abs(jvp))


def derivative_alone(f, n):
    """The body that _jvp generates from f's, the one a tangent driver
    writes in at its coarse sites, compiled as a function of its own:
    ``(t, de, y0, ..., yn-1, v0, ..., vn-1) -> (f's n values, then J.v)``."""
    entry, values = _bound(f, n)
    funcs = {name: kind for name, value in zip(entry.args, values)
             for fn, kind in _DERIVATIVES if value is fn}
    params, body, returned = _jvp(entry.vetted, funcs)
    (function,) = ast.parse(f"def _({', '.join([*entry.args, *params])}): pass").body
    function.body = body + [ast.Return(returned)]
    return partial(bjj._specialise._compiled(function, "<derivative>"), *values)


def hand_jacobian_terms(p, z, phi):
    """make_rate's Jacobian d(dz/dt, dphi/dt)/d(z, phi), written by hand:
    each entry as the list of its terms."""
    root = math.sqrt(1.0 - z * z)
    s, c = math.sin(phi), math.cos(phi)
    terms = [[[z / root * s], [-root * c]],
             [[p.lam, c / root**3], [-z / root * s]]]
    if p.eta > 0.0 and p.damping is DampingKind.POPULATION:
        terms[0][0].append(-p.eta)
    elif p.eta > 0.0:  # dphi/dt - eta * dz/dt
        terms[1] = [row + [-p.eta * x for x in dz] for row, dz in zip(terms[1], terms[0])]
    return terms


@given(
    lam=st.floats(-20.0, 20.0),
    eta=st.floats(0.0, 1.0),
    kind=st.sampled_from(DampingKind),
    de=st.floats(-10.0, 10.0),
    z=st.floats(-0.99, 0.99),
    phi=st.floats(-10.0, 10.0),
    v=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
@example(lam=10.0, eta=0.0, kind=DampingKind.POPULATION, de=0.5, z=0.5, phi=0.3, v=(1.0, 0.0))
@example(lam=10.0, eta=0.3, kind=DampingKind.POPULATION, de=0.5, z=-0.99, phi=2.0, v=(1.0, 1.0))
@example(lam=-4.0, eta=0.3, kind=DampingKind.VELOCITY, de=0.5, z=0.99, phi=-1.0, v=(1.0, -1.0))
@settings(max_examples=200)
def test_tangent_rate_is_the_hand_written_jacobian(lam, eta, kind, de, z, phi, v):
    # The derivative the tangent form generates from make_rate's body,
    # undamped and under either placement, against the Jacobian written out
    # by hand: equal to a few ulps of the size of J.v's terms (the largest
    # |J.v| entry when nothing cancels).
    p = TrapParams(lam=lam, eta=eta, damping=kind)
    jv = derivative_alone(make_rate(p), 2)(0.0, de, z, phi, *v)[2:]
    terms = hand_jacobian_terms(p, z, phi)
    expected = [sum(sum(entry) * x for entry, x in zip(row, v)) for row in terms]
    scale = max(sum(abs(t) for t in entry) * abs(x) for row in terms for entry, x in zip(row, v))
    for got, want in zip(jv, expected):
        assert abs(got - want) <= 8.0 * math.ulp(scale)


def test_tangent_needs_a_rate_it_can_differentiate():
    # a lambda is not inlined, abs and ** have no derivative rule, and a
    # counting wrapper over any of them is no better; every refusal names
    # the rate
    def with_abs(t, de, x, v):
        return v, -abs(x)

    def with_power(t, de, x, v):
        return v, -x ** 3

    def guarded(t, de, x, v):
        if abs(x) > 1.0:  # only a test: passes through
            raise ValueError(x)
        return v, -x

    lam = lambda t, de, x, v: (v, -x)  # noqa: E731
    for rate, name in [(lam, "<lambda>"), (with_abs, "with_abs"),
                       (with_power, "with_power")]:
        for f in (rate, counting(lambda p: rate, [0])(None)):
            with pytest.raises(TypeError, match=f"{name}' has no tangent form"):
                _tangent(f, 2)
    # an inactive call (the test of a branch) needs no rule
    t, (x, v, dx, dv) = _tangent(guarded, 2)(NO_DRIVE, 0.0, (1.0, 0.0, 1.0, 0.0), [0.1], TIGHT)
    # the oscillator's flow is linear; the tangent follows the coarse steps
    assert (dx, dv) == pytest.approx((x, v), rel=1e-9)


def pendulum_calling(s):
    """x'' = -s(x), s bound in a closure."""

    def pendulum(t, de, x, v):
        return v, -s(x)

    return pendulum


def pendulum_with(s, c):
    """x'' = -s(x) - c(x)/2, s and c bound in a closure."""

    def pendulum(t, de, x, v):
        return v, -s(x) - 0.5 * c(x)

    return pendulum


def test_tangent_of_a_rate_that_loads_sine_alone():
    # sin' is cos and cos' is -sin, and a derivative reads only the rate's
    # own values: a rate that binds one of them alone has no tangent form
    for fn in (math.sin, math.cos):
        with pytest.raises(TypeError, match="pendulum_calling.<locals>.pendulum' has no tangent"):
            _tangent(pendulum_calling(fn), 2)
    # Bound both ways round, one definition gives two tangents (kinds keys
    # the cache): each follows its own linearisation, v'' = -(cos(x) -
    # sin(x)/2) v and v'' = (sin(x) - cos(x)/2) v (central differences of
    # the plain map).
    ctl = StepControl(abs_tol=1e-13, rel_tol=1e-13, h_init=1e-3, h_min=1e-14, h_max=0.01)
    for f in (pendulum_with(math.sin, math.cos), pendulum_with(math.cos, math.sin)):
        _, (x, v, dx, dv) = _tangent(f, 2)(NO_DRIVE, 0.0, (1.0, 0.0, 1.0, 0.0), [2.0], ctl)
        plain = _stepper(f, 2)
        ahead = plain(NO_DRIVE, 0.0, (1.0 + 1e-6, 0.0), [2.0], ctl)[1]
        behind = plain(NO_DRIVE, 0.0, (1.0 - 1e-6, 0.0), [2.0], ctl)[1]
        differences = [(a - b) / 2e-6 for a, b in zip(ahead, behind)]
        assert (dx, dv) == pytest.approx(differences, rel=1e-6)


def test_passenger_widening_rides_the_coarse_step_only():
    # the driver of a wrapped rate with a tangent: _drive widened to four
    # components, two scored, that calls f and writes in the derivative
    entry, _ = _bound(oscillator, 2)
    jvp = _jvp(entry.vetted, {})
    text = ast.unparse(ast.fix_missing_locations(_specialised(4, scored=2, coarse=jvp)))
    # every site calls f over the scored two, and the coarse ones (stage 1
    # at the start and after each accepted step) write in the derivative
    # after it; the callbacks get all four and their rates
    assert len(re.findall(r"\b\w0, \w1 = f\(", text)) == text.count(" = f(") == 12
    assert [text.count(f"{x}3 = -") for x in "kacd"] == [2, 1, 1, 1]
    assert text.index("k0, k1 = f(t, de, y0, y1)") < text.index("k3 = -y2")
    assert "m2" not in text and "n2" not in text
    assert text.count("((t, y0, y1, y2, y3) + (k0, k1, k2, k3))") == 2
    assert "b3 = y3 + sixth * (k3 + 2.0 * (a3 + c3) + d3)" in text
    assert "y2 = b2" in text and "y3 = b3" in text
    # only the orbit is scored, and only it is named by an error
    assert [text.count(f"diff = abs(e{i})") for i in range(3)] == [1, 1, 0]
    assert "StepUnderflowError(t, (y0, y1), h_try, h_min)" in text
    assert "return (t, (y0, y1, y2, y3))" in text


def test_inliner_declines_wrappers_lambdas_defaults_and_early_returns():
    rate = make_rate(TrapParams(lam=10.0))

    def with_default(t, de, z, phi=0.0):
        return rate(t, de, z, phi)

    def early_return(t, de, z, phi):
        if z > 0.0:
            return 0.0, 0.0
        return z, phi

    calls = types.SimpleNamespace(n=0)

    def attribute_update(t, de, z, phi):
        calls.n += 1  # declined, as every x op= v is
        return rate(t, de, z, phi)

    for f in (counting(lambda p: rate, [0])(None), lambda t, de, z, phi: (z, phi),
              with_default, early_return, attribute_update):
        step = _stepper(f, 2)
        assert isinstance(step, partial) and step.func is _drive and step.args == (f,)
    assert inlined(rate) and inlined(oscillator)
    # a declined rate of four components runs _drive widened to four
    oracle = bjj.twomode._make_rate(TrapParams(lam=10.0))
    wrapped = counting(lambda p: oracle, [0])(None)
    step = _stepper(wrapped, 4)
    assert step.func is _called(4) is not _drive and step.args == (wrapped,)
    assert inlined(oracle, 4)


def test_driver_cache_is_keyed_by_rate_and_width(monkeypatch, fresh_builders):
    compiled = []
    compile_ = bjj._specialise._compiled

    def spy(function, filename):
        compiled.append(filename)
        return compile_(function, filename)

    monkeypatch.setattr(bjj._specialise, "_compiled", spy)
    monkeypatch.setattr(bjj._jvp, "_compiled", spy)
    # a request at the wrong n declines the rate at that n only
    def four(t, de, x1, y1, x2, y2):
        return y1, -x1, y2, -x2

    def two(t, de, x, v):
        return v, -x

    assert not inlined(four, 2) and inlined(four, 4)
    assert not inlined(two, 4) and inlined(two, 2)
    # two with a tangent: four components, the first two scored; the
    # wrapper's driver calls it at every site
    _tangent(two, 2)
    _tangent(counting(lambda p: two, [0])(None), 2)
    # one inlined build per rate and width, one called driver per width
    # (_drive itself at 2), and one tangent for two and one for its
    # wrapper; asking again builds nothing
    sizes = [builder.cache_info().currsize for builder in BUILDERS]
    assert sizes == [1, 2, 4, 2]
    assert inlined(four, 4) and inlined(two, 2) and _tangent(two, 2)
    assert [builder.cache_info().currsize for builder in BUILDERS] == sizes
    two = two.__qualname__
    assert compiled == [f"<_drive inlining {four.__qualname__}>",
                        "<_drive widened to 4 components>",
                        f"<_drive inlining {two}>", f"<_drive inlining {two} and its tangent>",
                        f"<_drive calling {two} and its tangent>"]
    # a process running the reduced, tangent and oracle paths compiles one
    # driver for each
    clear_builders()
    compiled.clear()
    p = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    integrate_adaptive(p, S_PIN, 1.0, sample_dt=0.5)
    lyapunov_estimate(p, 0.5, 0.0, horizon=1.0)
    integrate_twomode(p, S_PIN, 1.0, sample_dt=0.5)
    assert compiled == ["<_drive inlining make_rate.<locals>.rate>",
                        "<_drive inlining make_rate.<locals>.rate and its tangent>",
                        "<_drive inlining _make_rate.<locals>.rate>"]


def test_widening_to_two_components_is_the_identity():
    source = textwrap.dedent(inspect.getsource(_drive))
    assert ast.dump(_specialised(2)) == ast.dump(ast.parse(source).body[0])


def test_widening_to_four_components_widens_every_rate_site():
    drive = _specialised(4)
    calls = [node for node in ast.walk(drive) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "f"]
    assert len(calls) == 12 and {len(call.args) for call in calls} == {6}
    text = ast.unparse(drive)
    assert "y0, y1, y2, y3 = y" in text and "return (t, (y0, y1, y2, y3))" in text
    # the error score runs over all four components, each once
    assert [text.count(f"diff = abs(e{i})") for i in range(5)] == [1, 1, 1, 1, 0]


SITE = "j0, j1 = f(t_half, de_half, m0, m1)"


def rates_with_broken_sites(monkeypatch, replacement):
    """The reduced rate and the oracle's, each bare and wrapped, with SITE
    in the source that the reader gives for _drive replaced and every
    compiled driver dropped."""
    source = inspect.getsource(_drive)
    assert source.count(SITE) == 1
    broken, read = source.replace(SITE, replacement), bjj._specialise._source
    monkeypatch.setattr(bjj._specialise, "_source",
                        lambda code: broken if code is _drive.__code__ else read(code))
    clear_builders()
    p = TrapParams(lam=10.0)
    reduced, oracle = make_rate(p), bjj.twomode._make_rate(p)
    wrap = counting(lambda rate: rate, [0])
    return (reduced, wrap(reduced)), (oracle, wrap(oracle))


@pytest.mark.parametrize(
    "replacement",
    [SITE + "; " + SITE, "j0, j1 = k0, k1", SITE + "; g = f", "j0, j1 = f(t_half, de_half, *y)"],
    # a site doubled, a site removed, f loaded elsewhere, and a call that
    # is no site
    ids=["one_site_more", "one_site_fewer", "f_loaded", "call_not_a_site"],
)
def test_inliner_insists_on_every_rate_call(monkeypatch, fresh_builders, replacement):
    (reduced, called_reduced), oracles = rates_with_broken_sites(monkeypatch, replacement)
    # with two components a declined rate runs _drive as written, unparsed
    assert _stepper(called_reduced, 2).func is _drive
    for f, n in [(reduced, 2)] + [(f, 4) for f in oracles]:
        with pytest.raises(RuntimeError, match="expected 12"):
            _stepper(f, n)


def test_copy_free_write_in_keeps_sites_whose_targets_are_arguments(monkeypatch,
                                                                    fresh_builders):
    # The j site rewritten so that its targets are also its bare-name
    # arguments, with the same operations: the driver with the rate
    # written in must keep the called driver's bits.  There a parameter is
    # assigned its argument and a returned name assigned to its target;
    # renaming either (for the oscillator, both) would read a target the
    # site has already overwritten.
    p = TrapParams(lam=10.0, de1=2.0, omega=4.0 * math.pi, eta=0.05)
    p3 = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    a1, a2 = bjj.twomode._amplitudes(S_PIN.z, S_PIN.phi)
    cases = [(make_rate(p), (p.de0, p.de1, p.omega), (S_PIN.z, S_PIN.phi)),
             (oscillator, NO_DRIVE, (1.0, 0.0)),
             (bjj.twomode._make_rate(p3), (0.0, 3.0, p3.omega),
              (a1.real, a1.imag, a2.real, a2.imag))]
    # h_min bounds the steps even of a driver the rewrite broke
    ctl = StepControl(abs_tol=1e-10, rel_tol=1e-10, h_init=0.2, h_min=1e-4, h_max=0.2)
    targets = [0.5, 1.0, 2.5]
    called = [outcome(partial(_called(len(y)), f), drive, y, targets, ctl) for f, drive, y in cases]
    compiled = {}
    compile_ = bjj._specialise._compiled

    def spy(function, filename):
        done = compile_(function, filename)
        compiled[filename] = ast.unparse(function)
        return done

    monkeypatch.setattr(bjj._specialise, "_compiled", spy)
    # at the real sites every bare-name parameter and returned local is renamed
    reduced = "<_drive inlining make_rate.<locals>.rate>"
    assert inlined(make_rate(p))
    assert "_rate_t =" not in compiled[reduced] and "_rate_de =" not in compiled[reduced]
    assert "_rate_dz" not in compiled[reduced] and "_rate_dphi" not in compiled[reduced]
    rates_with_broken_sites(monkeypatch, "j0, j1 = m0, m1; j0, j1 = f(t_half, de_half, j0, j1)")
    for (f, drive, y), expected in zip(cases, called):
        assert inlined(f, len(y))
        assert outcome(_stepper(f, len(y)), drive, y, targets, ctl) == expected
    assert "_rate_z = j0" in compiled[reduced] and "j0 = _rate_dz" in compiled[reduced]


def test_widening_insists_on_index_pairs(monkeypatch, fresh_builders):
    # (m0, m0) is a site of two components, but not an index pair to widen
    reduced, oracles = rates_with_broken_sites(
        monkeypatch, "j0, j1 = f(t_half, de_half, m0, m0)")
    assert inlined(reduced[0])
    for f in oracles:
        with pytest.raises(RuntimeError, match="4 components has 11 inlinable rate calls"):
            _stepper(f, 4)


def test_pure_relative_tolerance_on_a_zero_state():
    # with abs_tol=0 an unchanging zero component scores 0 instead of
    # dividing 0 by a zero tolerance
    ctl = StepControl(abs_tol=0.0, rel_tol=1e-10)
    end = advance(TrapParams(lam=10.0), PhaseState(0.0, 0.0, 0.0), 1.0, ctl)
    assert (end.t, end.z, end.phi) == (1.0, 0.0, 0.0)


def test_sample_targets_need_a_finite_count():
    assert _sample_targets(1.0, 0.5) == [0.5, 1.0]
    with pytest.raises(ValueError, match="finite sample count"):
        _sample_targets(1e300, 1e-300)
    with pytest.raises(ValueError, match="'sample_dt'"):
        _sample_targets(1.0, math.nan)


def test_target_count_is_capped():
    # checked before the target list is built, so nothing large is allocated
    with pytest.raises(ValueError, match="'sample_dt'"):
        _sample_targets(MAX_TARGETS + 1.0, 1.0)
    p = TrapParams(lam=10.0, de1=1.0)
    with pytest.raises(ValueError, match="'n_periods'"):
        sample_stroboscopic(p, PhaseState(0.0, 0.5, 0.0), MAX_TARGETS + 1)


def test_every_step_recording_is_capped(monkeypatch):
    # the cap shrunk to one short run's row count; the real one is never run
    p = TrapParams(lam=2.0)
    s0 = PhaseState(0.0, 0.5, 0.0)
    rows = len(integrate_adaptive(p, s0, 1.0))
    monkeypatch.setattr(bjj.integrate, "MAX_TARGETS", rows)
    assert len(integrate_adaptive(p, s0, 1.0)) == rows
    monkeypatch.setattr(bjj.integrate, "MAX_TARGETS", rows - 1)
    with pytest.raises(BjjError, match=rf"t=.* after {rows - 1} rows"):
        integrate_adaptive(p, s0, 1.0)
    # a sample grid records its targets, not every step
    assert len(integrate_adaptive(p, s0, 1.0, sample_dt=0.5)) == 3


def test_singularity_propagates_from_interior():
    # an orbit started beyond the guard fails immediately
    p = TrapParams(lam=10.0)
    with pytest.raises(SingularityError):
        advance(p, PhaseState(0.0, 1.0 - 1e-13, 0.0), 1.0)
    # a Rabi orbit to z = -1 whose steps may not shrink below 1e-4: the
    # singular trial state at h_min leaves the run naming that step size
    ctl = StepControl(h_init=1e-4, h_min=1e-4)
    with pytest.raises(SingularityError, match=r"at t=\S+ \(z=-1\.0\S*, h=0\.0001\); "):
        advance(TrapParams(lam=0.0), PhaseState(0.0, 0.5, 0.5 * math.pi), 5.0, ctl)


def test_non_finite_current_state_names_t_state_and_h():
    # an infinite phase, which no step size can cure, refused before the
    # step budget: a span of inf h_max-steps leaves the run without one.
    for t_end, ctl in [(1.0, None), (1e308, StepControl(h_max=1e-3))]:
        with pytest.raises(BjjError, match=r"t=0\.0, state=\(0\.5, inf\), h=0\.001") as info:
            advance(TrapParams(lam=10.0), PhaseState(0.0, 0.5, math.inf), t_end, ctl)
        assert type(info.value) is BjjError


def bad_start_routes(p, s0, t_end):
    """advance, a sampled and an every-step trajectory, the oracle and one
    Lyapunov interval from s0 to t_end.  A grid from a start time other
    than 0 to another time is left out: sample grids are anchored at t=0,
    so it is refused before the driver."""
    tangent = partial(_tangent(make_rate(p), 2), (p.de0, p.de1, p.omega))
    routes = [partial(advance, p, s0, t_end),
              partial(integrate_adaptive, p, s0, t_end, sample_dt=0.25),
              partial(integrate_adaptive, p, s0, t_end),
              partial(integrate_twomode, p, s0, t_end),
              partial(tangent, s0.t, (s0.z, s0.phi, 1.0, 0.0), [t_end], default_control(p))]
    return routes if t_end == s0.t or s0.t == 0.0 else routes[:1] + routes[2:]


def test_every_route_ends_the_same_way_for_a_bad_start():
    # The driver alone judges a run's start, before the tilt, the step
    # budget and the stage-1 rate, whether or not the run takes a step:
    # every route ends in one BjjError naming t, the state and h.  The
    # oracle names its four floats, NaN where the start has no amplitudes.
    inf, nan = math.inf, math.nan
    driven = TrapParams(lam=10.0, de1=2.0, omega=4.0 * math.pi)
    undriven = TrapParams(lam=10.0)
    runs = [(p, PhaseState(t, 0.5, 0.3), t) for p in (driven, undriven) for t in (inf, -inf)]
    runs += [(driven, PhaseState(0.0, z, phi), t_end)
             for z, phi in [(inf, 0.3), (-inf, 0.3), (nan, 0.3), (0.5, inf), (0.5, nan)]
             for t_end in (0.0, 1.0)]
    # undriven, this start once stepped forever: t + h stays -inf
    runs.append((undriven, PhaseState(-inf, 0.5, 0.3), 1.0))
    for p, s0, t_end in runs:
        for route in bad_start_routes(p, s0, t_end):
            state = (r"\((\S+, ){3}\S+\)" if route.func is integrate_twomode
                     else re.escape(repr((s0.z, s0.phi))))
            with pytest.raises(BjjError, match=rf"^start is not finite at t={s0.t!r}, "
                                               rf"state={state}, h=0\.001$") as info:
                route()
            assert type(info.value) is BjjError, (s0, t_end, route)
    # a driven start whose omega*t overflows fails in its tilt, which the
    # stage-1 rate's handler names as it names the rate's own ValueError
    s0 = PhaseState(1e308, 0.5, 0.3)
    for route in bad_start_routes(driven, s0, s0.t):
        state = (r"\((\S+, ){3}\S+\)" if route.func is integrate_twomode
                 else re.escape(repr((s0.z, s0.phi))))
        with pytest.raises(BjjError, match=rf"^rate failed at t=1e\+308, state={state}, "
                                           r"h=0\.001: math domain error$"):
            route()
    # a NaN start time fails the targets' check, which comes first
    for t_end in (nan, 1.0):
        for route in bad_start_routes(driven, PhaseState(nan, 0.5, 0.3), t_end):
            with pytest.raises(ValueError, match=r"precedes initial time nan"):
                route()
    # A start in the guard band raises the rate's SingularityError, its
    # prefix naming t and z, then h; the oracle has no guard band.
    z = 1.0 - 1e-13
    prefix = f"population imbalance reached the |z|=1 singularity at t=0.0 (z={z!r}, h=0.001); "
    for t_end in (0.0, 1.0):
        for route in bad_start_routes(driven, PhaseState(0.0, z, 0.3), t_end):
            if route.func is not integrate_twomode:
                with pytest.raises(SingularityError) as info:
                    route()
                assert str(info.value).startswith(prefix) and info.value.h == 0.001


def test_step_budget_names_t_the_state_h_and_the_count():
    # phi near the float range: the relative tolerance on phi admits every
    # step that z's error allows, about 1e-8 long, so the run would take
    # some 10^7 steps for 0.1 time units.  The plain, inlined and tangent
    # drivers spend the same budget and name the same orbit state.
    p = TrapParams(lam=10.0, de1=1e308, omega=4.0 * math.pi)
    ctl = default_control(p)
    f = make_rate(p)
    drive = (p.de0, p.de1, p.omega)
    budget = 1000 * (1 + math.ceil(0.1 / ctl.h_max)) + 100000
    with pytest.raises(BjjError, match=rf"^{budget} accepted and rejected steps") as info:
        _drive(f, drive, 0.0, (0.5, 0.0), [0.1], ctl)
    named = re.fullmatch(r".*, the run's budget, spent at t=(\S+), state=\((\S+), (\S+)\), "
                         r"h=(\S+); a smaller h_max allows more steps", str(info.value))
    t, z, phi, h = map(float, named.groups())
    assert 0.0 < t < 1e-3 and abs(z - 0.5) < 1e-3 and phi > 1e290 and 0.0 < h < 1e-7
    end = (BjjError, str(info.value))
    # a target at the start needs no step, so a recorded run, whose first
    # target is its start, spends the budget of advance's run
    assert outcome(partial(_drive, f), drive, (0.5, 0.0), [0.0, 0.1], ctl)[-1] == repr(end)
    assert outcome(_stepper(f, 2), drive, (0.5, 0.0), [0.1], ctl)[-1] == repr(end)
    assert outcome(_tangent(f, 2), drive, (0.5, 0.0, 1.0, 0.0), [0.1], ctl)[-1] == repr(end)
    # A Rabi orbit reaches z = -(1 - Z_GUARD) at t = 2.094 and stays there
    # on steps of about 5e-11, most of them rejected for a trial state in
    # the guard band: no h_max helps, and the message says so.
    spent = r"^201000 accepted and rejected steps, .* at t=2\.094\d*, state=\(-0\.999999999999, "
    with pytest.raises(BjjError, match=spent) as info:
        advance(TrapParams(lam=0.0), PhaseState(0.0, 0.5, math.pi / 2.0), 5.0)
    named = re.search(r"; (\d+) of them were rejected for a trial state in the guard band "
                      r"around \|z\| = 1, which no h_max avoids$", str(info.value))
    assert 100500 < int(named.group(1)) <= 201000


def test_stroboscopic_grid_starts_at_zero():
    p = TrapParams(lam=10.0, de1=1.0)
    with pytest.raises(ValueError, match="anchored at t=0"):
        sample_stroboscopic(p, PhaseState(0.5, 0.5, 0.0), 3)


@given(
    z0=st.floats(-0.8, 0.8),
    phi0=st.floats(-3.0, 3.0),
    lam=st.floats(0.5, 12.0),
)
@example(z0=0.5, phi0=2.0, lam=7.0)  # drifts 9.4e-9 at the default control
@settings(max_examples=15)
def test_energy_conserved_undriven(z0, phi0, lam):
    p = TrapParams(lam=lam)
    traj = integrate_adaptive(p, PhaseState(0.0, z0, phi0), 10.0, TIGHT, sample_dt=0.5)
    h = np.array([hamiltonian(p, z, f) for z, f in zip(traj.z, traj.phi)])
    assert np.max(np.abs(h - h[0])) < 5e-9


@given(
    z0=st.floats(-0.7, 0.7),
    phi0=st.floats(-2.0, 2.0),
    de0=st.floats(-1.0, 1.0),
)
@settings(max_examples=10)
def test_time_reversal_with_static_tilt(z0, phi0, de0):
    """The conservative flow is reversible through (z, phi) -> (z, -phi)."""
    p = TrapParams(lam=8.0, de0=de0)
    fwd = advance(p, PhaseState(0.0, z0, phi0), 10.0, TIGHT)
    back = advance(p, PhaseState(0.0, fwd.z, -fwd.phi), 10.0, TIGHT)
    assert back.z == pytest.approx(z0, abs=1e-6)
    assert back.phi == pytest.approx(-phi0, abs=1e-6)
