import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bjj.integrate
from bjj.errors import BjjError, SingularityError, StepUnderflowError
from bjj.integrate import (
    MAX_TARGETS,
    StepControl,
    _drive,
    _sample_targets,
    advance,
    default_control,
    integrate_adaptive,
    sample_stroboscopic,
    section_from_trajectory,
)
from bjj.model import (
    DampingKind,
    PhaseState,
    TrapParams,
    hamiltonian,
    make_rate,
    trap_asymmetry,
)
from bjj.twomode import (
    TwoModeState,
    amplitudes_from_phase,
    crosscheck_max_dz,
    integrate_twomode,
)

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
    """make, with every call of the rates it builds counted in evals[0]."""

    def make_counted(p):
        rate = make(p)

        def counted(*args):
            evals[0] += 1
            return rate(*args)

        return counted

    return make_counted


def test_stepper_keeps_pinned_orbit_bits(monkeypatch):
    # Values recorded from the tuple-generic stepper that the 2-component
    # kernel replaced: the same floating-point operations in the same order
    # give the same steps, rate evaluations and bits.
    evals = [0]
    monkeypatch.setattr(bjj.integrate, "make_rate", counting(make_rate, evals))
    p = TrapParams(lam=10.0, de1=7.5, omega=4.0 * math.pi)
    s0 = PhaseState(0.0, 0.5, 0.0)
    sec = sample_stroboscopic(p, s0, 40)
    assert evals[0] == 26969  # 41 of them evaluate dz/dt at the section points
    assert sec.z[-1] == 0.020592784343077236
    assert sec.dz_dt[-1] == -0.9935658489367988
    traj = integrate_adaptive(p, s0, 40 * p.period, sample_dt=p.period)
    assert (traj.z[-1], traj.phi[-1]) == (0.020592784343077236, 1.6824196467883532)
    # fig5_de1_3.0 parameters; the two-mode oracle runs on complex (a1, a2)
    p3 = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    assert crosscheck_max_dz(p3, 0.5, 0.0, t_end=10.0).max_abs_dz == 7.731298075699944e-10


S_PIN = PhaseState(0.0, 0.5, 0.3)


@pytest.mark.parametrize(
    "p, sample_dt, evals, rows, z, phi",
    [
        # undriven: every stage gets de0 and no sin is evaluated
        (TrapParams(lam=10.0), 0.5, 13967, 41, -0.22191888138686355, -1.7527239785630258),
        (TrapParams(lam=10.0, de1=2.0, eta=0.05, damping=DampingKind.POPULATION), 0.5,
         14209, 41, -0.12179148388330586, -5.535668405817371),
        (TrapParams(lam=10.0, de1=2.0, eta=0.05, damping=DampingKind.VELOCITY), 0.5,
         13692, 41, 0.5409370209014888, 84.44174223604693),
        # every accepted step recorded
        (TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi), None,
         6157, 514, 0.1279277221190182, -2.3104289405126646),
    ],
    ids=["undriven", "population_damped", "velocity_damped", "every_step"],
)
def test_rate_closures_keep_pinned_orbit_bits(monkeypatch, p, sample_dt, evals, rows, z, phi):
    # Values recorded before the driver was written out stage by stage; the
    # count includes one dz/dt evaluation per recorded row.
    count = [0]
    monkeypatch.setattr(bjj.integrate, "make_rate", counting(make_rate, count))
    t_end = 5.0 if sample_dt is None else 20.0
    traj = integrate_adaptive(p, S_PIN, t_end, sample_dt=sample_dt)
    assert (count[0], len(traj)) == (evals, rows)
    assert (traj.z[-1], traj.phi[-1]) == (z, phi)


def test_twomode_keeps_pinned_amplitude_bits():
    p = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    a1, a2 = amplitudes_from_phase(S_PIN.z, S_PIN.phi)
    traj = integrate_twomode(p, TwoModeState(0.0, a1, a2), 5.0, sample_dt=0.5)
    assert (complex(traj.a1[-1]), complex(traj.a2[-1])) == (
        0.013766190900418373 + 0.7508490880616501j,
        0.47955608560102075 - 0.4539406347224939j,
    )


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


def test_dz_dt_matches_rate_at_samples():
    p = TrapParams(lam=10.0, de1=2.0, omega=2.0 * math.pi, eta=0.01)
    traj = integrate_adaptive(p, PhaseState(0.0, 0.5, 0.0), 3.0, sample_dt=0.25)
    rate = make_rate(p)
    for t, z, phi, dz in zip(traj.t, traj.z, traj.phi, traj.dz_dt):
        assert dz == pytest.approx(rate(t, trap_asymmetry(p, t), z, phi)[0], abs=1e-12)


def test_stroboscopic_lands_exactly_on_periods():
    p = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    sec = sample_stroboscopic(p, PhaseState(0.0, 0.5, 0.0), 16)
    assert len(sec.n) == 17
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
    assert len(sec_a.n) == len(sec_b.n) == 41
    assert np.max(np.abs(sec_a.z - sec_b.z)) < 1e-8
    assert np.max(np.abs(sec_a.dz_dt - sec_b.dz_dt)) < 1e-7


def test_section_from_trajectory_rejects_incommensurate_grid():
    p = TrapParams(lam=10.0, de1=3.0, omega=4.0 * math.pi)
    traj = integrate_adaptive(p, PhaseState(0.0, 0.5, 0.0), 5.0, sample_dt=0.3)
    with pytest.raises(ValueError):
        section_from_trajectory(traj, p.period)


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
    # exactly trap_asymmetry(p, t), through landings and rejections.
    p = TrapParams(lam=1.0, de0=de0, de1=de1, omega=omega)
    calls = []

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
    t, _ = _drive(rate, (de0, de1, omega), t0, (0.0, 1.0), targets, ctl)
    assert t == targets[-1]
    starts = [calls[i][0] for i in range(0, len(calls), 11)]
    assert len(calls) == 11 * len(starts)
    if tight:
        assert any(a == b for a, b in zip(starts, starts[1:]))  # a rejected step
    for t, de in calls:
        assert de.hex() == trap_asymmetry(p, t).hex(), t
    if de1 == 0.0:
        assert {de.hex() for _, de in calls} == {de0.hex()}


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


def test_non_finite_current_state_names_t_state_and_h():
    # math.sin(inf) in the stage-1 rate; no step size can cure it
    with pytest.raises(BjjError, match=r"t=0\.0, state=\(0\.5, inf\), h=0\.001") as info:
        advance(TrapParams(lam=10.0), PhaseState(0.0, 0.5, math.inf), 1.0)
    assert type(info.value) is BjjError


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
