import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from bjj.errors import BjjError, QuadratureError
from bjj.model import DampingKind, TrapParams, hamiltonian, make_rate, trap_asymmetry
from bjj.separatrix import (
    ASYMPTOTE_OMEGA,
    SeparatrixFrame,
    _integrand,
    drive_coefficient,
    duffing_residual,
    epsilon1,
    frame_from_initial,
    melnikov_closed,
    melnikov_numeric,
    running_stability_integral,
    separatrix_accel,
    separatrix_orbit,
    separatrix_velocity,
    stability_curve,
)

UNIT = SeparatrixFrame(lam=2.0, h=1.0)  # kappa = 1, amplitude = 1
QUIET = TrapParams(lam=2.0)


def frames(draw_c0=True):
    """Strategy for valid frames with lam*h in (1.1, 4]."""
    lam = st.floats(0.8, 8.0)
    prod = st.floats(1.1, 4.0)
    c0 = st.floats(-2.0, 2.0) if draw_c0 else st.just(0.0)
    return st.builds(lambda l, p, c: SeparatrixFrame(lam=l, h=p / l, c0=c), lam, prod, c0)


def test_frame_constants():
    assert UNIT.kappa == pytest.approx(1.0, abs=1e-15)
    assert UNIT.amplitude == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        SeparatrixFrame(lam=2.0, h=0.5)
    with pytest.raises(ValueError, match="'h'"):
        SeparatrixFrame(lam=10.0, h=math.nan)


def test_orbit_peak_and_decay():
    assert separatrix_orbit(UNIT, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert separatrix_velocity(UNIT, 0.0) == 0.0
    assert separatrix_orbit(UNIT, 40.0) < 1e-15
    # velocity is negative on the descending branch
    assert separatrix_velocity(UNIT, 1.0) < 0.0


def test_basis_z11_frozen_value():
    # analytic value of z11 = dz_s/dt, the first basis solution, at t=1 on
    # the unit frame
    assert separatrix_velocity(UNIT, 1.0) == pytest.approx(-0.4935543475645731, abs=1e-15)


@given(frames(), st.floats(-6.0, 6.0))
@settings(max_examples=30)
def test_separatrix_solves_unperturbed_duffing(f, t):
    p = TrapParams(lam=f.lam)
    r = duffing_residual(
        p,
        f.h,
        separatrix_orbit(f, t),
        separatrix_velocity(f, t),
        separatrix_accel(f, t),
        t,
    )
    assert abs(r) < 1e-8


def test_duffing_residual_trivial_cases():
    # z == 0 with a static tilt leaves only the constant forcing term
    p = TrapParams(lam=2.0, de0=0.7)
    assert duffing_residual(p, 1.5, 0.0, 0.0, 0.0) == pytest.approx(-0.7 * 1.5)
    # with every parameter zero the linear restoring term remains
    p0 = TrapParams(lam=0.0)
    assert duffing_residual(p0, 0.0, 0.3, 0.1, 2.0) == pytest.approx(2.0 + 0.3)


@pytest.mark.parametrize("kind", [DampingKind.POPULATION, DampingKind.VELOCITY])
def test_damping_placement_enters_the_duffing_form(kind):
    # Differentiating the reduced equations once gives their second-order
    # form: duffing_residual's left side at the instantaneous energy H, with
    # a damping term set by the placement.  Neither placement gives the
    # plain -eta*dz that duffing_residual (and the Melnikov integral)
    # assumes, so its residual is the difference:
    #   population: eta*z^2*(dz + eta*z)/(1 - z^2)
    #   velocity:   eta*dz*(1 - w),  w = H - lam*z^2/2 - de*z = -sqrt(1-z^2) cos(phi)
    # d2z comes from the rate's chain rule, so no step size enters.
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20000):
        lam, de0, de1, omega, eta, z, phi, t = rng.uniform(
            [-12.0, -3.0, -3.0, 0.1, 0.0, -0.99, -math.pi, 0.0],
            [12.0, 3.0, 3.0, 20.0, 0.5, 0.99, math.pi, 10.0]).tolist()
        p = TrapParams(lam=lam, de0=de0, de1=de1, omega=omega, eta=eta, damping=kind)
        de = trap_asymmetry(p, t)
        dz, dphi = make_rate(p)(t, de, z, phi)
        root = math.sqrt(1.0 - z * z)
        ddz_dz = z / root * math.sin(phi) - (eta if kind is DampingKind.POPULATION else 0.0)
        d2z = ddz_dz * dz - root * math.cos(phi) * dphi
        h = float(hamiltonian(p, z, phi, t))
        if kind is DampingKind.POPULATION:
            term = eta * z * z * (dz + eta * z) / (1.0 - z * z)
        else:
            term = eta * dz * (1.0 - (h - 0.5 * lam * z * z - de * z))
        parts = (d2z, (lam * h - 1.0) * z, 0.5 * lam * lam * z**3, 1.5 * de * lam * z * z,
                 de * de * z, de * h, eta * dz, term)
        error = abs(duffing_residual(p, h, z, dz, d2z, t) - term)
        worst = max(worst, error / max(abs(x) for x in parts))
    assert worst < 1e-14  # a few ulps of the largest term of the sum


def test_epsilon1_cases():
    assert epsilon1(UNIT, QUIET, 1.3) == 0.0
    p = TrapParams(lam=2.0, de0=0.6)
    z0 = separatrix_orbit(UNIT, 0.7)
    want = 0.6 * (UNIT.h - 1.5 * 2.0 * z0**2) - 0.0
    assert epsilon1(UNIT, p, 0.7) == pytest.approx(want, rel=1e-12)
    # at the orbit peak the damping term vanishes with the velocity
    p = TrapParams(lam=2.0, de0=0.6, eta=0.9)
    assert epsilon1(UNIT, p, 0.0) == pytest.approx(
        0.6 * (UNIT.h - 1.5 * 2.0 * UNIT.amplitude**2)
    )


def test_melnikov_numeric_trivial_and_damping_only():
    value, err = melnikov_numeric(UNIT, QUIET)
    assert value == 0.0 and err >= 0.0
    # static tilt alone integrates to zero by parity
    value, _ = melnikov_numeric(UNIT, TrapParams(lam=2.0, de0=1.3))
    assert abs(value) < 1e-12
    # damping alone has the closed-form value -8 eta kappa^3 / (3 lam^2)
    p = TrapParams(lam=2.0, eta=0.4)
    value, _ = melnikov_numeric(UNIT, p)
    assert value == pytest.approx(-8.0 * 0.4 / (3.0 * 4.0), rel=1e-10)


PIN_FRAMES = [
    SeparatrixFrame(lam=4.0, h=0.5),
    SeparatrixFrame(lam=10.0, h=0.2, c0=0.7),
    SeparatrixFrame(lam=-3.0, h=-1.0, c0=-1.3),
]
PIN_PARAMS = [
    TrapParams(lam=4.0, de1=0.3, omega=2.5, eta=0.1),
    TrapParams(lam=10.0, de0=0.2, de1=7.5, omega=4.0 * math.pi, eta=0.01),
    TrapParams(lam=-3.0, de1=1.2, omega=0.8, eta=0.5),
]


@pytest.mark.parametrize(
    "f, p, want, quadpack",
    zip(PIN_FRAMES, PIN_PARAMS, [
        (0.044240927323488104, 1.6057697525075268e-13),
        (-0.00027068892494474985, 8.106155629340393e-13),
        (-0.29315406346675654, 9.63278598861242e-14),
    ], [
        (0.04424092732348809, 1.6060594115186724e-13),
        (-0.0002706889249447857, 8.105173793971964e-13),
        (-0.2931540634667563, 9.652843151385355e-14),
    ]),
    ids=["fig3", "fig5_offset", "negative_lam"],
)
def test_melnikov_numeric_keeps_pinned_bits(f, p, want, quadpack):
    # want: the numpy Gauss-Kronrod quadrature's (value, abserr); quadpack:
    # what scipy.integrate.quad returned for the same window before it
    value, abserr = melnikov_numeric(f, p)
    assert (value, abserr) == want
    assert abs(value - quadpack[0]) <= 1e-14


@given(
    frames(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0),
    st.floats(-1.5, 1.5),
    st.floats(0.2, 8.0 * math.pi),
)
@settings(max_examples=40)
def test_melnikov_numeric_matches_quadpack(f, eta, de1, de0, omega):
    # QUADPACK on the same integrand, called a float at a time, with the
    # same window and tolerances
    p = TrapParams(lam=f.lam, de0=de0, de1=de1, omega=omega, eta=eta)
    t_lo, t_hi = (-40.0 - f.c0) / f.kappa, (40.0 - f.c0) / f.kappa
    reference, _ = quad(_integrand(f, p), t_lo, t_hi, epsabs=1e-12, epsrel=1e-11, limit=20000)
    assert abs(melnikov_numeric(f, p)[0] - reference) <= 1e-10


@pytest.mark.parametrize("xi_max", [1e6, 1e308])
def test_wide_windows_keep_the_orbit_peak(xi_max):
    # the window is cut at |xi| = 745, where the integrand has underflowed
    # to 0, and split at the peak; explicit bounds are cut the same way
    f = SeparatrixFrame(lam=4.0, h=0.9, c0=0.3)
    p = TrapParams(lam=4.0, de1=0.4, omega=2.0, eta=0.1)
    value, abserr = melnikov_numeric(f, p, xi_max=xi_max)
    assert value == pytest.approx(melnikov_closed(f, p), abs=1e-9)
    assert running_stability_integral(f, p, -math.inf, math.inf) == (value, abserr)


def test_quadrature_failure_raises_naming_the_window():
    # a drive too fast for 20000 pieces to resolve on a wide orbit
    f = SeparatrixFrame(lam=1.0, h=1.1)  # kappa = 0.316
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match=r"over \[-126\.49\d*, 126\.49\d*\] did not converge"):
        melnikov_numeric(f, TrapParams(lam=1.0, de1=1.0, omega=3000.0, eta=0.1))
    assert time.perf_counter() - start < 10.0
    # finite parameters whose tilt overflows to inf
    with pytest.raises(QuadratureError, match=r"not finite on \[-40\.0, 40\.0\]"):
        melnikov_numeric(UNIT, TrapParams(lam=2.0, de0=1e308, de1=1e308, omega=1.0))
    with pytest.raises(ValueError, match="'t_hi' must be >= t_lo"):
        running_stability_integral(UNIT, QUIET, 0.0, math.nan)


@pytest.mark.parametrize("f", PIN_FRAMES)
@pytest.mark.parametrize("p", [TrapParams(lam=1.0, eta=0.3), *PIN_PARAMS[1:]])
def test_integrand_is_basis_times_perturbation(f, p):
    # the quadrature evaluates the integrand on arrays of t; each element
    # has the bits of z11 * eps1 at that t as a float
    t = (np.linspace(-40.0, 40.0, 4001) - f.c0) / f.kappa
    expected = np.array([separatrix_velocity(f, x) * epsilon1(f, p, x) for x in t.tolist()])
    assert _integrand(f, p)(t).tobytes() == expected.tobytes()


def test_undriven_integrand_ignores_omega():
    # without drive the tilt is de0 at every t, however large omega * t is
    f = SeparatrixFrame(lam=4.0, h=0.9)
    slow, fast = (TrapParams(lam=4.0, de0=0.3, omega=w, eta=0.1) for w in (2.0, 1e308))
    assert melnikov_numeric(f, fast) == melnikov_numeric(f, slow)


def test_melnikov_closed_trivial_zeros():
    assert melnikov_closed(UNIT, QUIET) == 0.0
    # cosine factor vanishes when omega c0 / kappa = pi / 2
    f = SeparatrixFrame(lam=2.0, h=1.0, c0=math.pi / 4)
    p = TrapParams(lam=2.0, de1=1.7, omega=2.0)
    assert melnikov_closed(f, p) == pytest.approx(0.0, abs=1e-15)


@given(
    frames(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0),
    st.floats(-1.5, 1.5),
    st.floats(0.2, 8.0 * math.pi),
)
@settings(max_examples=40)
def test_melnikov_closed_matches_quadrature(f, eta, de1, de0, omega):
    p = TrapParams(lam=f.lam, de0=de0, de1=de1, omega=omega, eta=eta)
    numeric, _ = melnikov_numeric(f, p)
    closed = melnikov_closed(f, p)
    assert abs(closed - numeric) <= 1e-6 * max(1.0, abs(numeric))


def test_melnikov_ignores_static_tilt():
    f = SeparatrixFrame(lam=3.0, h=0.8, c0=0.4)
    base = TrapParams(lam=3.0, de1=0.9, omega=2.5, eta=0.3)
    v0, _ = melnikov_numeric(f, base)
    c0 = melnikov_closed(f, base)
    for de0 in (-2.0, 0.7, 5.0):
        p = TrapParams(lam=3.0, de0=de0, de1=0.9, omega=2.5, eta=0.3)
        v, _ = melnikov_numeric(f, p)
        assert v == pytest.approx(v0, abs=1e-10)
        assert melnikov_closed(f, p) == pytest.approx(c0, abs=1e-15)


def test_running_integral_converges_to_melnikov():
    f = SeparatrixFrame(lam=2.0, h=1.0, c0=0.3)
    p = TrapParams(lam=2.0, de1=0.8, omega=2.0, eta=0.2)
    full, _ = melnikov_numeric(f, p)
    part, _ = running_stability_integral(f, p, -30.0, 30.0)
    assert part == pytest.approx(full, abs=1e-9)
    sym, _ = running_stability_integral(UNIT, TrapParams(lam=2.0, de0=1.1), -8.0, 8.0)
    assert abs(sym) < 1e-12


def test_drive_coefficient_changes_sign_at_unit_frequency():
    assert ASYMPTOTE_OMEGA == 1.0
    for f in (UNIT, SeparatrixFrame(lam=4.0, h=0.9), SeparatrixFrame(lam=1.5, h=2.0)):
        assert abs(drive_coefficient(f, ASYMPTOTE_OMEGA)) < 1e-14
        assert drive_coefficient(f, 0.9) * drive_coefficient(f, 1.1) < 0.0


@pytest.mark.parametrize("lam, h, c0", [(4.0, 0.9, 0.0), (4.0, 0.9, 0.3), (-4.0, -0.9, 0.3),
                                         (-7.0, -1.1, 1.1)])
def test_drive_coefficient_past_the_overflow_is_a_signed_zero(lam, h, c0):
    # sech(pi*omega/(2*kappa)) has underflowed long before omega**2 overflows
    # (about 1.34e154), and the bracket turns inf from about 4e153 at lam = 4: the
    # coefficient stays the zero it is below that, with the cosine's sign
    # times lam's, where the product used to be NaN or raise OverflowError
    f = SeparatrixFrame(lam=lam, h=h, c0=c0)
    for omega in (1e150, 1e154, 1e200, 1e308):
        g = drive_coefficient(f, omega)
        sign = math.copysign(1.0, math.cos(omega * c0 / f.kappa)) * math.copysign(1.0, lam)
        assert g == 0.0 and math.copysign(1.0, g) == sign, omega


def test_drive_coefficient_overflow_with_live_sech_raises_naming_omega():
    # |lam|**3 overflows while sech(pi*omega/(2*kappa)) is near 1
    with pytest.raises(BjjError, match="omega=6.283185307179586"):
        drive_coefficient(SeparatrixFrame(lam=1e200, h=1.0), 2.0 * math.pi)


def test_drive_coefficient_past_the_cosine_range():
    # omega*c0/kappa overflows where sech has long underflowed: +0.0, the
    # cosine's sign being lost; with sech alive, BjjError naming omega and c0
    g = drive_coefficient(SeparatrixFrame(lam=4.0, h=0.9, c0=10.0), 1e308)
    assert g == 0.0 and math.copysign(1.0, g) == 1.0
    with pytest.raises(BjjError, match=r"omega=2.0, c0=1e\+308"):
        drive_coefficient(SeparatrixFrame(lam=4.0, h=0.9, c0=1e308), 2.0)


def test_damping_term_past_the_power_range():
    f = SeparatrixFrame(lam=4.0, h=0.9)
    damp = -(8.0 * 0.1 * f.kappa**3 / (3.0 * f.lam**2))  # the powers, in range
    assert melnikov_closed(f, TrapParams(lam=4.0, eta=0.1)) == damp
    # lam**2 overflows at lam = 1e200; kappa*(kappa/lam)**2 does not
    big = SeparatrixFrame(lam=1e200, h=1.0)
    assert melnikov_closed(big, TrapParams(lam=1e200, eta=0.1)) == pytest.approx(
        -8.0 * 0.1 * 1e-100 / 3.0, rel=1e-15)
    # a term past the float range, or lam**2 below it, raises naming lam
    tiny = SeparatrixFrame(lam=1e-300, h=1e308)
    for frame, eta in ((SeparatrixFrame(lam=10.0, h=1.0), 1e308), (tiny, 0.1)):
        with pytest.raises(BjjError, match=f"lam={frame.lam!r}"):
            melnikov_closed(frame, TrapParams(lam=frame.lam, eta=eta))
    assert melnikov_closed(tiny, TrapParams(lam=1e-300)) == 0.0  # undamped


def test_quadrature_changes_sign_across_asymptote():
    f = SeparatrixFrame(lam=4.0, h=0.5)
    lo, _ = melnikov_numeric(f, TrapParams(lam=4.0, de1=1.0, omega=0.8))
    hi, _ = melnikov_numeric(f, TrapParams(lam=4.0, de1=1.0, omega=1.2))
    assert lo * hi < 0.0


def test_stability_curve_zero_damping_is_flat_zero():
    curve = stability_curve(SeparatrixFrame(lam=4.0, h=0.5), eta=0.0, n_points=50)
    assert np.all(curve.de1_critical == 0.0)


def test_stability_curve_plugs_back_to_zero():
    f = SeparatrixFrame(lam=4.0, h=0.5)
    curve = stability_curve(f, eta=0.3, omega_min=0.5, omega_max=10.0, n_points=80)
    for w, d in zip(curve.omega, curve.de1_critical):
        p = TrapParams(lam=4.0, de1=float(d), omega=float(w), eta=0.3)
        assert abs(melnikov_closed(f, p)) < 1e-9


def test_stability_curve_scales_linearly_with_damping():
    f = SeparatrixFrame(lam=4.0, h=0.5)
    lo = stability_curve(f, eta=0.1, n_points=60)
    hi = stability_curve(f, eta=0.5, n_points=60)
    assert np.allclose(hi.de1_critical, 5.0 * lo.de1_critical, rtol=1e-12)
    assert np.all(np.abs(hi.de1_critical) > np.abs(lo.de1_critical))


def test_stability_curve_grid_point_on_an_asymptote_is_inf():
    # omega = 1 is on the grid: it gives way to the asymptote; every other
    # point is damp/G, finite
    curve = stability_curve(SeparatrixFrame(lam=4.0, h=0.5), eta=0.3, omega_max=2.0,
                            n_points=7)
    assert curve.omega[2] == 1.0 and curve.asymptotes == (1.0,)
    assert curve.de1_critical[2] == math.inf
    assert np.all(np.isfinite(np.delete(curve.de1_critical, 2)))
    assert curve.branch.tolist() == [0, 0, 0, 1, 1, 1, 1]


def test_stability_curve_past_the_float_range_raises():
    # kappa = 1e-3: sech(pi*omega/(2*kappa)) underflows from omega = 0.5 on
    with pytest.raises(BjjError, match=r"^de1_critical overflows at omega=0\.5 "
                                       r"\(lambda=2\.0, energy=0\.5000005\)$"):
        stability_curve(SeparatrixFrame(lam=2.0, h=0.5000005), eta=0.1, n_points=5)


def test_stability_curve_single_asymptote_without_phase_offset():
    f = SeparatrixFrame(lam=4.0, h=0.5, c0=0.0)
    curve = stability_curve(f, eta=0.3, omega_min=0.5, omega_max=10.0, n_points=60)
    assert curve.asymptotes == (1.0,)
    assert set(np.unique(curve.branch)) == {0, 1}
    assert np.all(np.diff(curve.branch) >= 0)


def test_cosine_zero_asymptotes_listed_in_linear_time_and_capped():
    # undamped, so that no grid point is past the float range
    f = SeparatrixFrame(lam=4.0, h=0.9, c0=0.3)
    start = time.perf_counter()
    wide = stability_curve(f, eta=0.0, omega_max=1e6, n_points=3).asymptotes
    assert time.perf_counter() - start < 5.0
    spacing = math.pi * f.kappa / 0.3
    assert len(wide) == 2 + math.floor(1e6 / spacing - 0.5)  # omega = 1 and k = 0, 1, ...
    assert wide[:2] == (1.0, 0.5 * math.pi * (f.kappa / 0.3))
    assert all(a < b for a, b in zip(wide, wide[1:]))
    # a window far up the axis starts at its own first zero
    lo, hi = 5e5, 5e5 + 200.0
    window = stability_curve(f, eta=0.0, omega_min=lo, omega_max=hi, n_points=3).asymptotes
    assert window == tuple(w for w in wide if lo <= w <= hi) and len(window) == 12
    with pytest.raises(ValueError, match="'omega_max'.*'c0'"):
        stability_curve(f, eta=0.1, omega_max=1e12, n_points=3)


def test_curve_density_grows_with_phase_offset():
    def sign_changes(c0):
        f = SeparatrixFrame(lam=4.0, h=0.5, c0=c0)
        w = np.linspace(0.5, 10.0, 4001)
        vals = np.cos(w * c0 / f.kappa)
        return int(np.sum(np.diff(np.sign(vals)) != 0))

    counts = [sign_changes(c0) for c0 in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    f = SeparatrixFrame(lam=4.0, h=0.5, c0=4.0)
    curve = stability_curve(f, eta=0.3, omega_min=0.5, omega_max=10.0, n_points=60)
    assert len(curve.asymptotes) > 1


def test_frame_from_initial_recovers_state():
    base = SeparatrixFrame(lam=2.0, h=1.0, c0=0.0)
    for t_star in (-1.3, 0.4, 2.0):
        z0 = separatrix_orbit(base, t_star)
        dz0 = separatrix_velocity(base, t_star)
        f = frame_from_initial(2.0, 1.0, z0, dz0)
        assert separatrix_orbit(f, 0.0) == pytest.approx(z0, rel=1e-12)
        assert separatrix_velocity(f, 0.0) == pytest.approx(dz0, rel=1e-9, abs=1e-12)


def test_frame_from_initial_rejects_off_orbit_points():
    with pytest.raises(ValueError):
        frame_from_initial(2.0, 1.0, 1.5, 0.0)  # beyond the peak
    with pytest.raises(ValueError):
        frame_from_initial(2.0, 1.0, 0.5, 0.0)  # below the peak but stationary
    with pytest.raises(ValueError):
        frame_from_initial(2.0, 1.0, -0.2, 0.1)  # wrong sign branch
