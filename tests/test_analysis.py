import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bjj.analysis import (
    _diameter,
    detect_frequency_locking,
    dominant_bin,
    lyapunov_estimate,
    power_spectrum,
    time_average_z,
)
from bjj.errors import BjjError
from bjj.integrate import Trajectory
from bjj.model import TrapParams


def make_section(z, dz):
    z = np.asarray(z, dtype=float)
    dz = np.asarray(dz, dtype=float)
    period = TrapParams(lam=10.0, de1=1.0, omega=2.0 * math.pi).period
    return Trajectory(t=np.arange(len(z)) * period, z=z, phi=np.zeros_like(z), dz_dt=dz)


# --- spectra ---------------------------------------------------------------


def test_pure_tone_on_bin_dominates():
    n, dt = 1024, 0.01
    t = np.arange(n) * dt
    f0 = 32 / (n * dt)
    x = 0.7 * np.sin(2 * math.pi * f0 * t)
    spec = power_spectrum(t, x, window="rect")
    freq, frac = dominant_bin(spec)
    assert freq == pytest.approx(f0, rel=1e-12)
    assert frac > 0.999
    others = np.delete(spec.power[1:], np.argmax(spec.power[1:]))
    assert spec.power[1:].max() > 1e3 * others.max()


def test_rectangular_window_satisfies_parseval():
    rng = np.random.default_rng(7)
    x = rng.normal(size=2048)
    t = np.arange(2048) * 0.05
    spec = power_spectrum(t, x, window="rect")
    y = x - x.mean()
    assert spec.power.sum() == pytest.approx(np.mean(y**2), rel=1e-10)


def test_constant_series_has_no_power():
    t = np.arange(64) * 0.1
    spec = power_spectrum(t, np.full(64, 3.7), window="rect")
    assert spec.power.sum() < 1e-25


def test_spectrum_validation():
    t = np.arange(32) * 0.1
    with pytest.raises(ValueError):
        power_spectrum(t[:8], np.zeros(8))  # too short
    with pytest.raises(ValueError):
        power_spectrum(t, np.zeros(32), window="hamming")
    tt = t.copy()
    tt[5] += 0.01
    with pytest.raises(ValueError):
        power_spectrum(tt, np.zeros(32))
    # NaN times have no spacing, first or later, and no frequencies
    tt[5] = np.nan
    for times in (tt, np.arange(20) * np.nan):
        with pytest.raises(ValueError, match="^samples are not evenly spaced$"):
            power_spectrum(times, np.zeros(len(times)))


def test_spectrum_shape_and_resolution():
    t = np.arange(100) * 0.25
    spec = power_spectrum(t, np.sin(t))
    assert len(spec.freqs) == 51
    assert spec.freqs[1] == pytest.approx(1.0 / (100 * 0.25))
    assert np.all(np.diff(spec.freqs) > 0)


# --- time averages ---------------------------------------------------------


def test_time_average_over_whole_periods_vanishes():
    t = np.linspace(0.0, 8.0, 1601)  # 8 unit periods
    z = np.sin(2 * math.pi * t)
    assert abs(time_average_z(t, z)) < 1e-12


def test_time_average_discard_window():
    t = np.linspace(0.0, 10.0, 1001)
    z = np.where(t < 5.0, -1.0, 2.0)
    assert time_average_z(t, z, t_discard=5.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        time_average_z(t, z, t_discard=10.0)


# --- frequency locking -----------------------------------------------------


def test_locks_onto_decaying_three_cycle():
    centers = np.array([[0.4, 0.0], [-0.1, 0.3], [-0.3, -0.2]])
    k = np.arange(600)
    angle = 2.4 * k
    radius = 0.5 * 0.97**k
    pts = centers[k % 3] + radius[:, None] * np.column_stack(
        [np.cos(angle), np.sin(angle)]
    )
    rep = detect_frequency_locking(
        make_section(pts[:, 0], pts[:, 1]),
        cluster_tol=1e-3,
        max_order=8,
        discard_periods=400,
    )
    assert rep.kind == "FixedCycle"
    assert rep.order == 3
    assert rep.transient_periods > 0
    assert len(rep.cluster_centers) == 3
    for got, want in zip(rep.cluster_centers, centers):
        assert np.hypot(got[0] - want[0], got[1] - want[1]) < 1e-3
    # all points past the reported transient really do stay captured
    d = np.hypot(*(pts[rep.transient_periods :] - centers[k[rep.transient_periods :] % 3]).T)
    assert np.all(d <= 1e-3 + radius[rep.transient_periods])


def test_fixed_point_locks_at_order_one_with_no_transient():
    z = np.full(200, 0.25)
    rep = detect_frequency_locking(
        make_section(z, -z), cluster_tol=1e-3, max_order=4, discard_periods=50
    )
    assert (rep.kind, rep.order, rep.transient_periods) == ("FixedCycle", 1, 0)
    assert rep.mean_z == pytest.approx(0.25)


def test_spread_cloud_is_chaotic_and_ring_is_undecided():
    rng = np.random.default_rng(3)
    big = rng.uniform(-0.8, 0.8, size=(500, 2))
    rep = detect_frequency_locking(
        make_section(big[:, 0], big[:, 1]), discard_periods=100, max_order=6
    )
    assert rep.kind == "Chaotic"
    assert rep.spread > 0.2
    theta = rng.uniform(0, 2 * math.pi, 400)
    ring = 0.05 * np.column_stack([np.cos(theta), np.sin(theta)])
    rep = detect_frequency_locking(
        make_section(ring[:, 0], ring[:, 1]), discard_periods=100, max_order=6
    )
    assert rep.kind == "Undecided"
    assert rep.transient_periods == 0


def test_order_search_is_capped():
    k = np.arange(400)
    z = 0.3 * np.cos(2 * math.pi * k * 5 / 13)
    dz = 0.3 * np.sin(2 * math.pi * k * 5 / 13)
    rep = detect_frequency_locking(
        make_section(z, dz), cluster_tol=1e-6, max_order=12, discard_periods=100
    )
    assert rep.kind != "FixedCycle"
    rep = detect_frequency_locking(
        make_section(z, dz), cluster_tol=1e-6, max_order=13, discard_periods=100
    )
    assert (rep.kind, rep.order) == ("FixedCycle", 13)


def test_locking_self_consistent_on_second_half():
    centers = np.array([[0.3, 0.1], [-0.2, -0.4]])
    k = np.arange(800)
    pts = centers[k % 2] + (0.4 * 0.98**k)[:, None]
    first = detect_frequency_locking(
        make_section(pts[:, 0], pts[:, 1]), discard_periods=500, max_order=6
    )
    second = detect_frequency_locking(
        make_section(pts[400:, 0], pts[400:, 1]), discard_periods=200, max_order=6
    )
    assert first.kind == second.kind == "FixedCycle"
    assert first.order == second.order == 2
    for a, b in zip(first.cluster_centers, second.cluster_centers):
        assert np.hypot(a[0] - b[0], a[1] - b[1]) < 1e-3


def test_non_finite_section_is_rejected_before_clustering():
    z = np.full(200, 0.25)
    z[5:] = math.nan
    with pytest.raises(ValueError, match="195 non-finite points, the first at index 5"):
        detect_frequency_locking(make_section(z, -z), max_order=4, discard_periods=50)
    dz = np.zeros(200)
    dz[170] = math.inf
    with pytest.raises(ValueError, match="1 non-finite points, the first at index 170"):
        detect_frequency_locking(make_section(np.zeros(200), dz), max_order=4, discard_periods=50)


def brute_diameter(pts):
    """sqrt of the largest dx*dx + dy*dy over every pair of points."""
    d2 = 0.0
    for i in range(len(pts) - 1):
        dx = pts[i + 1 :, 0] - pts[i, 0]
        dy = pts[i + 1 :, 1] - pts[i, 1]
        d2 = max(d2, float(np.max(dx * dx + dy * dy)))
    return math.sqrt(d2)


CLOUDS = ("normal", "flat", "collinear", "rounded", "clusters", "pair", "equal")


def cloud(kind, n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(2 if kind == "pair" else n, 2))
    if kind == "flat":
        pts[:, 1] *= 1e-9
    elif kind == "collinear":
        # integer steps along an integer direction, scaled by a power of 2:
        # every product is exact, so the points are exactly collinear
        u, v, c, d = rng.integers(-3, 4, size=4)
        t = rng.integers(-1000, 1000, size=n) * 2.0**-10
        pts = np.column_stack([u * t + c, v * t + d])
    elif kind == "rounded":
        pts = np.round(pts, 2)
    elif kind == "clusters":
        centers = rng.normal(size=(int(rng.integers(1, 13)), 2))
        pts = centers[rng.integers(0, len(centers), size=n)] + 1e-5 * pts
    elif kind == "equal":
        pts[:] = pts[0]
    return pts


@settings(max_examples=300)
@given(st.sampled_from(CLOUDS), st.integers(2, 150), st.integers(0, 2**32 - 1))
@example("equal", 150, 0)  # test_fixed_point_locks_at_order_one_with_no_transient's cloud
def test_diameter_is_the_exact_pairwise_maximum(kind, n, seed):
    pts = cloud(kind, n, seed)
    assert _diameter(pts).hex() == brute_diameter(pts).hex()


def test_insufficient_points_raise():
    z = np.zeros(50)
    with pytest.raises(ValueError):
        detect_frequency_locking(make_section(z, z), discard_periods=10, max_order=12)


def test_locking_validation():
    z = np.zeros(500)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="'cluster_tol'"):
            detect_frequency_locking(make_section(z, z), cluster_tol=bad, discard_periods=10)


# --- lyapunov --------------------------------------------------------------


def test_damped_fixed_point_has_negative_exponent():
    p = TrapParams(lam=10.0, eta=0.1)
    lam = lyapunov_estimate(p, 0.0, 0.0, horizon=100.0)
    assert lam < -0.01


def test_lyapunov_validation():
    p = TrapParams(lam=10.0)
    with pytest.raises(ValueError):
        lyapunov_estimate(p, 0.5, 0.0, d0=0.0)
    with pytest.raises(ValueError):
        lyapunov_estimate(p, 0.5, 0.0, horizon=0.1, renorm_interval=0.5)
    for name in ("d0", "renorm_interval", "horizon"):
        with pytest.raises(ValueError, match=f"'{name}'"):
            lyapunov_estimate(p, 0.5, 0.0, **{"horizon": 2.0, name: math.nan})
    with pytest.raises(ValueError, match="'horizon'"):
        lyapunov_estimate(p, 0.5, 0.0, horizon=math.inf)
    with pytest.raises(ValueError, match="'d0' must be finite and > 0"):
        lyapunov_estimate(p, 0.5, 0.0, horizon=2.0, d0=math.inf)


@pytest.mark.parametrize(
    "p, norm",
    # at a fixed point: a saddle with rate 100, whose tangent overflows in
    # one interval, and an overdamped sink with rates -20 and -20, whose
    # tangent goes subnormal
    [(TrapParams(lam=-10001.0), "nan"), (TrapParams(lam=399.0, eta=40.0), "2e-323")],
    ids=["overflow", "subnormal"],
)
def test_tangent_out_of_range_names_t_z_and_the_interval(p, norm):
    horizon = 10.0 if p.eta == 0.0 else 60.0
    with pytest.raises(BjjError, match=rf"norm {norm} at t={horizon}, z=0.0 after a "
                                       rf"renorm_interval of h={horizon}"):
        lyapunov_estimate(p, 0.0, 0.0, horizon=horizon, renorm_interval=horizon)
    # shorter intervals keep it in range
    assert math.isfinite(lyapunov_estimate(p, 0.0, 0.0, horizon=horizon))
