import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bjj import twomode
from bjj.errors import StepUnderflowError
from bjj.model import PhaseState, TrapParams
from bjj.twomode import _amplitudes, crosscheck_max_dz, integrate_twomode


def project(a1, a2):
    """(z, phi) of one amplitude pair."""
    n1, n2 = abs(a1) ** 2, abs(a2) ** 2
    return (n1 - n2) / (n1 + n2), cmath.phase(a2) - cmath.phase(a1)


def test_amplitudes_and_projection_roundtrip():
    a1, a2 = _amplitudes(0.5, math.pi / 3)
    assert abs(a1) ** 2 == pytest.approx(0.75, abs=1e-15)
    assert abs(a2) ** 2 == pytest.approx(0.25, abs=1e-15)
    z, phi = project(a1, a2)
    assert z == pytest.approx(0.5, abs=1e-15)
    assert phi == pytest.approx(math.pi / 3, abs=1e-15)


def test_norm_is_conserved():
    p = TrapParams(lam=10.0, de0=0.5, de1=2.0, omega=4.0 * math.pi)
    traj = integrate_twomode(p, PhaseState(0.0, 0.5, 0.0), 100.0, sample_dt=1.0)
    norms = np.abs(traj.a1) ** 2 + np.abs(traj.a2) ** 2
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_overflowing_run_raises_instead_of_nan_rows():
    # lam*|a|^2 ~ 1e308 overflows every trial step, however small
    with pytest.raises(StepUnderflowError):
        integrate_twomode(TrapParams(lam=1e308), PhaseState(0.0, 0.5, 0.0), 1.0, sample_dt=0.5)


def test_step_underflow_names_configured_h_min():
    with pytest.raises(StepUnderflowError) as info:
        integrate_twomode(TrapParams(lam=1e308), PhaseState(0.0, 0.5, 0.0), 1.0, sample_dt=0.5)
    err = info.value
    assert (err.t, err.h_min) == (0.0, 1e-12)
    assert err.h <= 1e-12 * (1.0 + 1e-9)
    message = str(err)
    assert "h_min=1e-12" in message
    assert f"t={err.t!r}" in message and f"h={err.h!r}" in message
    assert f"state={err.y!r}" in message


def test_damping_is_rejected():
    p = TrapParams(lam=10.0, eta=0.1)
    with pytest.raises(ValueError):
        integrate_twomode(p, PhaseState(0.0, 0.5, 0.0), 1.0)


def test_crosscheck_agreement_short_run():
    p = TrapParams(lam=2.0, de0=0.3, de1=0.4, omega=3.0)
    rep = crosscheck_max_dz(p, 0.4, 0.7, t_end=20.0)
    assert rep.n_compared == 401
    assert rep.max_abs_dz < 1e-7


def test_crosscheck_without_a_sample_grid_runs_neither_route(monkeypatch):
    # two every-step recordings never share a grid: refused up front
    def never(*args, **kwargs):
        raise AssertionError("integrated a crosscheck that has no grid")

    monkeypatch.setattr(twomode, "_sample", never)
    monkeypatch.setattr(twomode, "integrate_adaptive", never)
    with pytest.raises(ValueError, match="^'sample_dt' must "):
        crosscheck_max_dz(TrapParams(lam=2.0), 0.4, 0.0, sample_dt=None)


def test_crosscheck_rejects_damped_params():
    with pytest.raises(ValueError):
        crosscheck_max_dz(TrapParams(lam=2.0, eta=0.2), 0.4, 0.0)


@given(
    z0=st.floats(-0.9, 0.9),
    phi0=st.floats(-math.pi, math.pi),
)
@settings(max_examples=25)
def test_amplitude_construction_is_normalized(z0, phi0):
    a1, a2 = _amplitudes(z0, phi0)
    assert abs(a1) ** 2 + abs(a2) ** 2 == pytest.approx(1.0, abs=1e-14)
    z, phi = project(a1, a2)
    assert z == pytest.approx(z0, abs=1e-14)
    if abs(z0) < 0.999:
        assert cmath.exp(1j * phi) == pytest.approx(cmath.exp(1j * phi0), abs=1e-12)
