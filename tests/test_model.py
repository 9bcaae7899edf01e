import math

import pytest
from hypothesis import given, strategies as st

from bjj.errors import SingularityError
from bjj.model import (
    DampingKind,
    PhysicalParams,
    TrapParams,
    classify_regime,
    derive_dimensionless,
    effective_energy,
    effective_potential,
    hamiltonian,
    make_rate,
    trap_asymmetry,
)
from bjj.separatrix import SeparatrixFrame

LAM10 = TrapParams(lam=10.0)


def test_derive_dimensionless_symmetric_modes():
    phys = PhysicalParams(e1=0.0, e2=0.0, u1=1.0, u2=1.0, k=0.05, n_total=1.0)
    lam, de0 = derive_dimensionless(phys)
    assert lam == pytest.approx(10.0, abs=0.0)
    assert de0 == 0.0


def test_derive_dimensionless_splits_asymmetry():
    phys = PhysicalParams(e1=0.3, e2=0.1, u1=1.0, u2=1.0, k=0.05, n_total=1.0)
    _, de0 = derive_dimensionless(phys)
    assert de0 == pytest.approx((0.3 - 0.1) / (2 * 0.05))
    phys = PhysicalParams(e1=0.0, e2=0.0, u1=1.2, u2=0.8, k=0.05, n_total=1.0)
    _, de0 = derive_dimensionless(phys)
    assert de0 == pytest.approx((1.2 - 0.8) * 1.0 / (4 * 0.05))


def test_trap_asymmetry_peaks_at_quarter_period():
    p = TrapParams(lam=10.0, de0=0.0, de1=7.5, omega=4.0 * math.pi)
    assert trap_asymmetry(p, 0.125) == pytest.approx(7.5, rel=1e-15)
    assert trap_asymmetry(p, 0.0) == 0.0


def rate_at(p, z, phi, t=0.0):
    """(dz/dt, dphi/dt) at a single state."""
    return make_rate(p)(t, trap_asymmetry(p, t), z, phi)


def test_rhs_frozen_point():
    dz, dphi = rate_at(LAM10, 0.5, 0.0)
    assert dz == 0.0
    assert dphi == pytest.approx(5.5773502691896257, abs=1e-15)


def test_hamiltonian_frozen_point():
    assert hamiltonian(LAM10, 0.5, 0.0) == pytest.approx(0.3839745962155614, abs=1e-15)


def test_hamiltonian_rejects_unphysical_z():
    with pytest.raises(ValueError):
        hamiltonian(LAM10, 1.5, 0.0)


def test_effective_potential_double_well_value():
    p = TrapParams(lam=2.0)
    assert effective_potential(p, 1.5, 1.0) == pytest.approx(-0.5, abs=1e-15)


def test_effective_state_relations():
    h = hamiltonian(LAM10, 0.5, 0.3)
    assert effective_energy(h) == pytest.approx((1.0 - h**2) / 2.0, rel=1e-14)
    # the fictitious particle's momentum is the imbalance rate
    dz, _ = rate_at(LAM10, 0.5, 0.3)
    assert dz == pytest.approx(-math.sqrt(1.0 - 0.5**2) * math.sin(0.3), abs=1e-15)


def test_classify_rabi_and_self_trapped():
    r = classify_regime(LAM10, 0.5, 0.0)
    assert r.motion.value == "RabiOscillation"
    assert r.potential_shape.value == "DoubleWell"
    r = classify_regime(LAM10, 0.75, 0.0)
    assert r.motion.value == "SelfTrapped"
    assert r.h == pytest.approx(2.1510621722338525, abs=1e-12)


def test_classify_separatrix_at_hyperbolic_point():
    # (z, phi) = (0, pi) has h = 1 exactly, hence h_eff = 0
    r = classify_regime(TrapParams(lam=2.0), 0.0, math.pi)
    assert r.motion.value == "Separatrix"
    assert abs(r.h_eff) <= 1e-9


def test_classify_rejects_negative_h_eff_in_single_well():
    # strong static tilt drives h below -1 while lam*h stays < 1
    p = TrapParams(lam=0.1, de0=-10.0)
    with pytest.raises(ValueError):
        classify_regime(p, 0.3, 0.0)


def test_separatrix_amplitude_frozen_case():
    assert SeparatrixFrame(lam=2.0, h=1.0).amplitude == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        SeparatrixFrame(lam=2.0, h=0.4)


def test_trap_params_validation():
    with pytest.raises(ValueError):
        TrapParams(lam=10.0, eta=-0.1)
    with pytest.raises(ValueError):
        TrapParams(lam=10.0, de1=1.0, omega=0.0)
    with pytest.raises(ValueError, match="'omega'"):
        TrapParams(lam=10.0, omega=math.nan)
    with pytest.raises(ValueError):
        TrapParams(lam=float("nan"))


def test_rate_raises_on_near_unit_z():
    f = make_rate(LAM10)
    with pytest.raises(SingularityError):
        f(0.0, 0.0, 1.0 - 1e-13, 0.0)


def test_period_property():
    p = TrapParams(lam=10.0, de1=1.0, omega=4.0 * math.pi)
    assert p.period == pytest.approx(0.5, rel=1e-15)


@given(
    z=st.floats(-0.95, 0.95),
    phi=st.floats(-math.pi, math.pi),
    lam=st.floats(-5.0, 15.0),
    eta=st.floats(0.0, 1.0),
    damping=st.sampled_from([DampingKind.POPULATION, DampingKind.VELOCITY]),
)
def test_rhs_odd_in_symmetric_trap(z, phi, lam, eta, damping):
    """With no tilt the equations are odd under (z, phi) -> (-z, -phi)."""
    p = TrapParams(lam=lam, eta=eta, damping=damping)
    fwd = rate_at(p, z, phi)
    bwd = rate_at(p, -z, -phi)
    assert bwd[0] == pytest.approx(-fwd[0], abs=1e-12)
    assert bwd[1] == pytest.approx(-fwd[1], abs=1e-12)


@given(
    z=st.floats(-0.9, 0.9),
    phi=st.floats(-3.0, 3.0),
    lam=st.floats(-5.0, 15.0),
    de0=st.floats(-2.0, 2.0),
)
def test_rhs_is_canonical_flow_of_h(z, phi, lam, de0):
    """Undamped rates equal the canonical derivatives of the energy."""
    p = TrapParams(lam=lam, de0=de0)
    dz, dphi = rate_at(p, z, phi)
    eps = 1e-6
    dh_dphi = (hamiltonian(p, z, phi + eps) - hamiltonian(p, z, phi - eps)) / (2 * eps)
    dh_dz = (hamiltonian(p, z + eps, phi) - hamiltonian(p, z - eps, phi)) / (2 * eps)
    assert dz == pytest.approx(-dh_dphi, rel=2e-6, abs=2e-6)
    assert dphi == pytest.approx(dh_dz, rel=2e-6, abs=2e-6)


@given(z=st.floats(-0.8, 0.8), phi=st.floats(-3.0, 3.0))
def test_effective_energy_identity(z, phi):
    """h_eff = kinetic + potential along any state, tilted or not."""
    p = TrapParams(lam=6.0, de0=0.7)
    h = hamiltonian(p, z, phi)
    p_z, _ = rate_at(p, z, phi)
    v = effective_potential(p, h, z)
    assert effective_energy(h) == pytest.approx(p_z**2 / 2.0 + v, rel=1e-9, abs=1e-9)
