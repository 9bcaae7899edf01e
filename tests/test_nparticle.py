"""An N-particle reference for the mean-field equations: the two-mode
Bose-Hubbard Hamiltonian

    H = -(a1+ a2 + a2+ a1)/2 + (de(t)/2)(n1 - n2) + (lam/2N)(n1^2 + n2^2),

whose N -> infinity limit is the amplitude equations of bjj.twomode, and so
the reduced (z, phi) equations.  It is stepped in the Fock basis
n1 = 0 .. N from the SU(2) coherent state of (z0, phi0).

Run as a script, ``PYTHONPATH=src python tests/test_nparticle.py`` prints
README's break-time table.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bjj.integrate import StepControl, integrate_adaptive
from bjj.model import PhaseState, TrapParams, trap_asymmetry

#: Mean-field control: its error is far below every gap measured here.
CTL = StepControl(abs_tol=1e-12, rel_tol=1e-12, h_init=1e-3, h_min=1e-14, h_max=0.01)


def quantum_z(p: TrapParams, z0: float, phi0: float, n: int, dt: float, steps: int) -> np.ndarray:
    """<n1 - n2>/N of n atoms at t = 0, dt, ..., steps*dt, from the coherent
    state whose amplitudes are twomode's, sqrt((1 + z0)/2) and
    sqrt((1 - z0)/2) exp(i phi0), |z0| < 1.  Each Strang step is a half
    diagonal step with the tilt at the step's midpoint, the exact hopping
    step (one eigh for the run), and a second half diagonal step."""
    n1 = np.arange(n + 1)
    n2 = n - n1
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    log_c = (0.5 * (log_factorial[n] - log_factorial[n1] - log_factorial[n2])
             + 0.5 * n1 * math.log(0.5 * (1.0 + z0)) + 0.5 * n2 * math.log(0.5 * (1.0 - z0)))
    psi = np.exp(log_c + 1j * phi0 * n2)
    psi /= np.linalg.norm(psi)
    # <n1 + 1, n2 - 1| a1+ a2 |n1, n2> = sqrt((n1 + 1) n2)
    hop = -0.5 * np.sqrt((n1[:-1] + 1.0) * n2[:-1])
    w, v = np.linalg.eigh(np.diag(hop, 1) + np.diag(hop, -1))
    hopping = (v * np.exp(-1j * dt * w)) @ v.T
    imbalance = (n1 - n2) / n
    interaction = p.lam / (2.0 * n) * (n1 * n1 + n2 * n2)
    z = [imbalance @ np.abs(psi) ** 2]
    for de in np.broadcast_to(trap_asymmetry(p, (np.arange(steps) + 0.5) * dt), steps):
        half = np.exp(-0.5j * dt * (0.5 * de * (n1 - n2) + interaction))
        psi = half * (hopping @ (half * psi))
        z.append(imbalance @ np.abs(psi) ** 2)
    return np.array(z)


def gaps(p: TrapParams, z0: float, phi0: float, n: int, dt: float, t_end: float = 1.0):
    """(the grid t = 0, dt, ..., |z_quantum - z_mean-field| on it)."""
    steps = round(t_end / dt)
    orbit = integrate_adaptive(p, PhaseState(0.0, z0, phi0), steps * dt, CTL, sample_dt=dt)
    return orbit.t, np.abs(quantum_z(p, z0, phi0, n, dt, steps) - orbit.z)


@given(
    z0=st.floats(-0.9, 0.9),
    phi0=st.floats(-math.pi, math.pi),
    de1=st.one_of(st.just(0.0), st.floats(1.0, 5.0)),
    omega=st.floats(1.0, 4.0 * math.pi),
)
@example(z0=0.5, phi0=0.0, de1=0.0, omega=4.0 * math.pi)
@example(z0=0.5, phi0=0.0, de1=3.0, omega=4.0 * math.pi)
@settings(max_examples=20)
def test_without_interaction_the_gap_is_the_splitting_error(z0, phi0, de1, omega):
    # At lam = 0 H is linear in the SU(2) generators: a coherent state stays
    # one, and <n1 - n2>/N is the mean-field z for every N.  Undriven, the
    # Strang step is exact (measured 1.2e-13 from (0.5, 0)); driven, the
    # gap is its dt^2 error, 1.28e-6 at dt = 1e-3 and 3.20e-7 at 5e-4 for
    # de1 = 3, omega = 4 pi.  The ratio measured 3.998 to 4.0005 over 76
    # starts and drives.
    p = TrapParams(lam=0.0, de1=de1, omega=omega)
    coarse = gaps(p, z0, phi0, 50, 1e-3)[1].max()
    fine = gaps(p, z0, phi0, 50, 5e-4)[1].max()
    if de1 == 0.0:
        assert max(coarse, fine) < 1e-11
    else:
        assert 3.98 < coarse / fine < 4.02


@given(
    z0=st.floats(-0.9, 0.9),
    phi0=st.floats(-math.pi, math.pi),
    de1=st.floats(1.0, 5.0),
)
@example(z0=0.5, phi0=0.0, de1=0.0)
@example(z0=0.5, phi0=0.3, de1=3.0)
@settings(max_examples=20)
def test_the_mean_field_gap_falls_as_one_over_n(z0, phi0, de1):
    # At lam = 2 the gap over t <= 1 is the leading quantum correction, 1/N:
    # from (0.5, 0) undriven 3.75e-3, 9.41e-4 and 2.35e-4 at N = 100, 400
    # and 1600; from (0.5, 0.3) at de1 = 3, omega = 4 pi 4.18e-3, 2.09e-3,
    # 1.05e-3 and 5.24e-4 at N = 100 .. 800.  The ratio from N = 100 to 200
    # measured 1.953 to 2.016 over 168 starts and drives.  The draws are
    # driven: undriven, (0, 0) and (0, pi) are fixed points with no gap.
    p = TrapParams(lam=2.0, de1=de1, omega=4.0 * math.pi)
    ratio = gaps(p, z0, phi0, 100, 1e-3)[1].max() / gaps(p, z0, phi0, 200, 1e-3)[1].max()
    assert 1.9 < ratio < 2.1


if __name__ == "__main__":
    # README's break-time table: the first t with |dz| > 0.1 at lam = 10
    # on fig5's drives, from (0.5, 0), dt = 1e-3
    sizes = (50, 100, 200, 400, 800)
    print("| de1 \\ N | " + " | ".join(map(str, sizes)) + " |")
    for de1 in (3.0, 7.5):
        p = TrapParams(lam=10.0, de1=de1, omega=4.0 * math.pi)
        row = []
        for n in sizes:
            t, gap = gaps(p, 0.5, 0.0, n, 1e-3, t_end=8.0)
            row.append(f"{t[np.argmax(gap > 0.1)]:.3g}" if gap.max() > 0.1 else "> 8")
        print(f"| {de1} | " + " | ".join(row) + " |")
