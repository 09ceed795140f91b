"""Quantum phase-space (Wigner) transport coupled to the periodic Poisson
equation, integrated by operator splitting in the dual variable.

The distribution f(x, v) may be negative but is always real.  Writing
g(x, lam) = integral of f exp(-i v lam / hbar_eff) dv, the nonlocal quantum
force term becomes an exact multiplication

    g <- g * exp(-i (dt/hbar_eff) [phi(x + lam/2) - phi(x - lam/2)])

with hbar_eff = H/2 in normalized units.  The small-lam expansion of the
phase is -i dt lam phi'(x) / hbar_eff, which shifts velocities by +phi' dt,
the classical force of the kinetic equation; that limit fixes the sign.
Free streaming is a spectral shift in x.  The lam = 0 mode (the density)
is untouched by the kick, so mass is conserved to round-off.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .equilibria import Equilibrium1D, Perturbation, hbar_eff
from .fields import PhaseSpaceGrid, poisson_periodic
from . import vlasov as _vlasov


@dataclass
class WignerState:
    """Real phase-space field f indexed [i_v, i_x], with quantum scale H."""

    f: np.ndarray
    grid: PhaseSpaceGrid
    H: float
    time: float = 0.0

    def copy(self) -> "WignerState":
        return WignerState(self.f.copy(), self.grid, self.H, self.time)


def lambda_nodes(grid: PhaseSpaceGrid, H: float) -> np.ndarray:
    """Dual-variable nodes in FFT ordering.

    The spacing 2 pi hbar_eff / (n_v dv) is fixed by Fourier duality with
    the velocity grid; lambda_max = n_v dlam / 2 should exceed the length
    scale of potential variation for the nonlocal term to be resolved.
    """
    hbar = hbar_eff(H)
    dlam = 2.0 * np.pi * hbar / (grid.n_v * grid.dv)
    return dlam * np.fft.fftfreq(grid.n_v, d=1.0 / grid.n_v)


def initial_state(grid: PhaseSpaceGrid, eq: Equilibrium1D, H: float,
                  perturbation: Perturbation | None = None) -> WignerState:
    """Perturbed kinetic equilibrium sampled on the grid (not a transform
    of an actual mixed state; tag runs accordingly)."""
    base = _vlasov.initial_state(grid, eq, perturbation)
    return WignerState(base.f, grid, H)


def from_phase_space_field(f: np.ndarray, grid: PhaseSpaceGrid,
                           H: float) -> WignerState:
    return WignerState(np.array(f, dtype=float), grid, H)


def advect_x(f: np.ndarray, grid: PhaseSpaceGrid, dt: float) -> np.ndarray:
    """Exact free streaming: phase shift exp(-i k v dt) per velocity row."""
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.spatial.n_x, d=grid.spatial.dx)
    fhat = np.fft.rfft(f, axis=1)
    fhat *= np.exp(-1j * k[None, :] * grid.v[:, None] * dt)
    return np.fft.irfft(fhat, n=grid.spatial.n_x, axis=1)


def _kick_phase(phi_hat, k, lam):
    """phi(x + lam/2) - phi(x - lam/2) for every (lam, x) pair, by spectral
    interpolation of the periodic potential."""
    shift = 2j * np.sin(0.5 * k[None, :] * lam[:, None])
    return np.fft.ifft(phi_hat[None, :] * shift, axis=1).real


def potential_kick(f: np.ndarray, grid: PhaseSpaceGrid, H: float, dt: float,
                   phi: np.ndarray | None,
                   external_potential=None) -> np.ndarray:
    """Apply the full nonlocal force step for a frozen potential.

    phi is the self-consistent electrostatic potential (particle potential
    energy -phi); external_potential, if given, is a callable V(x) added to
    the potential energy and evaluated directly at x +/- lam/2 so it need
    not be periodic.
    """
    hbar = hbar_eff(H)
    lam = lambda_nodes(grid, H)
    x = grid.spatial.x
    dV = np.zeros((grid.n_v, grid.spatial.n_x))
    if phi is not None:
        k = grid.spatial.wavenumbers
        dV -= _kick_phase(np.fft.fft(phi), k, lam)
    if external_potential is not None:
        dV += (external_potential(x[None, :] + 0.5 * lam[:, None])
               - external_potential(x[None, :] - 0.5 * lam[:, None]))
    max_phase = float(np.max(np.abs(dV))) * dt / hbar
    if max_phase > np.pi:
        warnings.warn(
            f"kick phase {max_phase:.2f} exceeds pi: dual-space aliasing "
            "likely; reduce dt or refine the velocity grid", RuntimeWarning)
    g = np.fft.fft(f, axis=0)
    mult = np.exp(1j * (dt / hbar) * dV)
    # The unpaired Nyquist mode must stay self-conjugate to keep f real;
    # leave it unkicked.
    mult[grid.n_v // 2, :] = 1.0
    g *= mult
    return np.fft.ifft(g, axis=0).real


def step(state: WignerState, dt: float,
         external_potential=None, self_consistent: bool = True) -> WignerState:
    """One Strang-split step: half stream, field solve, kick, half stream."""
    if state.H <= 0:
        raise ValueError("quantum transport requires H > 0")
    f = advect_x(state.f, state.grid, 0.5 * dt)
    phi = None
    if self_consistent:
        n = np.sum(f, axis=0) * state.grid.dv
        phi = poisson_periodic(n, state.grid.spatial)
    f = potential_kick(f, state.grid, state.H, dt, phi, external_potential)
    f = advect_x(f, state.grid, 0.5 * dt)
    if not np.all(np.isfinite(f)):
        raise FloatingPointError(
            f"non-finite values in f at t={state.time + dt:.3f}")
    return WignerState(f, state.grid, state.H, state.time + dt)


# The diagnostics read only f and its grid, as for the classical model.
diagnostics = _vlasov.diagnostics


def semiclassical_limit_check(grid: PhaseSpaceGrid, eq: Equilibrium1D,
                              perturbation: Perturbation | None,
                              H_list, t_end: float = 5.0, dt: float = 0.02):
    """Sup-norm deviation of quantum runs from the classical run.

    All runs share the grid, initial data and horizon.  Returns a list of
    (H, deviation) pairs; the leading quantum correction is O(hbar^2), so
    deviations should fall with slope 2 in log-log as H decreases.
    """
    n_steps = int(round(t_end / dt))
    ref = _vlasov.initial_state(grid, eq, perturbation)
    for _ in range(n_steps):
        ref = _vlasov.step(ref, dt)
    table = []
    for H in H_list:
        st = initial_state(grid, eq, H, perturbation)
        for _ in range(n_steps):
            st = step(st, dt)
        table.append((float(H), float(np.max(np.abs(st.f - ref.f)))))
    return table
