"""Reduced quantum fluid model integrated in its effective-wavefunction
form: a nonlinear Schrodinger equation whose nonlinearity is the enthalpy
of a polytropic equation of state.

    i hbar_eff Psi_t = -(hbar_eff^2/2) Psi_xx + [-phi + W_eff(|Psi|^2)] Psi

with hbar_eff = H/2.  The default closure is the 1D degenerate one,
P = n^3/3 in units of n0 m v_F^2, for which W_eff(n) = (n^2 - 1)/2; the
constant is a gauge choice making the kick vanish at equilibrium density.
Integrating the wavefunction form keeps n = |Psi|^2 nonnegative and the
mass exactly conserved, unlike a direct discretization of the density and
velocity equations.

In 1D this is the Hartree model of one stream of weight 1 with the
enthalpy as a local potential (Manfredi & Haas, PRB 64, 075316, 2001), so
the split-step integrator and the wavefunction diagnostics are the ones in
`hartree`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .equilibria import Perturbation, StreamSet, hbar_eff
from .fields import SpatialGrid
from .hartree import _split_step, _wave_diagnostics


@dataclass
class FluidState(StreamSet):
    """Effective wavefunction as one stream of weight 1, psi shaped
    (1, n_x), with a polytropic closure (gamma, p0)."""

    gamma: float = 3.0
    p0: float = 1.0 / 3.0


def initial_state(grid: SpatialGrid, H: float,
                  perturbation: Perturbation | None = None,
                  gamma: float = 3.0, p0: float = 1.0 / 3.0) -> FluidState:
    """Uniform unit-density state, optionally with a cosine density
    perturbation carried by the amplitude (zero initial velocity)."""
    if H <= 0:
        raise ValueError("the effective wavefunction form requires H > 0")
    n = np.ones(grid.n_x)
    if perturbation is not None:
        n = perturbation.modulation(grid)
    return FluidState(grid, np.sqrt(n).astype(complex)[None, :], np.ones(1),
                      H, gamma, p0)


def enthalpy(n: np.ndarray, gamma: float, p0: float) -> np.ndarray:
    """W_eff(n) = gamma p0 (n^(gamma-1) - 1)/(gamma - 1), zero at n = 1."""
    if gamma == 1.0:
        return p0 * np.log(n)
    return gamma * p0 * (n ** (gamma - 1.0) - 1.0) / (gamma - 1.0)


def internal_energy(n: np.ndarray, gamma: float, p0: float) -> np.ndarray:
    """Antiderivative of the enthalpy from n = 1 (per unit length)."""
    if gamma == 1.0:
        return p0 * (n * np.log(n) - n + 1.0)
    return (gamma * p0 / (gamma - 1.0)) * ((n**gamma - 1.0) / gamma - (n - 1.0))


def check_splitstep_resonance(grid: SpatialGrid, H: float, dt: float) -> float:
    """Largest kinetic phase advance per step, in units of pi.

    When hbar_eff k_max^2 dt / 2 reaches pi the split-step scheme has a
    parametric resonance that pumps energy into the matching grid modes
    (visible as growth at k with hbar_eff k^2 dt/2 = m pi).  Keep the
    returned value below 1.
    """
    k_max = np.pi / grid.dx
    return float(0.5 * hbar_eff(H) * k_max**2 * dt / np.pi)


def step(state: FluidState, dt: float) -> FluidState:
    """Unitary split-step: half kinetic, field solve, kick, half kinetic."""
    if check_splitstep_resonance(state.grid, state.H, dt) >= 1.0:
        warnings.warn(
            "kinetic phase per step exceeds pi at the grid cutoff; "
            "split-step resonance can pump grid modes, reduce dt",
            RuntimeWarning)
    return _split_step(state, dt, lambda n: enthalpy(n, state.gamma, state.p0))


def diagnostics(state: FluidState):
    """Box-averaged (field energy, transport energy, mass, momentum).

    The transport energy is (hbar_eff^2/2)|Psi_x|^2 plus the internal
    energy of the closure, so that field + transport is the conserved
    functional of the model.
    """
    return _wave_diagnostics(
        state, lambda n: internal_energy(n, state.gamma, state.p0))

