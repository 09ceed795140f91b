"""Self-consistent mean-field evolution of a mixture of N wavefunctions
coupled through the shared periodic Poisson equation, plus the per-stream
amplitude/phase (density and velocity) decomposition.

Each stream obeys

    i hbar_eff psi_t = -(hbar_eff^2/2) psi_xx + [-phi + W(n)] psi

with hbar_eff = H/2 and n the occupation-weighted mixture density,
integrated by unitary split-step Fourier: half kinetic, one shared field
solve from n, full potential kick, half kinetic.  Streams advance
independently except for the field solve (fork-join per step).

The Hartree model has no local potential W.  The quantum fluid model
(`qfluid`) runs the same integrator, diagnostics and Madelung
decomposition on one stream of weight 1 with the enthalpy as W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibria import Perturbation, StreamSet, hbar_eff
from .fields import SpatialGrid, poisson_periodic, spectral_derivative


@dataclass
class MadelungFields:
    """Per-stream density and flow velocity with a vacuum mask.

    u is meaningless where |psi|^2 is negligible; those cells are flagged
    in `mask` (True = unreliable) and u is set to 0 there.
    """

    n: np.ndarray      # (N, n_x)
    u: np.ndarray      # (N, n_x)
    mask: np.ndarray   # (N, n_x) bool


def perturb_streams(streams: StreamSet, pert: Perturbation) -> StreamSet:
    """Scale every stream by sqrt(1 + alpha cos kx) so the mixture density
    is (1 + alpha cos kx) times the unperturbed one."""
    envelope = np.sqrt(pert.modulation(streams.grid))
    return StreamSet(streams.grid, streams.psi * envelope[None, :],
                     streams.probabilities, streams.H)


def _split_step(psi: np.ndarray, weights: np.ndarray, grid: SpatialGrid,
                H: float, dt: float, local_potential=None) -> np.ndarray:
    """One Strang-split step of the streams psi (N, n_x) with occupation
    weights (N,); local_potential, if given, is W(n) of the weighted
    density, added to the potential energy -phi of the kick."""
    hb = hbar_eff(H)
    half = np.exp(-0.5j * hb * grid.wavenumbers**2 * (0.5 * dt))[None, :]
    psi = np.fft.ifft(np.fft.fft(psi, axis=1) * half, axis=1)
    n = np.einsum("a,ax->x", weights, np.abs(psi) ** 2)
    potential = -poisson_periodic(n, grid)
    if local_potential is not None:
        potential = potential + local_potential(n)
    psi = psi * np.exp(-1j * (dt / hb) * potential)[None, :]
    psi = np.fft.ifft(np.fft.fft(psi, axis=1) * half, axis=1)
    if not np.all(np.isfinite(psi.view(float))):
        raise FloatingPointError("non-finite wavefunction values")
    return psi


def step(streams: StreamSet, dt: float) -> StreamSet:
    """One Strang-split step; unitary per stream."""
    psi = _split_step(streams.psi, streams.probabilities, streams.grid,
                      streams.H, dt)
    return StreamSet(streams.grid, psi, streams.probabilities, streams.H)


def _wave_diagnostics(psi: np.ndarray, weights: np.ndarray, grid: SpatialGrid,
                      H: float):
    """Box-averaged (field energy, kinetic energy, mass, momentum) of the
    streams psi (N, n_x) with occupation weights (N,).

    Kinetic energy is the weighted (hbar_eff^2/2)|psi_x|^2 average;
    momentum the weighted hbar_eff Im(psi* psi_x) average.
    """
    hb = hbar_eff(H)
    n = np.einsum("a,ax->x", weights, np.abs(psi) ** 2)
    phi = poisson_periodic(n, grid)
    efield = spectral_derivative(phi, grid)
    field_energy = 0.5 * float(np.mean(efield**2))
    k = grid.wavenumbers
    dpsi = np.fft.ifft(1j * k[None, :] * np.fft.fft(psi, axis=1), axis=1)
    kin_per = 0.5 * hb**2 * np.mean(np.abs(dpsi) ** 2, axis=1)
    mom_per = hb * np.mean(np.imag(np.conj(psi) * dpsi), axis=1)
    kinetic = float(np.dot(weights, kin_per))
    momentum = float(np.dot(weights, mom_per))
    return field_energy, kinetic, float(np.mean(n)), momentum


def diagnostics(streams: StreamSet):
    """Box-averaged (field energy, kinetic energy, mass, momentum)."""
    return _wave_diagnostics(streams.psi, streams.probabilities, streams.grid,
                             streams.H)


def stream_norms(streams: StreamSet) -> np.ndarray:
    """Box-averaged |psi_a|^2 per stream (conserved, 1 for unit streams)."""
    return np.mean(np.abs(streams.psi) ** 2, axis=1)


def _madelung(psi: np.ndarray, H: float, dx: float, vacuum_fraction: float):
    """(n, u, mask) along the last axis of psi; see madelung_decompose."""
    n = np.abs(psi) ** 2
    fwd = np.roll(psi, -1, axis=-1)
    bwd = np.roll(psi, 1, axis=-1)
    u = hbar_eff(H) * np.angle(fwd * np.conj(bwd)) / (2.0 * dx)
    mask = n < vacuum_fraction * n.max(axis=-1, keepdims=True)
    return n, np.where(mask, 0.0, u), mask


def madelung_decompose(streams: StreamSet,
                       vacuum_fraction: float = 1e-8) -> MadelungFields:
    """Density n_a = |psi_a|^2 and velocity u_a from the local phase
    increment hbar_eff * arg(psi(x+dx) conj(psi(x-dx))) / (2 dx), which
    needs no global phase unwrapping."""
    return MadelungFields(*_madelung(streams.psi, streams.H, streams.grid.dx,
                                     vacuum_fraction))
