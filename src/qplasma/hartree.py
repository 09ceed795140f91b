"""Self-consistent mean-field evolution of a mixture of N wavefunctions
coupled through the shared periodic Poisson equation.

Each stream obeys

    i hbar_eff psi_t = -(hbar_eff^2/2) psi_xx + [-phi + W(n)] psi

with hbar_eff = H/2 and n the occupation-weighted mixture density,
integrated by unitary split-step Fourier: half kinetic, one shared field
solve from n, full potential kick, half kinetic.  Streams advance
independently except for the field solve (fork-join per step).

The Hartree model has no local potential W.  The quantum fluid model
(`qfluid`) runs the same integrator and diagnostics on one stream of
weight 1 with the enthalpy as W.
"""

from __future__ import annotations

import numpy as np

from .equilibria import Perturbation, StreamSet, hbar_eff
from .fields import field_energy, poisson_periodic


def perturb_streams(streams: StreamSet, pert: Perturbation) -> StreamSet:
    """Scale every stream by sqrt(1 + alpha cos kx) so the mixture density
    is (1 + alpha cos kx) times the unperturbed one."""
    envelope = np.sqrt(pert.modulation(streams.grid))
    return StreamSet(streams.grid, streams.psi * envelope[None, :],
                     streams.probabilities, streams.H)


def _split_step(streams: StreamSet, dt: float,
                local_potential=None) -> np.ndarray:
    """The streams' psi after one Strang-split step; local_potential, if
    given, is W(n) of the weighted density, added to the potential energy
    -phi of the kick."""
    grid, weights = streams.grid, streams.probabilities
    hb = hbar_eff(streams.H)
    half = np.exp(-0.5j * hb * grid.wavenumbers**2 * (0.5 * dt))[None, :]
    psi = np.fft.ifft(np.fft.fft(streams.psi, axis=1) * half, axis=1)
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
    return StreamSet(streams.grid, _split_step(streams, dt),
                     streams.probabilities, streams.H)


def _wave_diagnostics(streams: StreamSet, internal_energy=None):
    """Box-averaged (field energy, kinetic energy, mass, momentum) of any
    stream set, plus the box average of internal_energy(n) if given.  By
    Parseval over each stream's FFT psi_k, (hbar_eff^2/2) <|psi_x|^2> is
    (hbar_eff^2/2) sum k^2 |psi_k|^2 / n_x^2 and hbar_eff <Im(psi* psi_x)>
    is hbar_eff sum k |psi_k|^2 / n_x^2, weighted by the occupations."""
    psi, weights, grid = streams.psi, streams.probabilities, streams.grid
    hb = hbar_eff(streams.H)
    n = np.einsum("a,ax->x", weights, np.abs(psi) ** 2)
    # The occupation-weighted |psi_k|^2, and k / n_x.
    power = np.einsum("a,ak->k", weights, np.abs(np.fft.fft(psi, axis=1)) ** 2)
    k = grid.wavenumbers / grid.n_x
    kinetic = 0.5 * hb**2 * float(np.sum(k * k * power))
    momentum = hb / grid.n_x * float(np.sum(k * power))
    if internal_energy is not None:
        kinetic += float(np.mean(internal_energy(n)))
    return field_energy(n, grid), kinetic, float(np.mean(n)), momentum


# qfluid calls _wave_diagnostics, not this: a profiler that swaps a timed
# wrapper in for hartree.diagnostics (as perfbench's tracer does) then
# times Hartree work only.
def diagnostics(streams: StreamSet):
    """Box-averaged (field energy, kinetic energy, mass, momentum)."""
    return _wave_diagnostics(streams)
