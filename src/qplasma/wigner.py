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

The phase difference is odd in lam and f is real, so the kicked transform
keeps the symmetry g(x, -lam) = conj(g(x, lam)): the kick works on the
n_v/2 + 1 rows lam >= 0 of an rfft over v and returns by irfft (Suh, Feix
& Bertrand, J. Comput. Phys. 94, 403, 1991).  The unpaired Nyquist row is
left unkicked so f stays real.

The kick factor exp(i theta) comes from one transcendental per node.  The
kick computes half the phase directly (halving is exact, so the aliasing
warning still sees the whole phase), takes t = tan(theta/2) and forms
cos theta = 2/(1 + t^2) - 1 and sin theta = 2t/(1 + t^2).  On an AVX-512
host numpy 2.4 runs a float64 tan as one vectorised loop but cos and sin
as scalar loops, so the factor costs about a third of the cos and sin
pair.  It matches them within a few ulp of 1, and the rows lam = 0 and
Nyquist stay exactly 1.

The tables that depend only on the grid and H (the spectral shift
2i sin(k lam/2) on the nodes lam >= 0) or on the grid and dt (the
streaming phases exp(-i k v dt)) are built once and kept, read-only, in
small functools.lru_cache helpers.

A step keeps its spectra, mid-step f and kick factor in the two work
arrays per grid that the vlasov module owns and vlasov.step shares
(vlasov._work), so it allocates little beyond the array it returns; like
vlasov.step it is not reentrant across threads.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .equilibria import Equilibrium1D, Perturbation, hbar_eff
from .fields import PhaseSpaceGrid, poisson_periodic
from . import vlasov as _vlasov


@dataclass
class WignerState(_vlasov.VlasovState):
    """Real phase-space field f indexed [i_v, i_x], with quantum scale H."""

    H: float


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
    return WignerState(_vlasov.initial_state(grid, eq, perturbation).f, grid, H)


def from_phase_space_field(f: np.ndarray, grid: PhaseSpaceGrid,
                           H: float) -> WignerState:
    return WignerState(np.array(f, dtype=float), grid, H)


@functools.lru_cache(maxsize=4)
def _stream_table(grid: PhaseSpaceGrid, dt: float) -> np.ndarray:
    """Phase shift exp(-i k v dt), indexed [i_v, k], of an rfft over x."""
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.spatial.n_x, d=grid.spatial.dx)
    table = np.exp(-1j * k[None, :] * grid.v[:, None] * dt)
    table.flags.writeable = False
    return table


def advect_x(f: np.ndarray, grid: PhaseSpaceGrid, dt: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """Exact free streaming: phase shift exp(-i k v dt) per velocity row,
    written to `out` when given, else to a new array."""
    n_x = grid.spatial.n_x
    fhat = np.fft.rfft(f, axis=1,
                       out=_vlasov._work(grid, 0, (grid.n_v, n_x // 2 + 1)))
    fhat *= _stream_table(grid, dt)
    return np.fft.irfft(fhat, n=n_x, axis=1, out=out)


@functools.lru_cache(maxsize=4)
def _kick_shift(grid: PhaseSpaceGrid, H: float) -> np.ndarray:
    """Indexed [lam, k], on the nodes lam >= 0 (rows 0 .. n_v/2 of an rfft
    over v) and the rfft wavenumbers of x, the multiplier 2i sin(k lam/2)
    that maps the transform of phi to phi(x + lam/2) - phi(x - lam/2)."""
    # The Nyquist node -lam_max is taken at +lam_max; the phase difference
    # is odd in lam, so only its sign changes.
    lam = np.abs(lambda_nodes(grid, H)[:grid.n_v // 2 + 1])
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.spatial.n_x, d=grid.spatial.dx)
    shift = 2j * np.sin(0.5 * k[None, :] * lam[:, None])
    shift.flags.writeable = False
    return shift


def potential_kick(f: np.ndarray, grid: PhaseSpaceGrid, H: float, dt: float,
                   phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the full nonlocal force step for the frozen self-consistent
    electrostatic potential phi (particle potential energy -phi); the
    result goes to `out` when given, else to a new array."""
    # half[lam, x] = (dt / 2 hbar_eff) [phi(x - lam/2) - phi(x + lam/2)],
    # half the kick phase; halving is exact, so twice it is the phase.
    half = np.fft.irfft(np.fft.rfft(phi) * (-0.5 * dt / hbar_eff(H))
                        * _kick_shift(grid, H), n=grid.spatial.n_x, axis=1)
    max_phase = 2.0 * float(np.max(np.abs(half)))
    if max_phase > np.pi:
        warnings.warn(
            f"kick phase {max_phase:.2f} exceeds pi: dual-space aliasing "
            "likely; reduce dt or refine the velocity grid", RuntimeWarning)
    # The unpaired Nyquist mode must stay self-conjugate to keep f real;
    # leave it unkicked.
    half[-1] = 0.0
    # g is taken before the kick factor is written: f may be the mid-step
    # view of work array B, which the kick factor overwrites.
    g = np.fft.rfft(f, axis=0, out=_vlasov._work(grid, 0, half.shape))
    g *= _kick_factor(half, _vlasov._work(grid, 1, half.shape))
    return np.fft.irfft(g, n=grid.n_v, axis=0, out=out)


def _kick_factor(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(2i half) written to the complex array `out`, from one tan per
    node: with t = tan(half), cos 2 half = 2 / (1 + t^2) - 1 and
    sin 2 half = 2 t / (1 + t^2).  `half` is overwritten with t."""
    t = np.tan(half, out=half)
    r = np.multiply(t, t)
    r += 1.0
    np.divide(2.0, r, out=r)
    np.subtract(r, 1.0, out=out.real)
    np.multiply(t, r, out=out.imag)
    return out


def step(state: WignerState, dt: float) -> WignerState:
    """One Strang-split step: half stream, field solve, kick, half stream."""
    if state.H <= 0:
        raise ValueError("quantum transport requires H > 0")
    grid = state.grid
    # The mid-step f lives in work array B; the last half stream returns a
    # new array, the next state.
    mid = _vlasov._work(grid, 1, state.f.shape, float)
    f = advect_x(state.f, grid, 0.5 * dt, out=mid)
    phi = poisson_periodic(np.sum(f, axis=0) * grid.dv, grid.spatial)
    f = potential_kick(f, grid, state.H, dt, phi, out=mid)
    f = advect_x(f, grid, 0.5 * dt)
    if not np.all(np.isfinite(f)):
        raise FloatingPointError("non-finite values in f")
    return WignerState(f, state.grid, state.H)


# The diagnostics read only f and its grid, as for the classical model.
diagnostics = _vlasov.diagnostics
