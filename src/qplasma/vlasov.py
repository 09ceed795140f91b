"""Semi-Lagrangian solver for the collisionless kinetic equation coupled
to the periodic Poisson equation.

Time stepping is Strang splitting: a half step of free streaming in x, a
Poisson solve, a full acceleration step in v, and a second half stream.
Each sub-step is a backward characteristic trace evaluated with cubic
B-spline interpolation, periodic in x and zero beyond the velocity box.

Both sub-steps are shifts that are uniform along one axis, so neither needs
a 2D interpolation:

* Free streaming moves velocity row j by s_j = v_j dt / dx cells, periodic
  in x.  Periodic cubic-spline interpolation of a uniform shift is a
  circulant operator (Unser, Aldroubi & Eden, "B-spline signal
  processing", IEEE Trans. Signal Process. 41, 821, 1993), so a row moves
  by one multiply in Fourier space, T_j(theta) = H_j(theta) / B(theta).
  B(theta) = (4 + 2 cos theta) / 6 is the transform of the spline
  prefilter and H_j the transform of the four spline taps at the foot of
  the characteristic.  The table T depends only on the grid and dt and is
  cached.
* Acceleration moves column i by a(x_i) dt / dv cells in v.  Only the v
  direction needs spline coefficients; they are computed with the zero
  padding and boundary rule of scipy.ndimage's "grid-constant" mode (12
  zero rows, zero coefficients beyond them), and each column is gathered
  with its own four weights.

Each kernel equals the 2D scipy.ndimage.map_coordinates interpolation with
the same modes to round-off; tests/test_vlasov.py keeps that interpolation
as the reference.  The two half streams of a step are kept separate: two
spline half-shifts are not one full shift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import spline_filter1d

from .equilibria import Equilibrium1D, Perturbation
from .fields import PhaseSpaceGrid, poisson_periodic, spectral_derivative

# Zero rows scipy.ndimage puts on each side of the velocity axis before the
# "grid-constant" spline prefilter; the coefficients depend on this count.
_PREFILTER_PAD = 12


@dataclass
class VlasovState:
    """Distribution f indexed [i_v, i_x] on a phase-space grid."""

    f: np.ndarray
    grid: PhaseSpaceGrid


def initial_state(grid: PhaseSpaceGrid, eq: Equilibrium1D,
                  perturbation: Perturbation | None = None) -> VlasovState:
    """Sample the equilibrium on the velocity grid, optionally with a
    cosine density perturbation (commensurate with the box)."""
    profile = eq.f0(grid.v).real.astype(float)
    # Rectangle-rule density must equal 1 exactly, otherwise the periodic
    # Poisson problem has no solution; absorb the quadrature defect.  A
    # multiply by the reciprocal, not a division: the two differ in the
    # last bit, and initial states keep their bits.
    profile *= 1.0 / (np.sum(profile) * grid.dv)
    modulation = (np.ones(grid.spatial.n_x) if perturbation is None
                  else perturbation.modulation(grid.spatial))
    return VlasovState(np.outer(profile, modulation), grid)


def _spline_taps(offset: np.ndarray):
    """Cubic B-spline weights of the nodes floor(y) - 1 .. floor(y) + 2 for
    evaluation points y with y - floor(y) = offset; shape (4, *offset)."""
    t = offset
    s = 1.0 - t
    return np.stack([s**3 / 6.0, 2.0 / 3.0 - t * t + 0.5 * t**3,
                     2.0 / 3.0 - s * s + 0.5 * s**3, t**3 / 6.0])


@functools.lru_cache(maxsize=4)
def _x_shift_table(grid: PhaseSpaceGrid, dt: float) -> np.ndarray:
    """Fourier multiplier, indexed [i_v, k], that streams each velocity row
    of an rfft over x by v dt (periodic cubic-spline interpolation)."""
    n_x = grid.spatial.n_x
    foot = -grid.v * dt / grid.spatial.dx  # foot of row j's characteristic
    first = np.floor(foot)
    weights = _spline_taps(foot - first)  # (4, n_v)
    # Phases of the taps as whole multiples of 2 pi / n_x, reduced in
    # integers so a shift of many cells costs no accuracy.
    nodes = np.mod(first, n_x).astype(np.int64)[:, None]
    k = np.arange(n_x // 2 + 1)
    roots = np.exp(2j * np.pi * np.arange(n_x) / n_x)
    table = np.zeros((grid.n_v, k.size), dtype=complex)
    for q, w in zip(range(-1, 3), weights):
        table += w[:, None] * roots[((nodes + q) * k) % n_x]
    table /= (4.0 + 2.0 * np.cos(2.0 * np.pi * k / n_x)) / 6.0
    table.flags.writeable = False
    return table


def advect_x(f: np.ndarray, grid: PhaseSpaceGrid, dt: float) -> np.ndarray:
    """Free streaming: f(x, v) <- f(x - v dt, v), periodic in x."""
    fhat = np.fft.rfft(f, axis=1)
    fhat *= _x_shift_table(grid, dt)
    return np.fft.irfft(fhat, n=f.shape[1], axis=1)


def advect_v(f: np.ndarray, grid: PhaseSpaceGrid,
             accel: np.ndarray, dt: float) -> np.ndarray:
    """Acceleration: f(x, v) <- f(x, v - a(x) dt), zero outside the box."""
    n_v, n_x = f.shape
    pad = _PREFILTER_PAD
    foot = -accel * dt / grid.dv  # row offset of each column's foot
    first = np.floor(foot)
    weights = _spline_taps(foot - first)[:, :, None]  # (4, n_x, 1)
    # A foot this far out reads only zeros; clipping keeps the gather in
    # bounds, and a non-finite acceleration keeps its non-finite weights.
    first = np.clip(np.nan_to_num(first), -(n_v + pad + 2), n_v + pad + 1)
    # Coefficients with `margin` zero rows on each side of the velocity box,
    # so every clipped four-tap window fits.
    margin = n_v + pad + 3
    coeffs = np.zeros((n_v + 2 * margin, n_x))
    box = coeffs[margin - pad:margin + n_v + pad]
    box[pad:pad + n_v] = f
    spline_filter1d(box, axis=0, mode="grid-constant", output=box)
    windows = sliding_window_view(coeffs, n_v + 3, axis=0)
    g = windows[margin - 1 + first.astype(np.intp), np.arange(n_x)]  # [i_x, row]
    out = weights[0] * g[:, :n_v]
    for q in range(1, 4):
        out += weights[q] * g[:, q:q + n_v]
    return np.ascontiguousarray(out.T)


def step(state: VlasovState, dt: float) -> VlasovState:
    """One Strang-split step; second order in dt."""
    f = advect_x(state.f, state.grid, 0.5 * dt)
    phi = poisson_periodic(np.sum(f, axis=0) * state.grid.dv, state.grid.spatial)
    accel = spectral_derivative(phi, state.grid.spatial)
    f = advect_v(f, state.grid, accel, dt)
    f = advect_x(f, state.grid, 0.5 * dt)
    return VlasovState(f, state.grid)


def diagnostics(state: VlasovState):
    """Box-averaged (field energy, kinetic energy, mass, momentum)."""
    grid, f = state.grid, state.f
    v = grid.v[:, None]
    n = np.sum(f, axis=0) * grid.dv
    flux = np.sum(f * v, axis=0) * grid.dv
    phi = poisson_periodic(n, grid.spatial)
    efield = spectral_derivative(phi, grid.spatial)
    field_energy = 0.5 * float(np.mean(efield**2))
    kinetic = 0.5 * float(np.mean(np.sum(f * v**2, axis=0) * grid.dv))
    return field_energy, kinetic, float(np.mean(n)), float(np.mean(flux))
