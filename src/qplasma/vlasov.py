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
  zero rows, zero coefficients beyond them).  Each column is gathered with
  its own four weights, one flat np.take per tap in the [i_v, i_x] layout;
  a tap beyond the stored rows reads a zero, so the cost does not depend
  on how far or how unevenly the columns move.

advect_v takes the coefficients, the gather index and a product buffer
from a scratch set cached per grid, so it allocates little beyond the array
it returns.  It is therefore not reentrant across threads; the library is
single-threaded.

Each kernel equals the 2D scipy.ndimage.map_coordinates interpolation with
the same modes to round-off; tests/test_vlasov.py keeps that interpolation
as the reference.  The two half streams of a step are kept separate: two
spline half-shifts are not one full shift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import spline_filter1d

from .equilibria import Equilibrium1D, Perturbation
from .fields import (PhaseSpaceGrid, field_energy, moments, poisson_periodic,
                     spectral_derivative)

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


@functools.lru_cache(maxsize=4)
def _scratch(grid: PhaseSpaceGrid):
    """Work arrays reused by every advect_v call on `grid`: the spline
    coefficients with one zero row beyond each end, a flat gather index and
    one product buffer, all of them (rows, n_x)."""
    n_v, n_x = grid.n_v, grid.spatial.n_x
    return (np.zeros((n_v + 2 * _PREFILTER_PAD + 2, n_x)),
            np.empty((n_v, n_x), dtype=np.intp),
            np.empty((n_v, n_x)))


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
    coeffs, index, prod = _scratch(grid)
    foot = -accel * dt / grid.dv  # row offset of each column's foot
    first = np.floor(foot)
    weights = _spline_taps(foot - first)  # (4, n_x)
    # A foot this far out reads only zeros; clipping keeps the index
    # arithmetic small, and a non-finite acceleration keeps its non-finite
    # weights.
    first = np.clip(np.nan_to_num(first), -(n_v + pad + 2), n_v + pad + 1)
    # Velocity row r of the coefficients is stored at row r + pad + 1; rows
    # 0 and -1 stay zero.
    coeffs[:pad + 1] = 0.0
    coeffs[pad + 1:pad + 1 + n_v] = f
    coeffs[pad + 1 + n_v:] = 0.0
    box = coeffs[1:-1]
    spline_filter1d(box, axis=0, mode="grid-constant", output=box)
    # Flat index of tap 0 of out[j, i]: velocity row j + first[i] - 1 of
    # column i.  A tap above row 0 or below row -1 of the coefficients has
    # an index off the flat array; mode="clip" reads flat[0] or flat[-1]
    # in its place, both zero.
    np.add(np.arange(0, n_v * n_x, n_x)[:, None],
           (first.astype(np.intp) + pad) * n_x + np.arange(n_x), out=index)
    flat = coeffs.reshape(-1)
    out = np.take(flat, index, mode="clip", out=np.empty((n_v, n_x)))
    out *= weights[0]
    for q in range(1, 4):
        index += n_x
        out += np.multiply(np.take(flat, index, mode="clip", out=prod),
                           weights[q], out=prod)
    return out


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
    n, flux, second = moments(state.f, state.grid)
    return (field_energy(n, state.grid.spatial), 0.5 * float(np.mean(second)),
            float(np.mean(n)), float(np.mean(flux)))
