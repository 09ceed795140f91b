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
  zero rows, zero coefficients beyond them).  They are held transposed,
  indexed [i_x, i_v], so the prefilter runs along the contiguous axis and
  each column of f is one contiguous row of coefficients.  The n_v + 3
  coefficients a column's taps read are copied into a window indexed
  [i_v, i_x], one slice per run of columns whose feet share a floor, and
  the four taps are summed from the window straight into the result in
  one einsum pass over a sliding-window view of it.  A run whose foot
  lies beyond the padding reads clipped indices, the zero ends of its
  rows, so a tap beyond the box reads a zero however far or unevenly the
  columns move.

A step keeps its intermediates in two flat complex work arrays cached per
grid, which wigner.step shares: A holds only spectra, here the rfft
spectrum of a half stream; B holds the mid-step f as a real view, which
the first half stream writes and the acceleration overwrites.  The last
half stream returns a new array, the next state.  advect_v's coefficients
and window are cached per grid on their own, so a Wigner run never builds
them.  A step therefore allocates little beyond the array it returns, and
none of this is reentrant across threads; the library is single-threaded.

Each kernel equals the 2D scipy.ndimage.map_coordinates interpolation with
the same modes to round-off; tests/test_vlasov.py keeps that interpolation
as the reference.  The two half streams of a step are kept separate: two
spline half-shifts are not one full shift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .equilibria import Equilibrium1D, Perturbation
from .fields import (PhaseSpaceGrid, field_energy, poisson_periodic,
                     spectral_derivative)

# Zero rows scipy.ndimage puts on each side of the velocity axis before the
# "grid-constant" spline prefilter; the coefficients depend on this count.
_PREFILTER_PAD = 12

# scipy.ndimage's spline prefilter, bound by _v_scratch when advect_v first
# runs, so that a Wigner, Hartree or fluid run never loads scipy.ndimage.
spline_filter1d = None


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
    """Two flat complex work arrays of the phase-space steps on `grid`, each
    large enough for an rfft of an (n_v, n_x) field over either axis.  A
    holds only spectra; B holds the mid-step f of a step (as a real view)
    and wigner's kick factor."""
    n_v, n_x = grid.n_v, grid.spatial.n_x
    size = max((n_v // 2 + 1) * n_x, n_v * (n_x // 2 + 1))
    return np.empty(size, dtype=complex), np.empty(size, dtype=complex)


def _work(grid: PhaseSpaceGrid, which: int, shape, dtype=complex):
    """A `shape` view of `dtype` at the start of work array A (0) or B (1)."""
    return _scratch(grid)[which].view(dtype)[:math.prod(shape)].reshape(shape)


@functools.lru_cache(maxsize=4)
def _v_scratch(grid: PhaseSpaceGrid):
    """advect_v's own arrays on `grid`: the spline coefficients indexed
    [i_x, i_v], with one zero column beyond each end, the window of
    n_v + 3 coefficients each column's taps read, indexed [i_v, i_x], and
    the taps as a read-only view of it, taps[q, i_x, i_v] =
    window[i_v + q, i_x]."""
    global spline_filter1d
    from scipy.ndimage import spline_filter1d
    n_v, n_x = grid.n_v, grid.spatial.n_x
    window = np.empty((n_v + 3, n_x))
    return (np.zeros((n_x, n_v + 2 * _PREFILTER_PAD + 2)), window,
            sliding_window_view(window, n_v, axis=0))


def advect_x(f: np.ndarray, grid: PhaseSpaceGrid, dt: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """Free streaming: f(x, v) <- f(x - v dt, v), periodic in x; the result
    goes to `out` when given, else to a new array."""
    n_x = grid.spatial.n_x
    fhat = np.fft.rfft(f, axis=1, out=_work(grid, 0, (grid.n_v, n_x // 2 + 1)))
    fhat *= _x_shift_table(grid, dt)
    return np.fft.irfft(fhat, n=n_x, axis=1, out=out)


def advect_v(f: np.ndarray, grid: PhaseSpaceGrid, accel: np.ndarray,
             dt: float, out: np.ndarray | None = None) -> np.ndarray:
    """Acceleration: f(x, v) <- f(x, v - a(x) dt), zero outside the box;
    the result goes to `out` when given (it may be `f`), else to a new
    array."""
    n_v, n_x = f.shape
    pad = _PREFILTER_PAD
    coeffs, window, taps = _v_scratch(grid)
    foot = -accel * dt / grid.dv  # row offset of each column's foot
    first = np.floor(foot)
    weights = _spline_taps(foot - first)  # (4, n_x)
    # A foot this far out reads only zeros; clipping keeps the index
    # arithmetic small, and a non-finite acceleration keeps its non-finite
    # weights.
    first = np.clip(np.nan_to_num(first), -(n_v + pad + 2), n_v + pad + 1)
    # Velocity row r of column i is stored at coeffs[i, r + pad + 1];
    # columns 0 and -1 stay zero.  f is copied in before anything is
    # written, so `out` may be `f`.
    coeffs[:, 1:pad + 1] = 0.0
    coeffs[:, pad + 1:pad + 1 + n_v] = f.T
    coeffs[:, pad + 1 + n_v:-1] = 0.0
    box = coeffs[:, 1:-1]
    spline_filter1d(box, axis=1, mode="grid-constant", output=box)
    # Tap q of velocity row j of column i is coeffs[i, start[i] + j + q],
    # so window[j + q, i] holds it.  Columns of equal start are copied by
    # runs, one slice each.  A run whose window leaves the row (a foot
    # beyond the padding) reads clipped indices, the zero end columns.
    start = first.astype(np.intp) + pad
    cuts = [0, *(np.flatnonzero(np.diff(start)) + 1).tolist(), n_x]
    for lo, hi, s in zip(cuts, cuts[1:], start[cuts[:-1]].tolist()):
        if 0 <= s < 2 * pad:
            window[:, lo:hi] = coeffs[lo:hi, s:s + n_v + 3].T
        else:
            window[:, lo:hi] = np.take(coeffs[lo:hi], range(s, s + n_v + 3),
                                       axis=1, mode="clip").T
    # One pass over the taps, taps[q, i, j] = window[j + q, i].  Plain
    # einsum runs numpy's own loops, no BLAS call and no thread, and adds
    # the four products in the order q = 0 .. 3, the bits of a multiply-add
    # loop over the taps.
    if out is None:
        out = np.empty((n_v, n_x))
    return np.einsum("qij,qi->ji", taps, weights, out=out)


def step(state: VlasovState, dt: float) -> VlasovState:
    """One Strang-split step; second order in dt."""
    grid = state.grid
    # The mid-step f lives in work array B; the last half stream returns a
    # new array, the next state.
    mid = _work(grid, 1, state.f.shape, float)
    f = advect_x(state.f, grid, 0.5 * dt, out=mid)
    phi = poisson_periodic(np.sum(f, axis=0) * grid.dv, grid.spatial)
    accel = spectral_derivative(phi, grid.spatial)
    f = advect_v(f, grid, accel, dt, out=mid)
    f = advect_x(f, grid, 0.5 * dt)
    if not np.all(np.isfinite(f)):
        raise FloatingPointError("non-finite values in f")
    return VlasovState(f, grid)


def diagnostics(state: VlasovState):
    """Box-averaged (field energy, kinetic energy, mass, momentum).  The
    column sums of f times dv are moments' density n; the row sums of f
    times (dv / n_x) v^2/2 and (dv / n_x) v are the kinetic energy and the
    momentum, the box averages of moments' second moment / 2 and flux."""
    f, grid = state.f, state.grid
    n = np.sum(f, axis=0) * grid.dv
    field = field_energy(n, grid.spatial)
    v = grid.v
    flux = np.sum(f, axis=1) * (grid.dv / grid.spatial.n_x) * v
    return (field, 0.5 * float(np.sum(flux * v)), float(np.mean(n)),
            float(np.sum(flux)))
