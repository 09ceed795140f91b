"""Periodic grids, the spectral Poisson solve, the field energy and velocity
moments.

All solver-facing quantities are in normalized units: x in Fermi screening
lengths, v in Fermi velocities, t in inverse plasma frequencies, potential
in m v_F^2 / e.  In these units Poisson's equation for the electron gas on
a neutralizing background reads  phi'' = n - 1  and the acceleration in the
kinetic equations is +phi'.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# A grid's arrays are built at their first read and shared by every reader
# after it, so none may write to them.
@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid of length `length` with `n_x` points."""

    length: float
    n_x: int

    def __post_init__(self):
        if self.n_x < 8:
            raise ValueError("n_x must be at least 8")
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n_x

    @functools.cached_property
    def x(self) -> np.ndarray:
        return _read_only(np.arange(self.n_x) * self.dx)

    @functools.cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers matching numpy's FFT ordering."""
        return _read_only(2.0 * np.pi * np.fft.fftfreq(self.n_x, d=self.dx))

    @functools.cached_property
    def rfft_wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers of numpy's rfft modes, 0 to the Nyquist one."""
        return _read_only(2.0 * np.pi * np.fft.rfftfreq(self.n_x, d=self.dx))


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Tensor grid: periodic in x, uniform and truncated in v.

    Velocity nodes are v_j = -v_max + j dv (n_v even), the FFT-dual layout
    required by the Wigner transform: the node at +v_max is omitted and the
    grid contains v = 0 exactly.  Quadrature over v is the rectangle rule
    with weight dv, spectrally consistent with the dual lambda grid.
    """

    spatial: SpatialGrid
    v_max: float
    n_v: int

    def __post_init__(self):
        if self.n_v % 2 != 0 or self.n_v < 8:
            raise ValueError("n_v must be even and at least 8")
        if self.v_max <= 0:
            raise ValueError("v_max must be positive")

    @property
    def dv(self) -> float:
        return 2.0 * self.v_max / self.n_v

    @functools.cached_property
    def v(self) -> np.ndarray:
        return _read_only(-self.v_max + np.arange(self.n_v) * self.dv)


def spectral_derivative(values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """d/dx of a periodic field, exact for band-limited data."""
    return np.fft.irfft(1j * grid.rfft_wavenumbers * np.fft.rfft(values),
                        n=grid.n_x)


def _check_neutral(mean: float) -> None:
    """Raises ValueError unless the mean density is n0 = 1 to 1e-10, and
    FloatingPointError if it is not finite."""
    if not np.isfinite(mean):  # a NaN mean fails no comparison
        raise FloatingPointError(f"non-finite mean density {mean}")
    excess = mean - 1.0
    if abs(excess) > 1e-10:
        raise ValueError(
            f"non-neutral box: mean density deviates from n0 by {excess:.3e}"
        )


def _charge_spectrum(density: np.ndarray) -> np.ndarray:
    """rfft of density - 1, once _check_neutral passes its mean."""
    _check_neutral(float(np.mean(density)))
    return np.fft.rfft(density - 1.0)


def poisson_periodic(density: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Zero-mean phi with phi'' = density - 1 on a neutral periodic box."""
    rho_hat = _charge_spectrum(density)
    k = grid.rfft_wavenumbers
    phi_hat = np.zeros_like(rho_hat)
    phi_hat[1:] = -rho_hat[1:] / k[1:] ** 2
    return np.fft.irfft(phi_hat, n=grid.n_x)


@functools.lru_cache(maxsize=8)
def _field_weights(grid: SpatialGrid) -> np.ndarray:
    """1 / (k n_x)^2 on the rfft modes 0 < k < n_x/2, else 0."""
    k = 2.0 * np.pi * grid.n_x * np.fft.rfftfreq(grid.n_x, d=grid.dx)
    weights = np.zeros_like(k)
    weights[1:(grid.n_x + 1) // 2] = 1.0 / k[1:(grid.n_x + 1) // 2] ** 2
    return _read_only(weights)


def field_energy(density: np.ndarray, grid: SpatialGrid) -> float:
    """1/2 <E^2> of the field a neutral density drives, by Parseval: the sum
    over 0 < k < n_x/2 of |rho_k|^2 / (k n_x)^2, rho_k the rfft of density
    - 1 (the x-Nyquist mode, which spectral_derivative drops, left out)."""
    return _spectrum_field_energy(_charge_spectrum(density), grid)


def _spectrum_field_energy(rho_hat: np.ndarray, grid: SpatialGrid) -> float:
    """field_energy from the rfft of the density, or of density - 1: the
    k = 0 mode, where the two differ, has weight 0."""
    return float(np.sum(np.abs(rho_hat) ** 2 * _field_weights(grid)))


def moments(f: np.ndarray, grid: PhaseSpaceGrid):
    """Density n, flux int f v dv and second moment int f v^2 dv of f(x, v)
    by midpoint quadrature; f is indexed [i_v, i_x].

    Density positivity is not assumed: Wigner fields may integrate to
    locally negative contributions.  The pressure (unit mass) is
    second - flux^2 / n.
    """
    v = grid.v[:, None]
    dv = grid.dv
    n = np.sum(f, axis=0) * dv
    flux = np.sum(f * v, axis=0) * dv
    second = np.sum(f * v**2, axis=0) * dv
    return n, flux, second
