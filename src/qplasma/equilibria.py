"""Equilibrium velocity distributions, plane-wave mixtures and their
discrete Wigner transforms.

Everything here works in normalized units (v in v_F, densities in n0)
unless a function explicitly takes SI arguments.  The normalized Planck
constant is hbar_eff = H / 2, where H = hbar * omega_p / E_F: in units
(lambda_F, v_F, 1/omega_p) one has hbar / (m v_F lambda_F) =
hbar omega_p / (m v_F^2) = H / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .constants import BOLTZMANN, HBAR
from .fields import PhaseSpaceGrid, SpatialGrid

WATERBAG = "waterbag1d"
PROJECTED_FD_T0 = "fd3d_projected_T0"
PROJECTED_FD = "fd3d_projected"


def hbar_eff(H: float) -> float:
    """Normalized Planck constant in (lambda_F, v_F, 1/omega_p) units."""
    return 0.5 * H


def _softplus(z):
    """log(1 + exp(z)), overflow-safe, valid for complex z as well."""
    z = np.asarray(z)
    log1p = np.log1p if not np.iscomplexobj(z) else (lambda w: np.log(1.0 + w))
    big = np.real(z) > 30.0
    return np.where(big, z + log1p(np.exp(-np.where(big, z, 0.0))),
                    log1p(np.exp(np.where(big, 0.0, z))))


def _logistic(z):
    """1 / (1 + exp(-z)), overflow-safe for complex z."""
    z = np.asarray(z)
    big = np.real(z) > 0.0
    ez = np.exp(np.where(big, -z, z))
    return np.where(big, 1.0 / (1.0 + ez), ez / (1.0 + ez))


@dataclass(frozen=True)
class Equilibrium1D:
    """Homogeneous 1D velocity distribution f0(v), normalized to density n0.

    `kind` is one of waterbag1d / fd3d_projected_T0 / fd3d_projected.
    Velocities are in units of v_F, the distribution in units of n0 / v_F.
    For the finite-temperature projected distribution, `t_over_tf` and the
    solved chemical potential `mu` (in units of E_F) are set.
    """

    kind: str
    n0: float = 1.0
    v_f: float = 1.0
    t_over_tf: float = 0.0
    mu: float = float("nan")

    def f0(self, v):
        """Evaluate the distribution; accepts real arrays or complex scalars
        (analytic continuation, used by the Landau-contour integrals)."""
        v = np.asarray(v)
        if self.kind == WATERBAG:
            return np.where(np.abs(v) <= self.v_f,
                            self.n0 / (2.0 * self.v_f), 0.0)
        if self.kind == PROJECTED_FD_T0:
            inside = np.abs(v) <= self.v_f
            prof = 0.75 * self.n0 / self.v_f * (1.0 - (v / self.v_f) ** 2)
            return np.where(inside, prof, 0.0)
        if self.kind == PROJECTED_FD:
            t = self.t_over_tf
            z = (self.mu - (v / self.v_f) ** 2) / t
            return 0.75 * self.n0 / self.v_f * t * _softplus(z)
        raise ValueError(f"unknown equilibrium kind {self.kind!r}")

    def df0(self, v):
        """df0/dv, analytic inside the support (complex-capable)."""
        v = np.asarray(v)
        if self.kind == WATERBAG:
            raise ValueError("water-bag derivative is distributional; "
                             "use the closed-form dielectric instead")
        if self.kind == PROJECTED_FD_T0:
            inside = np.abs(v) <= self.v_f
            return np.where(inside, -1.5 * self.n0 * v / self.v_f**3, 0.0)
        if self.kind == PROJECTED_FD:
            t = self.t_over_tf
            z = (self.mu - (v / self.v_f) ** 2) / t
            return -1.5 * self.n0 * v / self.v_f**3 * _logistic(z)
        raise ValueError(f"unknown equilibrium kind {self.kind!r}")

    @property
    def support(self) -> float:
        """Velocity beyond which f0 is zero or negligible (< 1e-300 n0/v_F)."""
        if self.kind in (WATERBAG, PROJECTED_FD_T0):
            return self.v_f
        t = self.t_over_tf
        return self.v_f * math.sqrt(max(self.mu, 0.0) + 700.0 * t)


def waterbag_1d(n0: float = 1.0, v_f: float = 1.0) -> Equilibrium1D:
    """Flat-top distribution n0 / (2 v_F) on |v| <= v_F: the 1D
    zero-temperature Fermi-Dirac profile."""
    if n0 <= 0 or v_f <= 0:
        raise ValueError("n0 and v_f must be positive")
    return Equilibrium1D(kind=WATERBAG, n0=n0, v_f=v_f)


def fermi_velocity_1d(n0: float, mass: float) -> float:
    """1D Fermi velocity v_F = pi hbar n0 / (2 m) (SI)."""
    if n0 <= 0:
        raise ValueError("n0 must be positive")
    return 0.5 * math.pi * HBAR * n0 / mass


def projected_fd_zero_t(n0: float = 1.0, v_f: float = 1.0) -> Equilibrium1D:
    """3D zero-temperature Fermi sphere projected on one velocity axis:
    (3/4)(n0/v_F)(1 - v^2/v_F^2) on |v| <= v_F."""
    if n0 <= 0 or v_f <= 0:
        raise ValueError("n0 and v_f must be positive")
    return Equilibrium1D(kind=PROJECTED_FD_T0, n0=n0, v_f=v_f)


def _projected_fd_density(mu: float, t: float) -> float:
    """Velocity integral of the finite-T projected profile at unit n0, v_F."""
    vcut = math.sqrt(max(mu, 0.0) + 60.0 * t)
    val, _ = quad(lambda v: 0.75 * t * float(np.real(_softplus((mu - v * v) / t))),
                  -vcut, vcut, limit=200, epsabs=1e-13, epsrel=1e-12)
    return val


def projected_fd_finite_t(n0: float = 1.0, t_over_tf: float = 0.05,
                          v_f: float = 1.0) -> Equilibrium1D:
    """Finite-temperature projected Fermi-Dirac profile,
    (3/4)(n0/v_F)(T/T_F) ln[1 + exp((mu - v^2) / (T/T_F))] with energies
    in units of E_F.  The chemical potential is solved from the density
    constraint to 1e-10 relative.
    """
    if not (0.0 < t_over_tf <= 1.0):
        raise ValueError("t_over_tf must lie in (0, 1]")
    if n0 <= 0 or v_f <= 0:
        raise ValueError("n0 and v_f must be positive")
    t = t_over_tf
    lo, hi = -10.0 * t, 2.0
    flo = _projected_fd_density(lo, t) - 1.0
    fhi = _projected_fd_density(hi, t) - 1.0
    if flo * fhi > 0.0:
        raise ArithmeticError(
            f"chemical-potential bracket [{lo}, {hi}] does not enclose the "
            f"density constraint (residuals {flo:.3e}, {fhi:.3e})")
    mu = brentq(lambda m: _projected_fd_density(m, t) - 1.0, lo, hi,
                xtol=1e-14, rtol=1e-12)
    return Equilibrium1D(kind=PROJECTED_FD, n0=n0, v_f=v_f,
                         t_over_tf=t_over_tf, mu=mu)


def make_equilibrium(name: str, t_over_tf: float = 0.0) -> Equilibrium1D:
    """Equilibrium factory keyed by the scenario-config names."""
    if name == WATERBAG:
        return waterbag_1d()
    if name == PROJECTED_FD_T0:
        return projected_fd_zero_t()
    if name == PROJECTED_FD:
        return projected_fd_finite_t(t_over_tf=t_over_tf)
    raise ValueError(f"unknown equilibrium {name!r}")


@dataclass(frozen=True)
class StreamSpec:
    """Occupation probabilities and drift velocities of a discrete mixture."""

    probabilities: tuple
    velocities: tuple
    raw_occupations: tuple = ()

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        u = np.asarray(self.velocities, dtype=float)
        if p.size == 0:
            raise ValueError("empty stream list")
        if p.size != u.size:
            raise ValueError("probabilities and velocities differ in length")
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if not np.isclose(p.sum(), 1.0, rtol=0, atol=1e-12):
            raise ValueError("probabilities must sum to 1")
        if len(set(u.tolist())) != u.size:
            raise ValueError("stream velocities must be distinct")


def fd_stream_occupations(t_over_tf: float, mu: float, velocities) -> StreamSpec:
    """Fermi-Dirac occupations p_a = 1 / (1 + exp((eps_a - mu) / T)) with
    eps_a = u_a^2 (energies in E_F), renormalized to sum to 1.

    t_over_tf = 0 gives the sharp step occupation.  The raw values are
    kept in `raw_occupations`.
    """
    u = np.asarray(velocities, dtype=float)
    if u.size == 0:
        raise ValueError("empty velocity list")
    eps = u**2
    if t_over_tf == 0.0:
        raw = np.where(eps < mu, 1.0, np.where(eps == mu, 0.5, 0.0))
    else:
        raw = np.real(_logistic((mu - eps) / t_over_tf))
    total = raw.sum()
    if total == 0.0:
        raise ValueError("all occupations vanish; no stream below mu")
    return StreamSpec(probabilities=tuple(raw / total), velocities=tuple(u),
                      raw_occupations=tuple(raw))


@dataclass
class StreamSet:
    """N complex wavefunctions on the spatial grid with occupations.

    Wavefunctions are normalized so that sum_a p_a |psi_a|^2 averages to
    n0 = 1 over the box (the box volume is folded into |psi|^2, so a
    uniform stream has |psi| = 1 everywhere).
    """

    grid: SpatialGrid
    psi: np.ndarray          # shape (N, n_x), complex
    probabilities: np.ndarray
    H: float

    @property
    def n_streams(self) -> int:
        return self.psi.shape[0]

    def density(self) -> np.ndarray:
        return np.einsum("a,ax->x", self.probabilities, np.abs(self.psi) ** 2)


def plane_wave_mixture(spec: StreamSpec, grid: SpatialGrid, H: float,
                       n0: float = 1.0) -> StreamSet:
    """Uniform-density plane-wave streams psi_a = sqrt(n0) exp(i u_a x / hbar_eff).

    Each velocity must be commensurate with the box: u_a L / (2 pi hbar_eff)
    an integer, otherwise the wavefunction is not periodic.
    """
    hb = hbar_eff(H)
    if hb <= 0:
        raise ValueError("H must be positive for a wavefunction mixture")
    u = np.asarray(spec.velocities, dtype=float)
    mode = u * grid.length / (2.0 * np.pi * hb)
    bad = np.abs(mode - np.round(mode)) > 1e-9
    if np.any(bad):
        raise ValueError(
            f"non-commensurate stream velocities {u[bad]} for L={grid.length}, "
            f"hbar_eff={hb} (u L / 2 pi hbar_eff must be integer)")
    x = grid.x
    psi = np.sqrt(n0) * np.exp(1j * np.outer(u, x) / hb)
    return StreamSet(grid=grid, psi=psi,
                     probabilities=np.asarray(spec.probabilities, dtype=float),
                     H=H)


def commensurate_velocity_lattice(grid: SpatialGrid, H: float,
                                  v_cut: float) -> np.ndarray:
    """All box-commensurate stream velocities with |u| <= v_cut."""
    du = 2.0 * np.pi * hbar_eff(H) / grid.length
    j_max = int(math.floor(v_cut / du))
    return du * np.arange(-j_max, j_max + 1)


def wigner_of_mixture(streams: StreamSet, grid: PhaseSpaceGrid) -> np.ndarray:
    """Discrete Wigner transform of a mixture onto the phase-space grid.

    Uses the lambda grid dual to the v grid (lambda_m = m * 2 pi hbar_eff /
    (n_v dv)) and periodic spectral interpolation of psi at x +- lambda/2.
    The result is real up to round-off and its v-integral equals the
    mixture density pointwise (exact by construction of the dual grid).
    """
    if streams.grid != grid.spatial:
        raise ValueError("stream set and phase-space grid use different x grids")
    hb = hbar_eff(streams.H)
    n_x, n_v = grid.spatial.n_x, grid.n_v
    dv = grid.dv
    dlam = 2.0 * np.pi * hb / (n_v * dv)
    lam = np.fft.fftfreq(n_v, d=1.0 / n_v) * dlam  # FFT ordering

    q = grid.spatial.wavenumbers  # (n_x,)
    # psi(x + lam/2) for all lam: inverse FFT of psi_hat * exp(i q lam / 2)
    psi_hat = np.fft.fft(streams.psi, axis=-1)  # (N, n_x)
    shift = np.exp(0.5j * np.outer(lam, q))     # (n_v, n_x)
    psi_plus = np.fft.ifft(psi_hat[:, None, :] * shift[None, :, :], axis=-1)
    psi_minus = np.fft.ifft(psi_hat[:, None, :] * np.conj(shift)[None, :, :],
                            axis=-1)
    corr = np.einsum("a,alx->lx", streams.probabilities,
                     np.conj(psi_plus) * psi_minus)  # g(lambda, x)

    # f(v_j, x) = (dlam / 2 pi hb) sum_m g(lam_m, x) exp(i v_j lam_m / hb)
    # with v_j = -v_max + j dv this is an inverse DFT times a v-dependent phase.
    phase = np.exp(1j * (-grid.v_max) * lam / hb)  # (n_v,)
    f = np.fft.ifft(corr * phase[:, None], axis=0) * n_v * dlam / (2.0 * np.pi * hb)
    return np.real(f)


@dataclass(frozen=True)
class Perturbation:
    """Cosine density perturbation of relative amplitude alpha at wavenumber k."""

    alpha: float
    k: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.k <= 0:
            raise ValueError("k must be positive")

    def modulation(self, grid: SpatialGrid) -> np.ndarray:
        """1 + alpha cos kx on the grid; k must be an integer multiple of
        2 pi / L, otherwise the perturbation is not periodic."""
        mode = self.k * grid.length / (2.0 * np.pi)
        if abs(mode - round(mode)) > 1e-9:
            raise ValueError(
                f"k={self.k} is not commensurate with the box L={grid.length}")
        return 1.0 + self.alpha * np.cos(self.k * grid.x)


def apply_cosine_perturbation(f0_values: np.ndarray, pert: Perturbation,
                              grid: PhaseSpaceGrid) -> np.ndarray:
    """f(x, v, 0) = f0(v) (1 + alpha cos k x) on the phase-space grid.

    f0_values may be a 1D profile (per v node) or a full (n_v, n_x) field.
    k must be an integer multiple of 2 pi / L.
    """
    modulation = pert.modulation(grid.spatial)
    f0_values = np.asarray(f0_values, dtype=float)
    if f0_values.ndim == 1:
        return np.outer(f0_values, modulation)
    return f0_values * modulation[None, :]
