"""Equilibrium velocity distributions, plane-wave mixtures and their
discrete Wigner transforms.

Everything here works in normalized units (v in v_F, densities in n0)
unless a function explicitly takes SI arguments.  The normalized Planck
constant is hbar_eff = H / 2, where H = hbar * omega_p / E_F: in units
(lambda_F, v_F, 1/omega_p) one has hbar / (m v_F lambda_F) =
hbar omega_p / (m v_F^2) = H / 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fields import PhaseSpaceGrid, SpatialGrid

# The flat top 1/2 on |v| <= 1: the 1D zero-temperature Fermi-Dirac profile.
WATERBAG = "waterbag1d"
# The 3D zero-temperature Fermi sphere projected on one velocity axis:
# (3/4)(1 - v^2) on |v| <= 1.
PROJECTED_FD_T0 = "fd3d_projected_T0"
PROJECTED_FD = "fd3d_projected"


def hbar_eff(H: float) -> float:
    """Normalized Planck constant in (lambda_F, v_F, 1/omega_p) units."""
    return 0.5 * H


def _softplus(z):
    """log(1 + exp(z)) of a real array, overflow-safe."""
    big = z > 30.0
    return np.where(big, z + np.log1p(np.exp(-np.where(big, z, 0.0))),
                    np.log1p(np.exp(np.where(big, 0.0, z))))


def _logistic(z):
    """1 / (1 + exp(-z)) of a real array, overflow-safe."""
    big = z > 0.0
    ez = np.exp(np.where(big, -z, z))
    return np.where(big, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _softplus_number(z):
    """_softplus of one float or complex, by the branches numpy takes on a
    0-d value: log1p of a float, log(1 + w) of a complex."""
    if isinstance(z, complex):
        if z.real > 30.0:
            return z + cmath.log(1.0 + cmath.exp(-z))
        return cmath.log(1.0 + cmath.exp(z))
    if z > 30.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def _logistic_number(z):
    """_logistic of one float or complex, split on the sign of Re z."""
    exp = cmath.exp if isinstance(z, complex) else math.exp
    if z.real > 0.0:
        return 1.0 / (1.0 + exp(-z))
    ez = exp(z)
    return ez / (1.0 + ez)


@dataclass(frozen=True)
class Equilibrium1D:
    """Homogeneous 1D velocity distribution f0(v) of unit density.

    `kind` is one of waterbag1d / fd3d_projected_T0 / fd3d_projected.
    Velocities are in units of v_F, the distribution in units of n0 / v_F,
    so the Fermi velocity and the density are both 1.  For the
    finite-temperature projected distribution, `t_over_tf` and the solved
    chemical potential `mu` (in units of E_F) are set.  Both the kind and
    these two are checked when the profile is built.
    """

    kind: str
    t_over_tf: float = 0.0
    mu: float = float("nan")

    def __post_init__(self):
        if self.kind not in (WATERBAG, PROJECTED_FD_T0, PROJECTED_FD):
            raise ValueError(f"unknown equilibrium kind {self.kind!r}")
        if self.kind == PROJECTED_FD and not (
                0.0 < self.t_over_tf <= 1.0 and math.isfinite(self.mu)):
            raise ValueError(f"{PROJECTED_FD} needs t_over_tf in (0, 1] and "
                             "a finite mu: use projected_fd_finite_t")

    def f0(self, v):
        """Evaluate the distribution at a number or on a real array.

        One body serves both.  A number, float or complex (numpy scalars
        included), takes the `math`/`cmath` helpers, and a Python number in
        gives a Python number out: the Landau-contour integrals take f0 at
        thousands of numbers per integral, where numpy's per-call cost
        would dominate.  Complex numbers are the analytic continuation.  An
        array takes the numpy helpers and must be real.  A compact profile
        continues as its inner polynomial wherever Re v lies in the
        support, so a number's support test reads Re v and returns 0.0
        beyond it before the polynomial is evaluated; an array's is an
        np.where on |v|.  numpy squares an array as v * v and a number
        with pow(); the two can differ in the last bit.
        """
        number = isinstance(v, (float, complex))
        if not number:
            v = np.asarray(v)
        if self.kind == PROJECTED_FD:
            t = self.t_over_tf
            softplus = _softplus_number if number else _softplus
            return 0.75 * t * softplus((self.mu - v ** 2) / t)
        # `not <=`: a NaN lies outside the support, as in np.where below.
        if number and not abs(v.real) <= 1.0:
            return 0.0
        value = 0.5 if self.kind == WATERBAG else 0.75 * (1.0 - v ** 2)
        return value if number else np.where(np.abs(v) <= 1.0, value, 0.0)

    def df0(self, v):
        """df0/dv, analytic inside the support; numbers and real arrays
        through one body, as in f0."""
        if self.kind == WATERBAG:
            raise ValueError("water-bag derivative is distributional; "
                             "use the closed-form dielectric instead")
        number = isinstance(v, (float, complex))
        if not number:
            v = np.asarray(v)
        if self.kind == PROJECTED_FD:
            t = self.t_over_tf
            logistic = _logistic_number if number else _logistic
            return -1.5 * v * logistic((self.mu - v ** 2) / t)
        if number and not abs(v.real) <= 1.0:
            return 0.0
        slope = -1.5 * v
        return slope if number else np.where(np.abs(v) <= 1.0, slope, 0.0)

    @property
    def support(self) -> float:
        """Velocity beyond which f0 is zero or negligible (< 1e-300 n0/v_F)."""
        if self.kind in (WATERBAG, PROJECTED_FD_T0):
            return 1.0
        t = self.t_over_tf
        return math.sqrt(max(self.mu, 0.0) + 700.0 * t)


# Panel rule of the chemical-potential solve: the 20-point Gauss-Legendre
# rule on [-1, 1], as (node, weight) for the nodes > 0; the rule is even.
# These are numpy.polynomial.legendre.leggauss(20) written out, because
# computing them is a LAPACK call, whose first use in a process costs about
# 0.7 MB of resident memory.
_GL_HALF = np.array([
    (0.07652652113349734, 0.15275338713072628),
    (0.22778585114164507, 0.14917298647260424),
    (0.37370608871541955, 0.1420961093183824),
    (0.5108670019508271, 0.1316886384491769),
    (0.636053680726515, 0.1181945319615186),
    (0.7463319064601508, 0.1019301198172407),
    (0.8391169718222188, 0.08327674157670471),
    (0.912234428251326, 0.06267204833410879),
    (0.9639719272779138, 0.040601429800386446),
    (0.993128599185095, 0.017614007139150893),
])
_GL_NODES = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))
_MU_MAX_STEPS = 50  # Newton steps before the chemical-potential solve gives up
_MU_STEP_TOL = 1e-13  # Newton step (in E_F) at which mu has converged


def _edge_graded_nodes(edge: float, width: float, vcut: float):
    """Composite Gauss-Legendre nodes and weights on [0, vcut].  The panels
    next to `edge` are `width` wide and double in width away from it, so a
    sharp edge costs O(log 1/width) panels."""
    steps = width * (2.0 ** np.arange(64.0) - 1.0)  # 0, w, 3w, 7w, ...
    left = edge - steps[steps < edge]
    right = edge + steps[1:]
    breaks = np.concatenate(([0.0], left[::-1], right[right < vcut], [vcut]))
    half = 0.5 * np.diff(breaks)
    mid = breaks[:-1] + half
    return ((mid[:, None] + half[:, None] * _GL_NODES).ravel(),
            (half[:, None] * _GL_WEIGHTS).ravel())


def projected_fd_finite_t(t_over_tf: float = 0.05) -> Equilibrium1D:
    """Finite-temperature projected Fermi-Dirac profile,
    (3/4)(n0/v_F)(T/T_F) ln[1 + exp((mu - v^2) / (T/T_F))] with energies
    in units of E_F.

    The chemical potential solves the density constraint n(mu) = 1 to
    round-off, by Newton steps kept inside the bracket [-10 T, 2 E_F]
    (bisection when a step leaves it).  n and dn/dmu are sums over fixed
    nodes on [0, vcut], the profile being even in v.  The nodes are built
    once, graded toward the Fermi edge v = sqrt(mu) of the Sommerfeld
    guess mu = 1 - (pi^2/12) t^2, where the profile changes over
    min(t / (2 sqrt(mu)), sqrt(t)); the solve moves that edge by O(t^2),
    far less than that width.
    """
    if not (0.0 < t_over_tf <= 1.0):
        raise ValueError("t_over_tf must lie in (0, 1]")
    t = t_over_tf
    mu = 1.0 - (math.pi ** 2 / 12.0) * t * t
    edge = math.sqrt(max(mu, 0.0))
    v, w = _edge_graded_nodes(edge, t / max(2.0 * edge, math.sqrt(t)),
                              math.sqrt(max(mu, 0.0) + 60.0 * t))

    def residual(m: float):
        """n(m) - 1 and dn/dm."""
        z = (m - v * v) / t
        return (1.5 * t * np.dot(w, _softplus(z)) - 1.0,
                1.5 * np.dot(w, _logistic(z)))

    lo, hi = -10.0 * t, 2.0
    flo, fhi = residual(lo)[0], residual(hi)[0]
    if flo * fhi > 0.0:
        raise ArithmeticError(
            f"chemical-potential bracket [{lo}, {hi}] does not enclose the "
            f"density constraint (residuals {flo:.3e}, {fhi:.3e})")
    mu = min(max(mu, lo), hi)
    for _ in range(_MU_MAX_STEPS):
        f, slope = residual(mu)
        if f < 0.0:
            lo = mu
        else:
            hi = mu
        new = mu - f / slope
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        step, mu = new - mu, float(new)
        if abs(step) <= _MU_STEP_TOL:
            return Equilibrium1D(kind=PROJECTED_FD, t_over_tf=t_over_tf, mu=mu)
    raise ArithmeticError(
        f"chemical-potential Newton solve did not converge in {_MU_MAX_STEPS} "
        f"steps at t_over_tf={t_over_tf} (last step {step:.3e}, "
        f"bracket [{lo!r}, {hi!r}])")


def make_equilibrium(name: str, t_over_tf: float = 0.0) -> Equilibrium1D:
    """Equilibrium factory keyed by the scenario-config names."""
    if name == PROJECTED_FD:
        return projected_fd_finite_t(t_over_tf=t_over_tf)
    return Equilibrium1D(kind=name)


@dataclass(frozen=True)
class StreamSpec:
    """Occupation probabilities and drift velocities of a discrete mixture."""

    probabilities: tuple
    velocities: tuple

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

    t_over_tf = 0 gives the sharp step occupation.
    """
    u = np.asarray(velocities, dtype=float)
    if u.size == 0:
        raise ValueError("empty velocity list")
    # An energy, or its ratio to T, past the float range is infinite, and
    # the step or _logistic takes it to its limit, 0 or 1.
    with np.errstate(over="ignore"):
        eps = u**2
        if t_over_tf == 0.0:
            raw = np.where(eps < mu, 1.0, np.where(eps == mu, 0.5, 0.0))
        else:
            raw = _logistic((mu - eps) / t_over_tf)
    total = raw.sum()
    if total == 0.0:
        raise ValueError("all occupations vanish; no stream below mu")
    return StreamSpec(probabilities=tuple(raw / total), velocities=tuple(u))


def stream_lattice_spec(n_streams: int, t_over_tf: float, H: float,
                        length: float) -> StreamSpec:
    """Fermi-Dirac occupations (unit Fermi energy) of the symmetric stream
    velocities j 2 pi hbar_eff / length, j != 0 for an even count; raises
    ValueError when the spacing leaves every stream unoccupied."""
    du = 2.0 * np.pi * hbar_eff(H) / length
    js = [j for j in range(-(n_streams // 2), n_streams // 2 + 1)
          if j != 0 or n_streams % 2]
    return fd_stream_occupations(t_over_tf, 1.0, tuple(du * j for j in js))


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


def plane_wave_mixture(spec: StreamSpec, grid: SpatialGrid,
                       H: float) -> StreamSet:
    """Uniform unit-density plane-wave streams psi_a = exp(i u_a x / hbar_eff).

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
    psi = np.exp(1j * np.outer(u, x) / hb)
    return StreamSet(grid=grid, psi=psi,
                     probabilities=np.asarray(spec.probabilities, dtype=float),
                     H=H)


def wigner_of_mixture(streams: StreamSet, grid: PhaseSpaceGrid) -> np.ndarray:
    """Discrete Wigner transform of a mixture onto the phase-space grid.

    Uses the lambda grid dual to the v grid (lambda_m = m * 2 pi hbar_eff /
    (n_v dv)) and periodic spectral interpolation of psi at x +- lambda/2.
    The correlation obeys g(-lambda, x) = conj(g(lambda, x)), so only the
    rows lambda >= 0 are built, one stream at a time, and the v transform
    is an irfft: the result is real and its v-integral equals the mixture
    density pointwise (exact by construction of the dual grid).
    """
    if streams.grid != grid.spatial:
        raise ValueError("stream set and phase-space grid use different x grids")
    hb = hbar_eff(streams.H)
    n_v = grid.n_v
    dlam = 2.0 * np.pi * hb / (n_v * grid.dv)
    lam = dlam * np.arange(n_v // 2 + 1)

    # psi(x +- lam/2) for all lam: inverse FFT of psi_hat * exp(+-i q lam / 2)
    shift = np.exp(0.5j * np.outer(lam, grid.spatial.wavenumbers))
    corr = np.zeros(shift.shape, dtype=complex)  # g(lambda, x)
    for p, psi_hat in zip(streams.probabilities,
                          np.fft.fft(streams.psi, axis=-1)):
        psi_plus = np.fft.ifft(psi_hat * shift, axis=-1)
        psi_minus = np.fft.ifft(psi_hat * np.conj(shift), axis=-1)
        corr += p * np.conj(psi_plus) * psi_minus

    # f(v_j, x) = (dlam / 2 pi hb) sum_m g(lam_m, x) exp(i v_j lam_m / hb)
    # with v_j = -v_max + j dv this is an inverse DFT times a v-dependent phase.
    corr *= np.exp(1j * (-grid.v_max) * lam / hb)[:, None]
    return np.fft.irfft(corr, n=n_v, axis=0) * (n_v * dlam / (2.0 * np.pi * hb))


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

