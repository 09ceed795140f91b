"""Dielectric functions of the four model families and complex-frequency
root finding with the Landau contour prescription.

Normalized units throughout: omega in omega_p, k in 1/lambda_F, velocities
in v_F, equilibrium densities in n0.  In these units the pole shift of the
quantum kinetic dielectric is hbar k / 2m -> H K / 4 and the recoil term
hbar^2 k^4 / 4 m^2 -> H^2 K^4 / 16.

The Landau rule: the velocity integrals are evaluated on the real axis for
Im(omega) > 0 and continued downwards by the log branch of the subtracted
pole (see _pole_integral).  For equilibria given in closed form the
continuation of f0 to complex v is exact; the result is trusted only for
|Im omega| <= 0.5 |Re omega| and flagged otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .equilibria import WATERBAG, Equilibrium1D, StreamSpec

VLASOV_KINETIC = "vlasov"
WIGNER_KINETIC = "wigner"
MULTISTREAM = "multistream"
QUANTUM_FLUID = "fluid"

_ROOT_TOL = 1e-10  # |eps| at which solve_root has converged


@dataclass(frozen=True)
class DielectricModel:
    """A tagged choice of dielectric function epsilon(K, omega).

    kind: vlasov | wigner | multistream | fluid.
    Kinetic kinds carry an Equilibrium1D, the multistream kind a StreamSpec;
    the fluid kind uses eps_fluid's default closure, the 1D degenerate one.
    The vlasov kind is classical and takes only H = 0.
    """

    kind: str
    equilibrium: Optional[Equilibrium1D] = None
    streams: Optional[StreamSpec] = None
    H: float = 0.0

    def __post_init__(self):
        if self.kind not in (VLASOV_KINETIC, WIGNER_KINETIC, MULTISTREAM,
                             QUANTUM_FLUID):
            raise ValueError(f"unknown dielectric kind {self.kind!r}")
        if self.H < 0:
            raise ValueError("H must be nonnegative")
        if self.kind == VLASOV_KINETIC and self.H != 0.0:
            raise ValueError("the vlasov model is classical: H must be 0")
        if self.kind in (VLASOV_KINETIC, WIGNER_KINETIC) and self.equilibrium is None:
            raise ValueError(f"{self.kind} model requires an equilibrium")
        if self.kind == MULTISTREAM and self.streams is None:
            raise ValueError("multistream model requires a StreamSpec")

    def eps(self, k: float, omega: complex) -> complex:
        if self.kind == VLASOV_KINETIC:
            return eps_vlasov(k, omega, self.equilibrium)
        if self.kind == WIGNER_KINETIC:
            return eps_wigner(k, omega, self.equilibrium, self.H)
        if self.kind == MULTISTREAM:
            return eps_multistream(k, omega, self.streams, self.H)
        return eps_fluid(k, omega, H=self.H)


@dataclass(frozen=True)
class DispersionRoot:
    k: float
    omega: complex
    residual: float
    iterations: int
    continuation_trusted: bool = True


def _pole_integral(g, w: complex, k: float, v_lo: float, v_hi: float) -> complex:
    """Landau-continued integral of g(v) / (w - k v) over [v_lo, v_hi], for
    g callable on complex v and k > 0: with v0 = w / k, (1/k) [int (g(v) -
    g(v0)) / (v0 - v) dv + g(v0) L], L = log((v0 - v_lo) / (v0 - v_hi)),
    so quad sees a bounded integrand.  The Landau rule is L's branch: less
    2 pi i below the axis (beyond the support, the residue of a cut tail
    such as fd3d_projected's), and Im L = -pi on the axis inside the
    support, whatever the sign of a zero imaginary part.  g(v0) = 0 skips
    L, so a real pole on a support edge stays finite; where g(v0) != 0 the
    integral diverges there and raises ZeroDivisionError.

    quad calls the integrand on Python floats, about 31k times for one
    finite-temperature root, so g must take a number without numpy's
    per-call cost: `Equilibrium1D.f0` and `df0` evaluate numbers with
    `math`/`cmath`.
    """
    v0 = complex(w) / k
    g0 = complex(g(v0))
    if g0 and v0.imag == 0.0 and v0.real in (v_lo, v_hi):
        raise ZeroDivisionError(
            f"evaluation point sits on the support edge v = {v0.real!r}, "
            f"where g = {g0.real!r} is not 0: the integral diverges "
            "logarithmically")
    # Bounded, with limit -g'(v0) at v = v0.  A node exactly at a real v0
    # takes 0 there instead of dividing by zero; quad's error estimate sees
    # that one value and bisects until v0 is an end point, where no rule
    # evaluates.
    subtracted = lambda v: (g(v) - g0) / (v0 - v) if v != v0 else 0j
    val, _ = quad(subtracted, v_lo, v_hi, complex_func=True,
                  limit=200, epsabs=1e-13, epsrel=1e-11)
    if g0:
        log = cmath.log((v0 - v_lo) / (v0 - v_hi))
        if v0.imag < 0.0 or (v_lo < v0.real < v_hi and log.imag >= 0.0):
            log -= 2j * math.pi
        val += g0 * log
    return val / k


def eps_vlasov(k: float, omega: complex, eq: Equilibrium1D) -> complex:
    """Semiclassical kinetic dielectric, 1 + (1/K) int f0'(v) / (omega - K v) dv."""
    if k <= 0:
        raise ValueError("k must be positive")
    if eq.kind == WATERBAG:
        # Distributional derivative evaluates in closed form.
        return 1.0 - 1.0 / (omega**2 - k ** 2)
    edge = eq.support
    return 1.0 + _pole_integral(eq.df0, omega, k, -edge, edge) / k


def eps_wigner(k: float, omega: complex, eq: Equilibrium1D,
               H: float) -> complex:
    """Quantum kinetic dielectric with recoil-shifted poles,
    1 - int f0 / [(omega - K v)^2 - (H K^2 / 4)^2] dv, split in partial
    fractions so that the Landau rule applies per shifted frequency:
    1 - [I(omega - a) - I(omega + a)] / 2a, with a = H K^2 / 4 and
    I(w) = int f0 / (w - K v) dv taken by _pole_integral, for every profile.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if H == 0.0:
        return eps_vlasov(k, omega, eq)
    a = H * k**2 / 4.0
    edge = eq.support
    i_minus = _pole_integral(eq.f0, omega - a, k, -edge, edge)
    i_plus = _pole_integral(eq.f0, omega + a, k, -edge, edge)
    return 1.0 - (i_minus - i_plus) / (2.0 * a)


def eps_multistream(k: float, omega: complex, spec: StreamSpec,
                    H: float) -> complex:
    """Cold-stream mixture dielectric,
    1 - sum_a p_a / [(omega - K u_a)^2 - H^2 K^4 / 16]."""
    if k <= 0:
        raise ValueError("k must be positive")
    p = np.asarray(spec.probabilities)
    u = np.asarray(spec.velocities)
    denom = (omega - k * u) ** 2 - (H * k**2 / 4.0) ** 2
    if np.any(denom == 0.0):
        raise ZeroDivisionError("evaluation point sits on a stream pole")
    return complex(1.0 - np.sum(p / denom))


def eps_fluid(k: float, omega: complex, gamma: float = 3.0,
              v0_sq: float = 1.0 / 3.0, H: float = 0.0) -> complex:
    """Polytropic fluid dielectric,
    1 - 1 / (omega^2 - gamma K^2 v0^2 - H^2 K^4 / 16)."""
    if k <= 0:
        raise ValueError("k must be positive")
    return 1.0 - 1.0 / (omega**2 - gamma * k**2 * v0_sq - (H * k**2 / 4.0) ** 2)


def fluid_omega_sq(k: float, gamma: float = 3.0, v0_sq: float = 1.0 / 3.0,
                   H: float = 0.0) -> float:
    """Closed-form root of the fluid dielectric:
    omega^2 = 1 + gamma K^2 v0^2 + H^2 K^4 / 16."""
    return 1.0 + gamma * k**2 * v0_sq + (H * k**2 / 4.0) ** 2


def solve_root(model: DielectricModel, k: float,
               guess: Optional[complex] = None) -> DispersionRoot:
    """Newton iteration on epsilon(K, omega) = 0 with a numerically
    differenced complex derivative.

    Starts from the Bohm-Gross-like guess omega^2 = 1 + K^2 unless a guess
    is supplied.  Converges when |epsilon| < 1e-10, or when the Newton
    step stagnates below 1e-10 |omega| while |epsilon| is already below
    1e-7, within a few quadrature noise floors of zero (adaptive
    integration limits the attainable residual for finite-temperature
    backgrounds).  Raises ArithmeticError after 100 iterations.
    """
    if guess is None:
        omega = complex(math.sqrt(1.0 + k**2))
    else:
        omega = complex(guess)
    if omega.real <= 0:
        raise ValueError("initial guess must have positive real part")

    residual = float("inf")
    for iteration in range(1, 101):
        val = model.eps(k, omega)
        residual = abs(val)
        if residual < _ROOT_TOL:
            break
        h = 1e-7 * max(abs(omega), 1e-3)
        dval = (model.eps(k, omega + h) - model.eps(k, omega - h)) / (2.0 * h)
        if dval == 0.0:
            raise ArithmeticError(f"flat dielectric at omega={omega}")
        step = val / dval
        # damp absurd steps far from the linear regime
        if abs(step) > 0.5 * abs(omega):
            step *= 0.5 * abs(omega) / abs(step)
        omega = omega - step
        if abs(step) < _ROOT_TOL * abs(omega) and residual < 1e3 * _ROOT_TOL:
            residual = abs(model.eps(k, omega))
            break
    else:
        raise ArithmeticError(
            f"root iteration did not converge at K={k}: residual={residual:.3e}")

    return DispersionRoot(
        k=k, omega=omega, residual=residual, iterations=iteration,
        continuation_trusted=abs(omega.imag) <= 0.5 * abs(omega.real),
    )


def _least_squares(columns, b):
    """Coefficients x minimizing |sum_j x_j columns[j] - b|, by modified
    Gram-Schmidt on the columns scaled to unit norm (the small-K basis so
    scaled has condition number 46), with b taken as one more column.
    Only elementwise products and sums: the first LAPACK call in a process
    (numpy.linalg, or @ on 2-D arrays) costs 0.15-1 MB of resident
    memory."""
    scales = [math.sqrt(np.sum(c * c)) for c in columns]
    q = [c / s for c, s in zip(columns, scales)]
    n = len(q)
    r = [[0.0] * n for _ in range(n)]
    rhs = []
    for j in range(n):
        for i in range(j):
            r[i][j] = float(np.sum(q[i] * q[j]))
            q[j] = q[j] - r[i][j] * q[i]
        r[j][j] = math.sqrt(np.sum(q[j] * q[j]))
        q[j] = q[j] / r[j][j]
        rhs.append(float(np.sum(q[j] * b)))
        b = b - rhs[j] * q[j]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (rhs[i] - sum(r[i][j] * x[j] for j in range(i + 1, n))) / r[i][i]
    return [xi / s for xi, s in zip(x, scales)]


def smallk_coefficients(model: DielectricModel, k_min: float = 0.02,
                        k_max: float = 0.2, n_k: int = 25):
    """Fit omega^2(K) = c0 + c2 K^2 + c4 K^4 to a k_scan's roots on a
    log-spaced K grid.

    A K^6 nuisance term is carried in the basis so that the next order of
    the expansion does not bias c4; only (c0, c2, c4) are returned, plus
    the rms misfit of omega^2.  Raises if that misfit exceeds 1e-6
    (expansion not valid on the requested range).
    """
    ks = np.geomspace(k_min, k_max, n_k)
    omega_sq = np.array([root.omega.real**2 for root in k_scan(model, ks)])
    basis = [np.ones_like(ks), ks**2, ks**4, ks**6]
    coeffs = _least_squares(basis, omega_sq)
    fit = sum(c * column for c, column in zip(coeffs, basis))
    resid = float(np.sqrt(np.mean((fit - omega_sq) ** 2)))
    if resid > 1e-6:
        raise ArithmeticError(f"small-K fit residual {resid:.3e} exceeds 1.0e-06")
    return coeffs[0], coeffs[1], coeffs[2], resid


def k_scan(model: DielectricModel, k_values):
    """Roots along a K scan, warm-starting each solve from the previous root.

    The first solve starts from solve_root's default guess.  Each warm
    start is shifted by the Bohm-Gross increment between consecutive K
    values so it tracks the plasmon branch instead of falling into the
    continuum when K grows quickly.
    """
    roots = []
    guess = None
    k_prev = None
    for k in k_values:
        if roots:
            shift = math.sqrt(1.0 + k**2) - math.sqrt(1.0 + k_prev**2)
            guess = roots[-1].omega + shift
        root = solve_root(model, k, guess=guess)
        roots.append(root)
        k_prev = k
    return roots
