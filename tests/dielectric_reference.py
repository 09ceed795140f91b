"""Reference dielectric functions for the tests (not collected by pytest).

The library takes the Wigner dielectric in one form for every profile, the
pole form of `qplasma.dispersion.eps_wigner`.  The forms here are
independent routes to the same function: a difference form, the
delta-comb limit and closed forms for the compact profiles.  The
difference form takes its Landau integrals by the library's former rule,
`pole_integral_pv`.  `f0_numpy` and `df0_numpy` are the profiles as the
library evaluated them before it took numbers through `math`/`cmath`, with
numpy on 0-d values; `NumpyEquilibrium` hands them to the library's
dielectric functions.  Normalized units as in `qplasma.dispersion`.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from qplasma.equilibria import (PROJECTED_FD, PROJECTED_FD_T0, WATERBAG,
                                Equilibrium1D)

_IM_TINY = 1e-7  # |Im v0| below which the principal-value branch is used


def softplus_numpy(z):
    """log(1 + exp(z)), overflow-safe, valid for complex z as well."""
    z = np.asarray(z)
    log1p = np.log1p if not np.iscomplexobj(z) else (lambda w: np.log(1.0 + w))
    big = np.real(z) > 30.0
    return np.where(big, z + log1p(np.exp(-np.where(big, z, 0.0))),
                    log1p(np.exp(np.where(big, 0.0, z))))


def logistic_numpy(z):
    """1 / (1 + exp(-z)), overflow-safe for complex z."""
    z = np.asarray(z)
    big = np.real(z) > 0.0
    ez = np.exp(np.where(big, -z, z))
    return np.where(big, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def f0_numpy(eq, v):
    """`Equilibrium1D.f0` by numpy: real arrays or complex scalars, a
    scalar kept a numpy scalar (squared with pow(), an array with v * v)."""
    v = np.asarray(v)[()]
    if eq.kind == WATERBAG:
        return np.where(np.abs(np.real(v)) <= 1.0, 0.5, 0.0)
    if eq.kind == PROJECTED_FD_T0:
        return np.where(np.abs(np.real(v)) <= 1.0,
                        0.75 * (1.0 - v ** 2), 0.0)
    if eq.kind == PROJECTED_FD:
        t = eq.t_over_tf
        z = (eq.mu - v ** 2) / t
        return 0.75 * t * softplus_numpy(z)
    raise ValueError(f"unknown equilibrium kind {eq.kind!r}")


def df0_numpy(eq, v):
    """`Equilibrium1D.df0` by numpy, as f0_numpy."""
    v = np.asarray(v)[()]
    if eq.kind == WATERBAG:
        raise ValueError("water-bag derivative is distributional; "
                         "use the closed-form dielectric instead")
    if eq.kind == PROJECTED_FD_T0:
        return np.where(np.abs(np.real(v)) <= 1.0, -1.5 * v, 0.0)
    if eq.kind == PROJECTED_FD:
        t = eq.t_over_tf
        z = (eq.mu - v ** 2) / t
        return -1.5 * v * logistic_numpy(z)
    raise ValueError(f"unknown equilibrium kind {eq.kind!r}")


@dataclass(frozen=True)
class NumpyEquilibrium(Equilibrium1D):
    """An equilibrium whose f0 and df0 are f0_numpy and df0_numpy, for the
    library's dielectric functions to take the reference profile."""

    def f0(self, v):
        return f0_numpy(self, v)

    def df0(self, v):
        return df0_numpy(self, v)


def pole_integral_pv(g, w, k, v_lo, v_hi):
    """Landau-continued integral of g(v) / (w - k v) over [v_lo, v_hi], by
    the rule `qplasma.dispersion._pole_integral` used before it took the
    singularity subtraction: a Cauchy-weight principal value plus half the
    residue within _IM_TINY of the axis, else a quad split at Re v0 plus
    the full residue below the axis.

    g must be callable on complex arguments (analytic continuation of the
    real-axis profile).  The pole sits at v0 = w / k; k > 0 is the
    caller's check.
    """
    v0 = w / k
    v0r, v0i = float(np.real(v0)), float(np.imag(v0))
    inside = v_lo < v0r < v_hi

    def quad_cc(func, a, b, **kw):
        re, _ = quad(lambda v: float(np.real(func(v))), a, b,
                     limit=200, epsabs=1e-13, epsrel=1e-11, **kw)
        im, _ = quad(lambda v: float(np.imag(func(v))), a, b,
                     limit=200, epsabs=1e-13, epsrel=1e-11, **kw)
        return re + 1j * im

    if abs(v0i) <= _IM_TINY and inside:
        # Principal value plus the half/full-residue limit: the two one-sided
        # limits of the continued integral coincide with PV - (i pi / k) g(v0).
        pv = quad_cc(lambda v: g(v), v_lo, v_hi, weight="cauchy", wvar=v0r)
        return -pv / k - 1j * math.pi / k * complex(g(complex(v0r, v0i)))

    integrand = lambda v: g(v) / (w - k * v)
    if inside:
        val = quad_cc(integrand, v_lo, v0r) + quad_cc(integrand, v0r, v_hi)
    else:
        val = quad_cc(integrand, v_lo, v_hi)
    if v0i < 0.0:
        val -= 2j * math.pi / k * complex(g(v0))
    return val


def eps_wigner_shifted(k, omega, eq, H):
    """Finite-difference-in-v form of the Wigner dielectric,
    1 + (2 / H K^2) int [f0(v + HK/4) - f0(v - HK/4)] / (omega - K v) dv,
    with the Landau rule of `pole_integral_pv`, so that it shares no code
    with the library's rule.

    Use it off the real axis only.  On the axis adaptive `quad` loses the
    steps of a compact profile inside the principal value: on `waterbag1d`
    at K=1.8, omega=1.9, H=0.7 it is 1.03e-4 off the closed form, and on
    `fd3d_projected_T0` 2.42e-8 (the pole form: 2e-16).  Off the axis the
    kinks of a compact profile at |v| = 1 - HK/4 still cost it up to 3e-7
    (`fd3d_projected_T0`, K=1.9, omega/K=1.5-0.5i, H=0.7).  On the smooth
    `fd3d_projected` it stays within 3.4e-12 of the pole form.
    """
    s = H * k / 4.0
    edge = eq.support
    g = lambda v: eq.f0(v + s) - eq.f0(v - s)
    return 1.0 + 2.0 / (H * k**2) * pole_integral_pv(g, omega, k,
                                                     -edge - s, edge + s)


def eps_delta_comb(k, omega, spec, H):
    """Shifted-pole difference form for a delta-comb equilibrium,
    1 + (2 / H K^2) sum_a p_a [1 / (omega - K(u_a - s))
                               - 1 / (omega - K(u_a + s))]
    with s = HK/4: analytically identical to eps_multistream, but assembled
    from the two displaced poles separately."""
    s = H * k / 4.0
    p = np.asarray(spec.probabilities)
    u = np.asarray(spec.velocities)
    terms = 1.0 / (omega - k * (u - s)) - 1.0 / (omega - k * (u + s))
    return complex(1.0 + 2.0 / (H * k**2) * np.sum(p * terms))


def landau_log(u):
    """L(u) = log((u + 1) / (u - 1)) = int_{-1}^{1} dv / (u - v), continued
    from the upper half-plane.  A real u is the limit from above; below the
    axis the cut on -1 < Re u < 1 is crossed, which subtracts 2 pi i."""
    u = complex(u)
    val = cmath.log((u + 1.0) / (u - 1.0))
    if abs(u.real) < 1.0 and u.imag == 0.0:
        return complex(val.real, -math.pi)
    if abs(u.real) < 1.0 and u.imag < 0.0:
        return val - 2j * math.pi
    return val


def eps_wigner_waterbag(k, omega, H):
    """Closed-form Wigner dielectric of the water-bag f0 = 1/2 on [-1, 1]:
    1 - [L(u-) - L(u+)] / 4aK, with a = HK^2/4 and u-+ = (omega -+ a) / K."""
    a = H * k**2 / 4.0
    return 1.0 - (landau_log((omega - a) / k)
                  - landau_log((omega + a) / k)) / (4.0 * a * k)


def eps_vlasov_t0(k, omega):
    """Closed-form Vlasov dielectric of fd3d_projected_T0,
    f0 = (3/4)(1 - v^2) on [-1, 1]: 1 + 3/K^2 - (3 omega / 2K^3) L(omega/K)."""
    return (1.0 + 3.0 / k**2
            - 1.5 * omega / k**3 * landau_log(omega / k))


def pole_integral_t0(w, k):
    """int f0 / (w - K v) dv for fd3d_projected_T0 in closed form,
    (3/4K) [2u + (1 - u^2) L(u)] with u = w/K."""
    u = w / k
    return 0.75 / k * (2.0 * u + (1.0 - u * u) * landau_log(u))


def eps_wigner_t0(k, omega, H):
    """Pole form of the Wigner dielectric of fd3d_projected_T0 with the
    closed-form integrals, 1 - [I(omega - a) - I(omega + a)] / 2a."""
    a = H * k**2 / 4.0
    return 1.0 - (pole_integral_t0(omega - a, k)
                  - pole_integral_t0(omega + a, k)) / (2.0 * a)


def use_numpy_profiles(monkeypatch):
    """Make the library evaluate its profiles as it did before numbers went
    through `math`/`cmath`: f0, df0 and the chemical-potential and
    occupation helpers by the numpy bodies above."""
    from qplasma import equilibria
    monkeypatch.setattr(Equilibrium1D, "f0", f0_numpy)
    monkeypatch.setattr(Equilibrium1D, "df0", df0_numpy)
    monkeypatch.setattr(equilibria, "_softplus", softplus_numpy)
    monkeypatch.setattr(equilibria, "_logistic", logistic_numpy)
