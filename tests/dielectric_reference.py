"""Reference dielectric functions for the tests (not collected by pytest).

The library takes the Wigner dielectric in one form for every profile, the
pole form of `qplasma.dispersion.eps_wigner`.  The forms here are
independent routes to the same function: a difference form, the
delta-comb limit and closed forms for the compact profiles.  Normalized
units as in `qplasma.dispersion`.
"""

import cmath
import math

import numpy as np

from qplasma.dispersion import _pole_integral


def eps_wigner_shifted(k, omega, eq, H):
    """Finite-difference-in-v form of the Wigner dielectric,
    1 + (2 / H K^2) int [f0(v + HK/4) - f0(v - HK/4)] / (omega - K v) dv,
    with the Landau rule of `_pole_integral`.

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
    return 1.0 + 2.0 / (H * k**2) * _pole_integral(g, omega, k,
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
