"""Dielectric functions, Landau-contour root finding and the small-K
expansion coefficients of the longitudinal wave families."""

import warnings

import numpy as np
import pytest

from qplasma.dispersion import (MULTISTREAM, QUANTUM_FLUID, VLASOV_KINETIC,
                                WIGNER_KINETIC, DielectricModel,
                                eps_fluid, eps_multistream, eps_vlasov,
                                eps_wigner, fluid_omega_sq, k_scan,
                                smallk_coefficients, solve_root)
from qplasma.equilibria import (StreamSpec, projected_fd_finite_t,
                                projected_fd_zero_t, waterbag_1d)

from dielectric_reference import (NumpyEquilibrium, eps_delta_comb,
                                  eps_vlasov_t0, eps_wigner_shifted,
                                  eps_wigner_t0, eps_wigner_waterbag,
                                  pole_integral_pv, pole_integral_t0)

def random_points(n, seed=42, re_lo=0.3, re_hi=3.0, im_lo=0.05, im_hi=0.5):
    """Complex frequencies in the upper half plane plus wavenumbers;
    seeded per call so every test sees the same points regardless of
    execution order."""
    rng = np.random.default_rng(seed)
    k = rng.uniform(0.2, 2.0, n)
    w = rng.uniform(re_lo, re_hi, n) + 1j * rng.uniform(im_lo, im_hi, n)
    return k, w


class TestClassicalKinetic:
    def test_flat_top_closed_form_value(self):
        eq = waterbag_1d()
        val = eps_vlasov(0.5, 2.0 + 0j, eq)
        assert val == pytest.approx(1.0 - 1.0 / (4.0 - 0.25), abs=1e-14)

    def test_vacuum_limit(self):
        eq = projected_fd_zero_t()
        assert eps_vlasov(0.5, 1e4 + 0j, eq) == pytest.approx(1.0, abs=1e-6)

    def test_real_dielectric_beyond_the_support(self):
        # With no particles faster than the support edge, waves with larger
        # phase velocity see a purely real dielectric.
        eq = projected_fd_zero_t()
        val = eps_vlasov(1.0, 1.8 + 0j, eq)
        assert abs(val.imag) < 1e-10

    def test_damping_inside_the_support(self):
        eq = projected_fd_zero_t()
        val = eps_vlasov(1.0, 0.7 + 0j, eq)
        assert val.imag != pytest.approx(0.0, abs=1e-6)

    def test_reality_symmetry(self):
        # For a real equilibrium profile, eps(k, -conj(omega)) = conj(eps).
        eq = projected_fd_finite_t(t_over_tf=0.05)
        for k, w in zip(*random_points(5)):
            a = eps_vlasov(k, w, eq)
            b = eps_vlasov(k, -np.conj(w), eq)
            assert abs(b - np.conj(a)) < 1e-8


class TestQuantumKinetic:
    def test_zero_h_reduces_to_classical(self):
        eq = projected_fd_zero_t()
        for k, w in zip(*random_points(5)):
            assert abs(eps_wigner(k, w, eq, 0.0) - eps_vlasov(k, w, eq)) < 1e-10

    def test_flat_top_closed_form_vs_quadrature(self):
        eq = waterbag_1d()
        for k, w in zip(*random_points(5)):
            closed = eps_wigner_waterbag(k, w, 1.0)
            quad = eps_wigner(k, w, eq, 1.0)
            assert abs(closed - quad) < 1e-10

    def test_flat_top_closed_form_on_a_real_frequency(self):
        # Inside the recoil-shifted resonance band (the closed form's log
        # arguments are negative reals there) a float omega and the same
        # omega as a complex must give one value, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = eps_wigner(1.8, 1.9, waterbag_1d(), 0.7)
        assert val == eps_wigner(1.8, 1.9 + 0j, waterbag_1d(), 0.7)
        assert val == pytest.approx(0.98835 + 0.76955j, abs=1e-5)

    def test_pole_and_shifted_forms_agree(self):
        eq = projected_fd_zero_t()
        for k, w in zip(*random_points(5)):
            a = eps_wigner(k, w, eq, 0.7)
            b = eps_wigner_shifted(k, w, eq, 0.7)
            assert abs(a - b) < 1e-10

    def test_h_to_zero_continuity_is_quadratic(self):
        eq = projected_fd_zero_t()
        k, w = 0.8, 1.6 + 0.2j
        hs = np.array([0.4, 0.2, 0.1, 0.05])
        devs = np.array([abs(eps_wigner(k, w, eq, h) - eps_vlasov(k, w, eq))
                         for h in hs])
        slope = np.polyfit(np.log(hs), np.log(devs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    @pytest.mark.parametrize("H, re_omega", [(0.0, 0.9), (1.0, 1.15)])
    def test_continuation_is_continuous_across_the_unit_circle(self, H,
                                                               re_omega):
        # At K = 1 the Landau pole (omega - H/4) = 0.9 - ib crosses |v| = 1
        # between b = 0.435 and 0.44 with its real part inside the support.
        # The residue must not drop out there; it did while the support
        # test read |v|, and eps jumped by about 9.
        eq = projected_fd_zero_t()
        inner, outer = (eps_wigner(1.0, re_omega - 1j * b, eq, H)
                        for b in (0.435, 0.44))
        assert abs(outer - inner) < 0.2


# Phase velocities u = omega / K of the closed-form checks: the upper
# half-plane, the real axis inside and outside the support, and the lower
# half-plane with |Im omega| <= 0.5 Re omega.  The recoil shift is
# HK/4 <= 0.33 at H = 0.7.  At u = 1.02 - 0.3i one shifted pole has its
# real part inside the support and the other outside, so only one of them
# takes the Landau residue; the other points keep both on one side.
UPPER = (0.5 + 0.3j, 1.6 + 0.2j)
REAL_AXIS = (0.5, 1.7)
LOWER = (0.6 - 0.25j, 0.3 - 0.1j, 1.5 - 0.5j, 1.02 - 0.3j)
CLOSED_FORM_KS = (0.3, 0.7, 1.1, 1.5, 1.9)


def closed_form_points(us=UPPER + REAL_AXIS + LOWER):
    return [(k, k * u) for k in CLOSED_FORM_KS for u in us]


class TestClosedFormReferences:
    """The library's one Landau rule against the closed forms of the compact
    profiles, and against the shifted form at finite temperature: each
    within 1e-11 absolute."""

    def test_waterbag_wigner_matches_the_continued_closed_form(self):
        eq = waterbag_1d()
        err = max(abs(eps_wigner(k, w, eq, 0.7)
                      - eps_wigner_waterbag(k, w, 0.7))
                  for k, w in closed_form_points())
        assert err < 1e-11

    def test_projected_zero_t_vlasov_matches_the_closed_form(self):
        eq = projected_fd_zero_t()
        err = max(abs(eps_vlasov(k, w, eq) - eps_vlasov_t0(k, w))
                  for k, w in closed_form_points())
        assert err < 1e-11

    def test_projected_zero_t_wigner_matches_the_closed_form(self):
        eq = projected_fd_zero_t()
        err = max(abs(eps_wigner(k, w, eq, 0.7) - eps_wigner_t0(k, w, 0.7))
                  for k, w in closed_form_points())
        assert err < 1e-11

    def test_finite_temperature_wigner_matches_the_shifted_form(self):
        # No closed form here; the shifted form is an independent quadrature
        # of a smooth integrand, checked where the Landau rule acts: below
        # the axis.  (On the compact profiles its integrand has kinks at
        # |v| = 1 - HK/4, and quad misses them by up to 3e-7.)
        eq = projected_fd_finite_t(t_over_tf=0.01)
        err = max(abs(eps_wigner(k, w, eq, 0.7)
                      - eps_wigner_shifted(k, w, eq, 0.7))
                  for k, w in closed_form_points(LOWER)
                  if k in (0.3, 1.1, 1.9))
        assert err < 1e-11

    def test_finite_temperature_residue_beyond_the_support(self):
        # The profile is cut at e = sqrt(mu + 700 t), but its continuation
        # is not small below the axis: at T/T_F = 1e-4, f0(1.04 - 0.35i) is
        # about 0.03 + 0.55i.  A pole there, with Re v0 > e, takes the
        # Landau residue, which the references add by hand.
        eq = projected_fd_finite_t(t_over_tf=1e-4)
        edge = eq.support
        points = [(0.3, 0.3 * (1.04 - 0.35j)), (1.0, 1.2 - 0.5j)]
        err_vlasov = max(abs(eps_vlasov(k, w, eq) - 1.0
                             - pole_integral_pv(eq.df0, w, k, -edge, edge) / k)
                         for k, w in points)
        err_wigner = max(abs(eps_wigner(k, w, eq, 1.0)
                             - eps_wigner_shifted(k, w, eq, 1.0))
                         for k, w in points)
        assert max(err_vlasov, err_wigner) < 1e-11

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_zero_t_wigner_pole_on_the_support_edge(self, side):
        # omega = +-(K + a) puts one shifted pole exactly on v = +-1, where
        # f0 vanishes and that integral is +-3/2K in the limit of the
        # closed form.  K = 0.5, H = 1 keep the pole at +-1.0 to the bit.
        k, H = 0.5, 1.0
        a = H * k**2 / 4.0
        far = pole_integral_t0(side * (k + 2.0 * a), k)
        want = 1.0 - (1.5 / k - side * far) / (2.0 * a)
        got = eps_wigner(k, side * (k + a), projected_fd_zero_t(), H)
        assert abs(got - want) < 1e-11

    @pytest.mark.parametrize("evaluate, edge", [
        (lambda: eps_vlasov(0.5, 0.5, projected_fd_zero_t()), "1.0"),
        (lambda: eps_wigner(1.0, 1.25, waterbag_1d(), 1.0), "1.0"),
        (lambda: eps_wigner(1.0, -0.75, waterbag_1d(), 1.0), "-1.0")],
        ids=["vlasov-t0-upper", "wigner-waterbag-upper",
             "wigner-waterbag-lower"])
    def test_pole_on_a_support_edge_where_g_is_not_zero_is_named(
            self, evaluate, edge):
        # A real pole on the edge of the support of a g that does not
        # vanish there: the integral diverges like log|v0 - edge|.
        # (df0 = -3/2 at v = 1 on T0; f0 = 1/2 at v = +-1 on the water bag,
        # with H = 1 shifting the pole by a = 1/4.)
        with pytest.raises(ZeroDivisionError,
                           match=rf"support edge v = {edge}, .* diverges "
                                 "logarithmically"):
            evaluate()


class TestFiniteTemperaturePinnedValues:
    """eps_wigner on fd3d_projected (T/T_F = 0.01) on the real axis at
    phase velocities 3% inside and outside the Fermi edge, within 1e-11 of
    values computed once with mpmath 1.3.0 at 40 digits.  With the
    library's mu and support edge e, f0 = (3/4) t log1p(exp((mu - v^2)/t))
    and each shifted pole v0 = (omega -+ HK^2/4) / K, real and inside
    (-e, e), the script took

        sub = mp.quad(lambda v: (f0(v) - f0(v0)) / (v0 - v) if v != v0
                      else 0, sorted({-e, -r - 40 t, -r, -r + 40 t, v0,
                      r - 40 t, r, r + 40 t, e}), maxdegree=10)
        I(v0) = (sub + f0(v0) (log((v0 + e) / (e - v0)) - i pi)) / K

    with r = sqrt(mu), and eps = 1 - [I(v0-) - I(v0+)] / (HK^2/2).  At 60
    digits every value repeats to 25 digits.
    """

    @pytest.mark.parametrize("k, u, H, want", [
        (0.1, 0.97, 0.7, -329.6308492865118423710024
         + 451.6741006599943677805057j),
        (0.1, 1.03, 0.7, -370.9197689570790881766778
         + 5.186388877615524581244385j),
        (0.3, 1.03, 1.0, -37.42817913590082084116546
         + 15.34044310505439710367505j),
    ])
    def test_matches_the_high_precision_value(self, k, u, H, want):
        eq = projected_fd_finite_t(t_over_tf=0.01)
        assert abs(eps_wigner(k, k * u, eq, H) - want) < 1e-11


NUMBER_PATH_PROFILES = {"waterbag1d": waterbag_1d(),
                        "fd3d_projected_T0": projected_fd_zero_t(),
                        "fd3d_projected-1e-4": projected_fd_finite_t(1e-4),
                        "fd3d_projected-0.01": projected_fd_finite_t(0.01),
                        "fd3d_projected-1": projected_fd_finite_t(1.0)}


def outcome(evaluate):
    """The value, or the type of the exception raised."""
    try:
        return evaluate()
    except (ArithmeticError, ValueError) as err:
        return type(err)


@pytest.mark.parametrize("eq", NUMBER_PATH_PROFILES.values(),
                         ids=NUMBER_PATH_PROFILES.keys())
def test_eps_within_1e_12_of_the_numpy_profiles(eq):
    # The library evaluates quad's nodes with math/cmath; the numpy bodies
    # it replaced are the reference.  Upper half-plane, the real axis
    # inside and beyond the support, Im omega down to -0.5 Re omega, and
    # at T/T_F = 1e-4 the residue points beyond the support.
    ref = NumpyEquilibrium(eq.kind, eq.t_over_tf, eq.mu)
    us = (0.5 + 0.3j, 1.6 + 0.2j, 0.97, 1.03, 1.1 * eq.support,
          1.02 - 0.3j, 1.0 - 0.5j)
    points = [(k, k * u) for k in (0.3, 1.1, 1.9) for u in us]
    if eq.t_over_tf == 1e-4:
        points += [(0.3, 0.3 * (1.04 - 0.35j)), (1.0, 1.2 - 0.5j)]
    for k, w in points:
        for kind, eps in (("vlasov", lambda e: eps_vlasov(k, w, e)),
                          ("wigner", lambda e: eps_wigner(k, w, e, 0.7))):
            got, want = outcome(lambda: eps(eq)), outcome(lambda: eps(ref))
            if isinstance(want, type):
                assert got is want, (kind, k, w)
            else:
                assert abs(got - want) <= 1e-12, (kind, k, w)


class TestStreamMixtures:
    def test_single_cold_stream_root_is_unit_frequency(self):
        spec = StreamSpec(probabilities=(1.0,), velocities=(0.0,))
        model = DielectricModel(MULTISTREAM, streams=spec, H=0.0)
        root = solve_root(model, 0.5, guess=1.0 + 0j)
        assert abs(root.omega - 1.0) < 1e-12

    def test_delta_profile_identity(self):
        spec = StreamSpec(probabilities=(0.25, 0.25, 0.25, 0.25),
                          velocities=(-1.0, -0.5, 0.5, 1.0))
        for k, w in zip(*random_points(8)):
            a = eps_multistream(k, w, spec, 1.0)
            b = eps_delta_comb(k, w, spec, 1.0)
            assert abs(a - b) < 1e-12

    def test_roots_coincide_between_the_two_forms(self):
        cases = [
            StreamSpec(probabilities=(1.0,), velocities=(0.0,)),
            StreamSpec(probabilities=(0.5, 0.5), velocities=(-1.0, 1.0)),
            StreamSpec(probabilities=(0.25, 0.25, 0.25, 0.25),
                       velocities=(-1.0, -0.5, 0.5, 1.0)),
        ]
        for spec in cases:
            model = DielectricModel(MULTISTREAM, streams=spec, H=1.0)
            k = 2.0
            root = solve_root(model, k, guess=complex(np.sqrt(1 + k**2) + 1.0))
            assert abs(eps_delta_comb(k, root.omega, spec, 1.0)) < 1e-8

    def test_classical_counter_streams_are_unstable(self):
        # Two cold streams at +-u0 with K u0 = 0.5: the closed quartic
        # omega^4 - (2a^2+1) omega^2 + a^4 - a^2 = 0 (a = K u0) has a
        # negative omega^2 branch, i.e. a purely growing mode.
        a = 0.5
        u0, k = 1.0, 0.5
        spec = StreamSpec(probabilities=(0.5, 0.5), velocities=(-u0, u0))
        quartic = np.roots([1.0, 0.0, -(2 * a**2 + 1.0), 0.0, a**4 - a**2])
        growing = quartic[quartic.imag > 1e-6]
        assert growing.size == 1
        assert abs(eps_multistream(k, complex(growing[0]), spec, 0.0)) < 1e-10

    def test_pole_evaluation_rejected(self):
        spec = StreamSpec(probabilities=(1.0,), velocities=(0.0,))
        with pytest.raises(ZeroDivisionError):
            eps_multistream(1.0, 0.25 + 0j, spec, 1.0)


class TestFluid:
    def test_closed_form_root(self):
        for k in (0.3, 0.7, 1.5):
            for h in (0.0, 0.5, 1.0):
                w2 = fluid_omega_sq(k, H=h)
                assert abs(eps_fluid(k, complex(np.sqrt(w2)), H=h)) < 1e-12

    def test_long_wavelength_limit(self):
        assert fluid_omega_sq(1e-8) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_1d_value(self):
        w = np.sqrt(fluid_omega_sq(0.5, gamma=3.0, v0_sq=1.0 / 3.0, H=1.0))
        assert w == pytest.approx(1.11978, abs=1e-5)

    def test_3d_pressure_coefficient(self):
        # Feeding the 3D degenerate pressure P0 = (2/5) n0 E_F, i.e.
        # v0^2 = 1/5, the cubic polytrope gives the 3/5 coefficient on K^2;
        # the naive 5/3 exponent gives 1/3 instead.
        k = 0.37
        good = fluid_omega_sq(k, gamma=3.0, v0_sq=0.2)
        assert good == pytest.approx(1.0 + 0.6 * k**2, rel=1e-12)
        bad = fluid_omega_sq(k, gamma=5.0 / 3.0, v0_sq=0.2)
        assert bad == pytest.approx(1.0 + k**2 / 3.0, rel=1e-12)


class TestRootSolver:
    def test_flat_top_branch_is_exact(self):
        eq = waterbag_1d()
        model = DielectricModel(VLASOV_KINETIC, equilibrium=eq)
        root = solve_root(model, 0.5)
        assert abs(root.omega - np.sqrt(1.25)) < 1e-10
        assert abs(root.omega.imag) < 1e-12
        assert root.residual < 1e-10

    def test_flat_top_scan(self):
        eq = waterbag_1d()
        model = DielectricModel(VLASOV_KINETIC, equilibrium=eq)
        ks = np.linspace(0.1, 2.0, 20)
        for root in k_scan(model, ks):
            assert abs(root.omega.real**2 - (1.0 + root.k**2)) < 1e-8

    def test_finite_temperature_root_regression(self):
        # Weakly damped root of the thermal background at K=1: the phase
        # velocity sits far outside the thermal support, so the damping is
        # below the quadrature noise floor.
        eq = projected_fd_finite_t(t_over_tf=0.01)
        model = DielectricModel(VLASOV_KINETIC, equilibrium=eq)
        root = solve_root(model, 1.0)
        assert root.omega.real == pytest.approx(1.28967, abs=2e-4)
        assert abs(root.omega.imag) < 1e-6
        assert root.continuation_trusted

    @pytest.mark.parametrize("k", [1.005, 1.0706])
    def test_finite_temperature_wigner_root_from_the_default_guess(self, k):
        # Newton from the default guess once spent all 100 iterations here.
        model = DielectricModel(WIGNER_KINETIC, H=1.0,
                                equilibrium=projected_fd_finite_t(0.01))
        root = solve_root(model, k)
        assert abs(model.eps(k, root.omega)) < 1e-10

    def test_finite_temperature_vlasov_root_from_the_default_guess(self):
        # Newton stalled here with residual 8e-8, which stopped the vlasov
        # scan over the CLI's default K grid at K = 1.5.
        model = DielectricModel(VLASOV_KINETIC,
                                equilibrium=projected_fd_finite_t(0.01))
        root = solve_root(model, 1.5)
        assert abs(model.eps(1.5, root.omega)) < 1e-10

    def test_bad_guess_rejected(self):
        model = DielectricModel(VLASOV_KINETIC, equilibrium=waterbag_1d())
        with pytest.raises(ValueError):
            solve_root(model, 0.5, guess=-1.0 + 0j)

    def test_ordering_flag_raised_at_strong_quantum_recoil(self):
        # At (H/2) K > v_F the long-wavelength expansions do not apply; the
        # root (bracketed on the real axis above the resonance band, then
        # polished) carries the flag.
        from scipy.optimize import brentq
        eq = waterbag_1d()
        h_param, k = 2.5, 1.0
        shift = h_param * k**2 / 4.0
        guess = brentq(lambda w: eps_wigner(k, complex(w), eq, h_param).real,
                       k + shift + 1e-6, 4.0)
        model = DielectricModel(WIGNER_KINETIC, equilibrium=eq, H=h_param)
        root = solve_root(model, k, guess=complex(guess))
        assert root.residual < 1e-10
        assert not root.ordering_ok

    def test_model_construction_validation(self):
        with pytest.raises(ValueError, match="unknown dielectric kind"):
            DielectricModel("bogus")
        with pytest.raises(ValueError):
            DielectricModel(VLASOV_KINETIC)
        with pytest.raises(ValueError):
            DielectricModel(MULTISTREAM)
        with pytest.raises(ValueError):
            DielectricModel(QUANTUM_FLUID, H=-1.0)
        with pytest.raises(ValueError, match="H must be 0"):
            DielectricModel(VLASOV_KINETIC, equilibrium=waterbag_1d(), H=1.0)


class TestSmallKExpansion:
    def test_flat_top_classical_coefficients(self):
        model = DielectricModel(VLASOV_KINETIC, equilibrium=waterbag_1d())
        c0, c2, c4, resid = smallk_coefficients(model)
        assert c0 == pytest.approx(1.0, abs=1e-4)
        assert c2 == pytest.approx(1.0, abs=1e-4)
        assert c4 == pytest.approx(0.0, abs=1e-4)

    def test_projected_zero_t_quadratic_coefficient(self):
        model = DielectricModel(VLASOV_KINETIC,
                                equilibrium=projected_fd_zero_t())
        _, c2, _, _ = smallk_coefficients(model)
        assert c2 == pytest.approx(0.6, rel=0.02)

    def test_flat_top_quantum_quartic_coefficient(self):
        model = DielectricModel(WIGNER_KINETIC, equilibrium=waterbag_1d(),
                                H=1.0)
        c0, c2, c4, _ = smallk_coefficients(model)
        assert c2 == pytest.approx(1.0, rel=0.01)
        assert c4 == pytest.approx(1.0 / 16.0, rel=0.05)

    def test_quantum_fluid_residual_scales_as_sixth_power(self):
        # The quantum kinetic and fluid branches of the flat-top profile
        # differ at next order; the residual exponent in K is 6.
        model = DielectricModel(WIGNER_KINETIC, equilibrium=waterbag_1d(),
                                H=1.0)
        ks = np.geomspace(0.05, 0.2, 8)
        resid = []
        guess = None
        for k in ks:
            root = solve_root(model, k, guess=guess)
            guess = root.omega
            resid.append(abs(root.omega.real**2 - fluid_omega_sq(k, H=1.0)))
        slope = np.polyfit(np.log(ks), np.log(resid), 1)[0]
        assert slope == pytest.approx(6.0, abs=0.3)

    @pytest.mark.parametrize("model", [
        DielectricModel(VLASOV_KINETIC, equilibrium=waterbag_1d()),
        DielectricModel(VLASOV_KINETIC, equilibrium=projected_fd_zero_t()),
        DielectricModel(WIGNER_KINETIC, equilibrium=waterbag_1d(), H=1.0)],
        ids=["vlasov-waterbag", "vlasov-t0", "wigner-waterbag"])
    def test_fit_matches_lstsq_on_the_same_roots(self, model):
        ks = np.geomspace(0.02, 0.2, 25)
        omega_sq = np.array([r.omega.real**2 for r in k_scan(model, ks)])
        basis = np.vstack([np.ones_like(ks), ks**2, ks**4, ks**6]).T
        want, *_ = np.linalg.lstsq(basis, omega_sq, rcond=None)
        got = smallk_coefficients(model)[:3]
        assert np.max(np.abs(np.array(got) - want[:3])) <= 1e-10

    def test_fit_calls_no_lapack(self, monkeypatch):
        # The first LAPACK call in a process costs up to 1 MB of resident
        # memory; the fit takes only elementwise products and sums.
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in ("lstsq", "solve", "qr", "svd", "pinv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        model = DielectricModel(VLASOV_KINETIC, equilibrium=waterbag_1d())
        c0, c2, c4, _ = smallk_coefficients(model)
        assert (c0, c2, c4) == pytest.approx((1.0, 1.0, 0.0), abs=1e-4)
