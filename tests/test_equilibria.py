"""Velocity-space equilibria, discrete stream mixtures and the phase-space
transform of wavefunction mixtures."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from qplasma import equilibria, vlasov
from qplasma.config import EQUILIBRIA
from qplasma.constants import ELECTRON_MASS, HBAR
from qplasma.equilibria import (Equilibrium1D, Perturbation, StreamSpec,
                                _softplus, fd_stream_occupations,
                                hbar_eff, make_equilibrium,
                                plane_wave_mixture, projected_fd_finite_t,
                                projected_fd_zero_t, waterbag_1d,
                                wigner_of_mixture)
from qplasma.fields import PhaseSpaceGrid, SpatialGrid

from dielectric_reference import df0_numpy, f0_numpy, use_numpy_profiles


def density_moment(eq, lim=None):
    lim = lim if lim is not None else eq.support
    val, _ = quad(lambda v: float(eq.f0(v).real), -lim, lim,
                  limit=200, epsabs=1e-13, epsrel=1e-12)
    return val


def second_moment(eq, lim=None):
    lim = lim if lim is not None else eq.support
    val, _ = quad(lambda v: v * v * float(eq.f0(v).real), -lim, lim,
                  limit=200, epsabs=1e-13, epsrel=1e-12)
    return val


def fermi_velocity_1d(n0: float, mass: float) -> float:
    """1D Fermi velocity v_F = pi hbar n0 / (2 m) (SI)."""
    if n0 <= 0:
        raise ValueError("n0 must be positive")
    return 0.5 * math.pi * HBAR * n0 / mass


def commensurate_velocity_lattice(grid: SpatialGrid, H: float,
                                  v_cut: float) -> np.ndarray:
    """All box-commensurate stream velocities with |u| <= v_cut."""
    du = 2.0 * np.pi * hbar_eff(H) / grid.length
    j_max = int(math.floor(v_cut / du))
    return du * np.arange(-j_max, j_max + 1)


# The chemical-potential solve that the fixed-node Newton replaced, kept as
# the reference: brentq over adaptive-quad densities.  Its unsplit quad
# misses the sharp Fermi edge at T/T_F = 1e-4, so it is a reference only
# from T/T_F = 1e-3 up.
def reference_mu(t):
    def density(mu):
        vcut = math.sqrt(max(mu, 0.0) + 60.0 * t)
        val, _ = quad(
            lambda v: 0.75 * t * float(np.real(_softplus((mu - v * v) / t))),
            -vcut, vcut, limit=200, epsabs=1e-13, epsrel=1e-12)
        return val
    return brentq(lambda m: density(m) - 1.0, -10.0 * t, 2.0,
                  xtol=1e-14, rtol=1e-12)


# mu at T/T_F = t from the closed form of the density constraint,
# -(3/4) t sqrt(pi t) Li_{3/2}(-exp(mu / t)) = 1, solved with mpmath at
# 40 digits.
CLOSED_FORM_MU = {
    1e-4: 0.999999991775329544,
    1e-3: 0.99999917753174895309,
    0.01: 0.99991774111133985301,
    0.05: 0.99793607026603865178,
    0.3: 0.9145823015228146798,
    1.0: -0.021460754986923125775,
}


class TestFlatTop:
    def test_plateau_height(self):
        eq = waterbag_1d()
        assert eq.f0(0.0) == pytest.approx(0.5)
        assert eq.f0(0.99) == pytest.approx(0.5)
        assert eq.f0(1.01) == 0.0

    def test_density(self):
        assert density_moment(waterbag_1d()) == pytest.approx(1.0, rel=1e-10)

    def test_second_moment_is_third(self):
        assert second_moment(waterbag_1d()) == pytest.approx(1.0 / 3.0,
                                                             rel=1e-10)

    def test_invalid_parameters(self):
        # Units are fixed: density and Fermi velocity are 1.  A profile of
        # another density would only fail later, in the neutrality check
        # of the Poisson solve.
        with pytest.raises(TypeError):
            waterbag_1d(n0=2.0)
        with pytest.raises(TypeError):
            waterbag_1d(v_f=0.5)


class TestProjectedZeroT:
    def test_parabolic_profile(self):
        eq = projected_fd_zero_t()
        assert eq.f0(0.0) == pytest.approx(0.75)
        assert eq.f0(1.0) == pytest.approx(0.0)
        assert eq.f0(1.5) == 0.0
        assert eq.f0(0.5) == pytest.approx(0.75 * (1 - 0.25))

    def test_density(self):
        assert density_moment(projected_fd_zero_t()) == pytest.approx(
            1.0, rel=1e-10)

    def test_second_moment_is_fifth(self):
        assert second_moment(projected_fd_zero_t()) == pytest.approx(
            1.0 / 5.0, rel=1e-10)

    def test_even_and_nonnegative(self):
        eq = projected_fd_zero_t()
        v = np.linspace(-2, 2, 101)
        f = eq.f0(v).real
        assert np.allclose(f, f[::-1])
        assert np.all(f >= 0)


class TestProjectedFiniteT:
    def test_chemical_potential_approaches_unit_energy(self):
        for t, tol in ((1e-2, 2e-2), (1e-3, 2e-3)):
            eq = projected_fd_finite_t(t_over_tf=t)
            assert abs(eq.mu - 1.0) < tol

    def test_density_constraint(self):
        for t in (0.01, 0.05, 0.3):
            eq = projected_fd_finite_t(t_over_tf=t)
            assert density_moment(eq) == pytest.approx(1.0, rel=1e-9)

    def test_cold_limit_recovers_parabolic_profile(self):
        cold = projected_fd_zero_t()
        v = np.linspace(-1.5, 1.5, 301)
        dev_2 = np.max(np.abs(projected_fd_finite_t(t_over_tf=1e-2).f0(v).real
                              - cold.f0(v).real))
        dev_3 = np.max(np.abs(projected_fd_finite_t(t_over_tf=1e-3).f0(v).real
                              - cold.f0(v).real))
        assert dev_3 < 1e-3
        assert dev_3 < dev_2  # converges as the temperature drops

    def test_derivative_matches_finite_difference(self):
        eq = projected_fd_finite_t(t_over_tf=0.05)
        v = np.linspace(-1.3, 1.3, 27)
        h = 1e-6
        fd = (eq.f0(v + h).real - eq.f0(v - h).real) / (2 * h)
        assert np.max(np.abs(eq.df0(v).real - fd)) < 1e-6

    def test_out_of_range_temperature(self):
        with pytest.raises(ValueError):
            projected_fd_finite_t(t_over_tf=0.0)
        with pytest.raises(ValueError):
            projected_fd_finite_t(t_over_tf=1.5)

    def test_factory_names(self):
        assert make_equilibrium("waterbag1d").kind == "waterbag1d"
        assert make_equilibrium("fd3d_projected_T0").kind == "fd3d_projected_T0"
        eq = make_equilibrium("fd3d_projected", t_over_tf=0.01)
        assert eq.t_over_tf == 0.01
        with pytest.raises(ValueError):
            make_equilibrium("maxwellian")

    def test_every_config_equilibrium_builds(self):
        # Configs and the dispersion command offer exactly these names.
        for name in EQUILIBRIA:
            assert make_equilibrium(name, 0.01).kind == name


class TestChemicalPotential:
    def test_matches_the_closed_form(self):
        for t, mu in CLOSED_FORM_MU.items():
            assert abs(projected_fd_finite_t(t).mu - mu) <= 1e-14, t

    def test_matches_the_old_solver(self):
        dmu = [abs(projected_fd_finite_t(t).mu - reference_mu(t))
               for t in CLOSED_FORM_MU if t >= 1e-3]
        assert max(dmu) <= 1e-13

    def test_panel_rule_is_the_20_point_gauss_legendre_rule(self):
        x, w = np.polynomial.legendre.leggauss(20)
        assert np.max(np.abs(equilibria._GL_NODES - x)) <= 1e-15
        assert np.max(np.abs(equilibria._GL_WEIGHTS - w)) <= 1e-15

    def test_unconverged_newton_is_an_arithmetic_error(self, monkeypatch):
        monkeypatch.setattr(equilibria, "_MU_MAX_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            projected_fd_finite_t(1.0)


PROFILES = {"waterbag1d": waterbag_1d(),
            "fd3d_projected_T0": projected_fd_zero_t(),
            "fd3d_projected-1e-4": projected_fd_finite_t(1e-4),
            "fd3d_projected-0.01": projected_fd_finite_t(0.01),
            "fd3d_projected-1": projected_fd_finite_t(1.0)}


def profile_functions(eq):
    """(library, numpy reference) pairs of the profile's functions."""
    pairs = [(eq.f0, f0_numpy)]
    if eq.kind != "waterbag1d":  # its derivative is distributional
        pairs.append((eq.df0, df0_numpy))
    return pairs


def z_is_30(eq, im):
    """Re v > 0 at which Re z = (mu - Re v^2) / t is 30 for Im v = im, where
    the softplus changes branch; None where no such v exists."""
    if eq.kind != "fd3d_projected" or eq.mu - 30.0 * eq.t_over_tf <= 0.0:
        return None
    return math.sqrt(eq.mu - 30.0 * eq.t_over_tf + im * im)


def real_velocities(eq):
    """A dense grid over +-support, with |v| = 1 exactly and both sides of
    z = 30."""
    e = eq.support
    v = list(np.linspace(-e, e, 4001))
    v += [1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)]
    edge = z_is_30(eq, 0.0)
    if edge is not None:
        v += [s * edge * (1.0 + d) for s in (1.0, -1.0)
              for d in (-1e-9, -1e-15, 0.0, 1e-15, 1e-9)]
    return np.array(v)


def complex_velocities(eq):
    """Re v across +-1.2 support and |Re v| = 1, Im v from -0.5 to 0.3, and
    both sides of Re z = 30."""
    e = eq.support
    re = list(np.linspace(-1.2 * e, 1.2 * e, 241))
    re += [1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)]
    ims = (-0.5, -0.2, -1e-3, 0.0, 1e-3, 0.3)
    v = [complex(a, b) for a in re for b in ims]
    for b in ims:
        edge = z_is_30(eq, b)
        if edge is not None:
            v += [complex(s * edge * (1.0 + d), b) for s in (1.0, -1.0)
                  for d in (-1e-9, 0.0, 1e-9)]
    return v


@pytest.mark.parametrize("eq", PROFILES.values(), ids=PROFILES.keys())
class TestNumberAndArrayPaths:
    """f0 and df0 take a number through math/cmath and an array through
    numpy.  The number path is checked against the numpy bodies it
    replaced, on 0-d values (numpy squares those with pow(), like the
    number path; an array it squares as v * v, which (mu - v^2) / t
    amplifies to about 1000 ulp at T/T_F = 0.01)."""

    def test_real_numbers_within_4_ulp_of_numpy(self, eq):
        v = real_velocities(eq)
        for fn, ref in profile_functions(eq):
            got = np.array([fn(float(x)) for x in v])
            want = np.array([float(ref(eq, x)) for x in v])
            ulps = np.abs(got - want) / np.spacing(np.abs(want))
            assert np.max(ulps) <= 4.0, fn.__name__

    def test_complex_numbers_within_1e_10_of_numpy(self, eq):
        for fn, ref in profile_functions(eq):
            for v in complex_velocities(eq):
                got, want = fn(v), complex(ref(eq, v))
                assert abs(got - want) <= 1e-10 * abs(want), (fn.__name__, v)

    def test_python_number_in_python_number_out(self, eq):
        for fn, _ in profile_functions(eq):
            for v in (0.3, 0.5 + 0.1j, 1.2 - 0.4j, 40.0):
                out = fn(v)
                assert type(out) in ((float,) if type(v) is float
                                     else (float, complex)), (fn.__name__, v)

    def test_array_path_is_the_numpy_path_bit_for_bit(self, eq):
        v = real_velocities(eq)
        for fn, ref in profile_functions(eq):
            got, want = fn(v), ref(eq, v)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), fn.__name__

    def test_initial_state_unchanged_bit_for_bit(self, eq, monkeypatch):
        grid = PhaseSpaceGrid(SpatialGrid(4.0 * np.pi, 256), 6.0, 256)
        pert = Perturbation(0.01, 0.5)
        got = vlasov.initial_state(grid, eq, pert).f
        use_numpy_profiles(monkeypatch)
        assert np.array_equal(got, vlasov.initial_state(grid, eq, pert).f)


@pytest.mark.parametrize("eq", PROFILES.values(), ids=PROFILES.keys())
def test_a_number_enters_at_most_two_python_frames(eq):
    # The Landau integrals evaluate the profiles at about 31k numbers per
    # finite-temperature root, so each Python call per number counts: f0
    # or df0 itself and at most one math/cmath helper.
    calls = []

    def count(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    for fn, _ in profile_functions(eq):
        for v in (0.3, 1.5, 0.5 + 0.1j, 1.2 - 0.4j):
            calls.clear()
            sys.setprofile(count)
            try:
                fn(v)
            finally:
                sys.setprofile(None)
            assert len(calls) <= 2, (v, calls)


class TestConstruction:
    """The kind and a finite-temperature profile's parameters are checked
    when an Equilibrium1D is built, not when it is first evaluated."""

    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown equilibrium kind"):
            Equilibrium1D("bogus")

    @pytest.mark.parametrize("t, mu", [(0.01, math.nan), (0.01, math.inf),
                                       (0.0, 0.99), (1.5, 0.5),
                                       (math.nan, 0.99)])
    def test_an_unsolved_finite_t_profile_is_refused(self, t, mu):
        with pytest.raises(ValueError, match="projected_fd_finite_t"):
            Equilibrium1D("fd3d_projected", t, mu)

    def test_the_default_mu_is_unsolved(self):
        with pytest.raises(ValueError):
            Equilibrium1D("fd3d_projected", 0.01)

    def test_a_solved_profile_rebuilds_from_its_fields(self):
        eq = projected_fd_finite_t(0.01)
        assert Equilibrium1D(eq.kind, eq.t_over_tf, eq.mu) == eq


def test_chemical_potential_and_occupations_unchanged_bit_for_bit(
        monkeypatch):
    temperatures = (1e-4, 1e-2, 1.0)
    velocities = np.linspace(-2.0, 2.0, 17)

    def solve():
        return ([projected_fd_finite_t(t).mu for t in temperatures],
                [fd_stream_occupations(t, mu, velocities)
                 for t, mu in ((0.0, 1.0), (0.01, 1.0), (0.3, 0.9), (1.0, -0.02))])

    got = solve()
    use_numpy_profiles(monkeypatch)
    assert got == solve()


class TestOneDFermiVelocity:
    def test_si_formula(self):
        n0 = 1e9  # electrons per meter in a 1D channel
        v = fermi_velocity_1d(n0, ELECTRON_MASS)
        assert v == pytest.approx(0.5 * np.pi * HBAR * n0 / ELECTRON_MASS)


class TestStreamOccupations:
    def test_sharp_step_at_zero_temperature(self):
        spec = fd_stream_occupations(0.0, 1.0, (-1.5, -0.5, 0.5, 1.5))
        assert np.allclose(spec.probabilities, [0.0, 0.5, 0.5, 0.0])

    def test_probabilities_normalized_and_symmetric(self):
        spec = fd_stream_occupations(0.05, 1.0, (-1.0, -0.5, 0.5, 1.0))
        p = np.array(spec.probabilities)
        assert p.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(p, p[::-1])

    def test_occupation_monotone_in_energy(self):
        spec = fd_stream_occupations(0.1, 1.0, (0.0, 0.5, 1.0, 1.5, 2.0))
        assert np.all(np.diff(spec.probabilities) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fd_stream_occupations(0.1, 1.0, ())
        with pytest.raises(ValueError):
            StreamSpec(probabilities=(0.5, 0.5), velocities=(1.0,))
        with pytest.raises(ValueError):
            StreamSpec(probabilities=(0.7, 0.7), velocities=(0.0, 1.0))
        with pytest.raises(ValueError):
            StreamSpec(probabilities=(0.5, 0.5), velocities=(1.0, 1.0))


class TestPlaneWaveMixture:
    def setup_method(self):
        self.grid = SpatialGrid(2.0 * np.pi, 64)
        self.H = 1.0  # commensurate lattice spacing 2 pi hbar_eff / L = 0.5

    def test_uniform_density(self):
        spec = fd_stream_occupations(0.0, 1.0, (-0.5, 0.5))
        streams = plane_wave_mixture(spec, self.grid, self.H)
        assert np.max(np.abs(streams.density() - 1.0)) < 1e-12

    def test_phase_gradient_equals_stream_velocity(self):
        spec = fd_stream_occupations(0.0, 1.0, (-1.0, -0.5, 0.5, 1.0))
        streams = plane_wave_mixture(spec, self.grid, self.H)
        hb = hbar_eff(self.H)
        for psi, u in zip(streams.psi, spec.velocities):
            inc = np.angle(np.roll(psi, -1) * np.conj(psi))
            assert np.max(np.abs(hb * inc / self.grid.dx - u)) < 1e-10

    def test_incommensurate_velocity_rejected(self):
        spec = fd_stream_occupations(0.0, 1.0, (0.3,))
        with pytest.raises(ValueError, match="commensurate"):
            plane_wave_mixture(spec, self.grid, self.H)

    def test_commensurate_lattice_helper(self):
        lattice = commensurate_velocity_lattice(self.grid, self.H, 1.2)
        assert np.allclose(lattice, [-1.0, -0.5, 0.0, 0.5, 1.0])


# The full-lambda transform that the half-spectrum one replaced, kept as
# the reference: all n_v dual rows and every stream at once.
def reference_wigner_of_mixture(streams, grid):
    hb = hbar_eff(streams.H)
    n_v = grid.n_v
    dlam = 2.0 * np.pi * hb / (n_v * grid.dv)
    lam = np.fft.fftfreq(n_v, d=1.0 / n_v) * dlam
    psi_hat = np.fft.fft(streams.psi, axis=-1)
    shift = np.exp(0.5j * np.outer(lam, grid.spatial.wavenumbers))
    psi_plus = np.fft.ifft(psi_hat[:, None, :] * shift[None, :, :], axis=-1)
    psi_minus = np.fft.ifft(psi_hat[:, None, :] * np.conj(shift)[None, :, :],
                            axis=-1)
    corr = np.einsum("a,alx->lx", streams.probabilities,
                     np.conj(psi_plus) * psi_minus)
    phase = np.exp(1j * (-grid.v_max) * lam / hb)
    f = np.fft.ifft(corr * phase[:, None], axis=0) * n_v * dlam / (2.0 * np.pi * hb)
    return np.real(f)


class TestMixtureTransformMatchesReference:
    @pytest.mark.parametrize("n_x, n_v", [(64, 256), (33, 48)])
    @pytest.mark.parametrize("H", [0.5, 1.0])
    def test_random_mixture(self, n_x, n_v, H):
        # Rough random wavefunctions with unequal occupations: every dual
        # row and every x mode carries weight.
        rng = np.random.default_rng(5)
        spatial = SpatialGrid(2.0 * np.pi, n_x)
        grid = PhaseSpaceGrid(spatial, v_max=3.2, n_v=n_v)
        spec = fd_stream_occupations(0.05, 1.0, (-1.0, -0.5, 0.5, 1.0))
        streams = plane_wave_mixture(spec, spatial, 1.0)
        streams.H = H
        streams.psi = (rng.standard_normal((4, n_x))
                       + 1j * rng.standard_normal((4, n_x)))
        got = wigner_of_mixture(streams, grid)
        want = reference_wigner_of_mixture(streams, grid)
        assert got.shape == want.shape == (n_v, n_x)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_perturbed_plane_wave_mixture(self):
        spatial = SpatialGrid(2.0 * np.pi, 64)
        grid = PhaseSpaceGrid(spatial, v_max=3.2, n_v=256)
        spec = fd_stream_occupations(0.05, 1.0, (-1.0, -0.5, 0.5, 1.0))
        streams = plane_wave_mixture(spec, spatial, 1.0)
        streams.psi *= np.sqrt(1.0 + 0.05 * np.cos(spatial.x))
        got = wigner_of_mixture(streams, grid)
        want = reference_wigner_of_mixture(streams, grid)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


class TestMixtureTransform:
    def setup_method(self):
        self.spatial = SpatialGrid(2.0 * np.pi, 64)
        self.grid = PhaseSpaceGrid(self.spatial, v_max=3.2, n_v=256)
        self.H = 1.0

    def test_realness(self):
        spec = fd_stream_occupations(0.0, 1.0, (-1.0, -0.5, 0.5, 1.0))
        streams = plane_wave_mixture(spec, self.spatial, self.H)
        # realness is enforced by construction; check against the complex
        # transform assembled by hand
        f = wigner_of_mixture(streams, self.grid)
        assert f.dtype == float
        assert np.all(np.isfinite(f))

    def test_density_matches_mixture_pointwise(self):
        spec = fd_stream_occupations(0.05, 1.0, (-1.0, -0.5, 0.5, 1.0))
        streams = plane_wave_mixture(spec, self.spatial, self.H)
        f = wigner_of_mixture(streams, self.grid)
        n = np.sum(f, axis=0) * self.grid.dv
        assert np.max(np.abs(n - streams.density())) < 1e-10

    def test_plane_waves_concentrate_on_their_velocity_nodes(self):
        spec = fd_stream_occupations(0.0, 1.0, (-1.0, -0.5, 0.5, 1.0))
        streams = plane_wave_mixture(spec, self.spatial, self.H)
        f = wigner_of_mixture(streams, self.grid)
        v = self.grid.v
        on_nodes = np.zeros(self.grid.n_v, dtype=bool)
        for u in spec.velocities:
            on_nodes |= np.abs(v - u) < 1e-12
        assert np.all(np.abs(f[~on_nodes, :]) < 1e-10)
        # the mass on each node reproduces the occupation / dv
        for u, p in zip(spec.velocities, spec.probabilities):
            row = f[np.abs(v - u) < 1e-12, :]
            assert np.max(np.abs(row * self.grid.dv - p)) < 1e-10

    def test_linearity_in_the_mixture(self):
        spec = fd_stream_occupations(0.0, 1.0, (-0.5, 0.5))
        streams = plane_wave_mixture(spec, self.spatial, self.H)
        f = wigner_of_mixture(streams, self.grid)
        total = np.zeros_like(f)
        for i in range(streams.n_streams):
            single = plane_wave_mixture(
                StreamSpec(probabilities=(1.0,),
                           velocities=(spec.velocities[i],)),
                self.spatial, self.H)
            total += spec.probabilities[i] * wigner_of_mixture(single,
                                                               self.grid)
        assert np.max(np.abs(f - total)) < 1e-12

    def test_grid_mismatch_rejected(self):
        spec = fd_stream_occupations(0.0, 1.0, (-0.5, 0.5))
        streams = plane_wave_mixture(spec, self.spatial, self.H)
        other = PhaseSpaceGrid(SpatialGrid(2.0 * np.pi, 128), 3.2, 256)
        with pytest.raises(ValueError):
            wigner_of_mixture(streams, other)

    def test_gaussian_packet_matches_closed_form(self):
        # A Gaussian wavefunction A exp(-x^2 / 2 sigma^2) transforms to the
        # nonnegative product of Gaussians
        # (A^2 sigma / sqrt(pi) hbar) exp(-x^2/sigma^2) exp(-sigma^2 v^2/hbar^2).
        # Two periodic-box artifacts are accounted for: the packet's images
        # interfere at the seam x = +-L/2 (comparison restricted to the
        # bulk), and a box-periodic state is supported on the velocity comb
        # with spacing pi hbar / L, each spike carrying the envelope weight
        # of its whole velocity bin.
        hb = hbar_eff(self.H)
        sigma = 0.6
        x = self.spatial.x - np.pi
        psi = np.exp(-0.5 * x**2 / sigma**2)
        norm = np.mean(np.abs(psi) ** 2)
        streams = plane_wave_mixture(
            fd_stream_occupations(0.0, 1.0, (0.0,)), self.spatial, self.H)
        streams.psi[0, :] = psi / np.sqrt(norm)
        f = wigner_of_mixture(streams, self.grid)
        bulk = np.abs(x) < 1.2  # keeps the seam fringes' tails out
        spacing = np.pi * hb / self.spatial.length
        stride = int(round(spacing / self.grid.dv))
        on_comb = np.abs(self.grid.v / spacing
                         - np.round(self.grid.v / spacing)) < 1e-9
        assert stride > 1 and on_comb.any()
        peak = float(np.max(np.abs(f[:, bulk])))
        # off-comb rows are empty
        assert np.max(np.abs(f[np.ix_(~on_comb, bulk)])) < 1e-6 * peak
        xx = x[None, bulk]
        vv = self.grid.v[on_comb][:, None]
        envelope = (sigma / (np.sqrt(np.pi) * hb * norm)
                    * np.exp(-(xx**2) / sigma**2)
                    * np.exp(-(sigma**2) * vv**2 / hb**2))
        comb = f[np.ix_(on_comb, bulk)] / stride
        assert np.max(np.abs(comb - envelope)) < 1e-4 * envelope.max()
        assert f[:, bulk].min() > -1e-4 * peak

    def test_superposition_produces_interference_fringes(self):
        sigma = 0.5
        x = self.spatial.x - np.pi
        psi = (np.exp(-0.5 * (x - 1.2) ** 2 / sigma**2)
               + np.exp(-0.5 * (x + 1.2) ** 2 / sigma**2))
        psi /= np.sqrt(np.mean(np.abs(psi) ** 2))
        streams = plane_wave_mixture(
            fd_stream_occupations(0.0, 1.0, (0.0,)), self.spatial, self.H)
        streams.psi[0, :] = psi
        f = wigner_of_mixture(streams, self.grid)
        mid = np.abs(x) < 0.4
        assert f[:, mid].min() < -0.01 * f.max()


class TestPerturbation:
    def setup_method(self):
        self.grid = PhaseSpaceGrid(SpatialGrid(2.0 * np.pi, 64), 3.0, 64)
        self.eq = projected_fd_zero_t()

    def initial_f(self, alpha, k=1.0):
        return vlasov.initial_state(self.grid, self.eq,
                                    Perturbation(alpha, k)).f

    def test_zero_amplitude_is_identity(self):
        plain = vlasov.initial_state(self.grid, self.eq).f
        assert np.array_equal(self.initial_f(0.0), plain)

    def test_density_modulation(self):
        plain = vlasov.initial_state(self.grid, self.eq).f
        n0 = np.sum(plain[:, 0]) * self.grid.dv
        n = np.sum(self.initial_f(0.1), axis=0) * self.grid.dv
        expected = n0 * (1.0 + 0.1 * np.cos(self.grid.spatial.x))
        assert np.max(np.abs(n - expected)) < 1e-12
        assert abs(np.mean(n) - n0) < 1e-14  # spatial average unchanged

    def test_nonnegative_iff_amplitude_below_one(self):
        assert self.initial_f(1.0).min() >= 0.0

    def test_incommensurate_wavenumber_rejected(self):
        with pytest.raises(ValueError, match="commensurate"):
            self.initial_f(0.1, 1.3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Perturbation(-0.1, 1.0)
        with pytest.raises(ValueError):
            Perturbation(0.1, 0.0)
