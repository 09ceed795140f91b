"""Periodic grids, the spectral Poisson solve, the field energy and
velocity moments."""

import numpy as np
import pytest

from qplasma.equilibria import projected_fd_zero_t, waterbag_1d
from qplasma.fields import (PhaseSpaceGrid, SpatialGrid, field_energy,
                            moments, poisson_periodic, spectral_derivative)

RNG = np.random.default_rng(7)


def band_limited(n_x):
    """Zero-mean random field with no energy at the unpaired highest mode
    (where a real field cannot carry an odd-derivative phase)."""
    f = RNG.standard_normal(n_x)
    fk = np.fft.rfft(f)
    fk[0] = 0.0
    fk[-1] = 0.0
    return np.fft.irfft(fk, n=n_x)


@pytest.fixture
def grid():
    return SpatialGrid(length=2.0 * np.pi, n_x=64)


@pytest.fixture
def pgrid(grid):
    return PhaseSpaceGrid(grid, v_max=3.0, n_v=64)


class TestGrids:
    def test_spacing_and_nodes(self, grid):
        assert grid.dx == pytest.approx(2.0 * np.pi / 64)
        assert grid.x[0] == 0.0
        assert grid.x[-1] == pytest.approx(grid.length - grid.dx)

    def test_velocity_grid_contains_zero_and_is_uniform(self, pgrid):
        assert 0.0 in pgrid.v
        assert np.allclose(np.diff(pgrid.v), pgrid.dv)
        assert pgrid.v[0] == -pgrid.v_max
        assert pgrid.v[-1] == pytest.approx(pgrid.v_max - pgrid.dv)

    @pytest.mark.parametrize("name", ["x", "wavenumbers", "v"])
    def test_grid_arrays_are_built_once_and_read_only(self, grid, pgrid, name):
        # Every reader shares the one array, so none may write to it; its
        # values are those of the formula.
        owner = pgrid if name == "v" else grid
        first = getattr(owner, name)
        assert getattr(owner, name) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        expected = {"x": np.arange(64) * grid.dx,
                    "wavenumbers": 2.0 * np.pi * np.fft.fftfreq(64, d=grid.dx),
                    "v": -3.0 + np.arange(64) * pgrid.dv}[name]
        assert np.array_equal(first, expected)

    def test_invalid_grids_rejected(self, grid):
        with pytest.raises(ValueError):
            SpatialGrid(length=1.0, n_x=4)
        with pytest.raises(ValueError):
            SpatialGrid(length=-1.0, n_x=64)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(grid, v_max=3.0, n_v=63)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(grid, v_max=-1.0, n_v=64)


class TestSpectralDerivative:
    def test_cosine(self, grid):
        x = grid.x
        for k in (1.0, 2.0, 5.0):
            d = spectral_derivative(np.cos(k * x), grid)
            assert np.max(np.abs(d + k * np.sin(k * x))) < 1e-12

    def test_constant(self, grid):
        assert np.max(np.abs(spectral_derivative(np.ones(grid.n_x), grid))) < 1e-14

    def test_parseval(self, grid):
        # Mean of (f')^2 equals sum of k^2 |f_k|^2 over the spectrum.
        f = band_limited(grid.n_x)
        d = spectral_derivative(f, grid)
        fk = np.fft.fft(f) / grid.n_x
        k = grid.wavenumbers
        lhs = np.mean(d**2)
        rhs = np.sum(k**2 * np.abs(fk) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestPoisson:
    def test_uniform_density_gives_zero_potential(self, grid):
        phi = poisson_periodic(np.ones(grid.n_x), grid)
        assert np.max(np.abs(phi)) < 1e-14

    def test_cosine_density_closed_form(self, grid):
        # density 1 + a cos(Kx) forces potential -(a/K^2) cos(Kx)
        x = grid.x
        for kmode in (1.0, 2.0):
            a = 0.3
            phi = poisson_periodic(1.0 + a * np.cos(kmode * x), grid)
            expected = -(a / kmode**2) * np.cos(kmode * x)
            assert np.max(np.abs(phi - expected)) < 1e-12

    def test_residual_on_random_density(self, grid):
        rho = band_limited(grid.n_x)
        phi = poisson_periodic(1.0 + rho, grid)
        lap = spectral_derivative(spectral_derivative(phi, grid), grid)
        assert np.max(np.abs(lap - rho)) < 1e-10

    def test_potential_is_zero_mean(self, grid):
        rho = band_limited(grid.n_x)
        phi = poisson_periodic(1.0 + rho, grid)
        assert abs(phi.mean()) < 1e-14

    def test_non_neutral_box_rejected(self, grid):
        with pytest.raises(ValueError, match="non-neutral"):
            poisson_periodic(np.full(grid.n_x, 1.01), grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_density_rejected(self, grid, bad):
        # A NaN mean fails the neutrality comparison too, so it used to
        # come back as a NaN potential.
        density = np.ones(grid.n_x)
        density[3] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            poisson_periodic(density, grid)

    def test_field_energy_of_a_cosine_density(self, grid):
        # phi'' = alpha cos x gives E = phi' = alpha sin x, <E^2>/2 = alpha^2/4.
        alpha = 0.1
        density = 1.0 + alpha * np.cos(grid.x)
        assert field_energy(density, grid) == pytest.approx(0.25 * alpha**2,
                                                            rel=1e-13)


class TestMoments:
    def test_equilibrium_density_and_flux(self, pgrid):
        eq = projected_fd_zero_t()
        prof = eq.f0(pgrid.v).real
        prof *= 1.0 / (np.sum(prof) * pgrid.dv)
        f = np.broadcast_to(prof[:, None], (pgrid.n_v, pgrid.spatial.n_x))
        n, flux, _ = moments(f, pgrid)
        assert np.max(np.abs(n - 1.0)) < 1e-12
        assert np.max(np.abs(flux)) < 1e-12

    def test_waterbag_pressure_is_third_of_edge_velocity_squared(self):
        # Flat profile on |v| <= v_F has <v^2> = v_F^2 / 3; a fine grid
        # with the edge between nodes keeps the quadrature bias small.  The
        # same profile drifting at u has second moment 1/3 + u^2, flux u
        # and the same pressure second - flux^2 / n.
        grid = SpatialGrid(2.0 * np.pi, 8)
        pgrid = PhaseSpaceGrid(grid, v_max=3.0, n_v=4096)
        eq = waterbag_1d()
        prof = eq.f0(pgrid.v).real
        prof *= 1.0 / (np.sum(prof) * pgrid.dv)
        for cells in (0, 700):
            u = cells * pgrid.dv
            f = np.broadcast_to(np.roll(prof, cells)[:, None],
                                (pgrid.n_v, grid.n_x))
            n, flux, second = moments(f, pgrid)
            assert np.max(np.abs(second - (1.0 / 3.0 + u**2))) < 1e-3
            assert np.max(np.abs(flux - u)) < 1e-12
            p = second - flux**2 / n
            assert np.max(np.abs(p - 1.0 / 3.0)) < 1e-3

    def test_shifted_distribution_flux(self, pgrid):
        # Moving the profile by one grid cell shifts the flux by n * dv.
        eq = projected_fd_zero_t()
        prof = eq.f0(pgrid.v).real
        prof *= 1.0 / (np.sum(prof) * pgrid.dv)
        f = np.broadcast_to(np.roll(prof, 1)[:, None],
                            (pgrid.n_v, pgrid.spatial.n_x))
        n, flux, _ = moments(f, pgrid)
        assert np.allclose(flux, n * pgrid.dv, atol=1e-12)

    def test_linearity(self, pgrid):
        f1 = RNG.random((pgrid.n_v, pgrid.spatial.n_x))
        f2 = RNG.random((pgrid.n_v, pgrid.spatial.n_x))
        n1, u1, _ = moments(f1, pgrid)
        n2, u2, _ = moments(f2, pgrid)
        n12, u12, _ = moments(f1 + 2.0 * f2, pgrid)
        assert np.allclose(n12, n1 + 2.0 * n2, atol=1e-12)
        assert np.allclose(u12, u1 + 2.0 * u2, atol=1e-12)

    def test_cosine_modulation_passes_through(self, pgrid):
        eq = projected_fd_zero_t()
        prof = eq.f0(pgrid.v).real
        prof *= 1.0 / (np.sum(prof) * pgrid.dv)
        mod = 1.0 + 0.1 * np.cos(pgrid.spatial.x)
        f = prof[:, None] * mod[None, :]
        n, _, _ = moments(f, pgrid)
        assert np.max(np.abs(n - mod)) < 1e-12
