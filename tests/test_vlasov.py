"""Semi-Lagrangian kinetic solver: advection exactness, conservation and
the linear oscillation frequency against the root finder."""

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from qplasma import vlasov
from qplasma.dispersion import VLASOV_KINETIC, DielectricModel, solve_root
from qplasma.equilibria import (Perturbation, projected_fd_finite_t,
                                projected_fd_zero_t)
from qplasma.fields import PhaseSpaceGrid, SpatialGrid, moments


def make_grid(n_x=128, n_v=128, v_max=3.0, length=2.0 * np.pi):
    return PhaseSpaceGrid(SpatialGrid(length, n_x), v_max, n_v)


# The 2D spline interpolations the kernels replaced, kept as the reference.
SPLINE_ORDER = 3


def reference_advect_x(f, grid, dt):
    n_v, n_x = f.shape
    cols = np.arange(n_x)[None, :] - (grid.v[:, None] * dt) / grid.spatial.dx
    rows = np.broadcast_to(np.arange(n_v, dtype=float)[:, None], cols.shape)
    return map_coordinates(f, [rows, cols], order=SPLINE_ORDER,
                           mode="grid-wrap")


def reference_advect_v(f, grid, accel, dt):
    n_v, n_x = f.shape
    rows = np.arange(n_v, dtype=float)[:, None] - (accel[None, :] * dt) / grid.dv
    cols = np.broadcast_to(np.arange(n_x, dtype=float)[None, :], rows.shape)
    return map_coordinates(f, [rows, cols], order=SPLINE_ORDER,
                           mode="grid-constant", cval=0.0)


KERNEL_TOL = 1e-13  # of max|f|


def total_mass(state):
    return float(np.sum(state.f)) * state.grid.dv * state.grid.spatial.dx


def total_momentum(state):
    return float(np.sum(state.f * state.grid.v[:, None])) \
        * state.grid.dv * state.grid.spatial.dx


def total_energy(state):
    fe, ke, _, _ = vlasov.diagnostics(state)
    return fe + ke


class TestInitialState:
    def test_density_is_exactly_neutral(self):
        grid = make_grid()
        state = vlasov.initial_state(grid, projected_fd_finite_t(t_over_tf=0.01))
        n, _, _ = moments(state.f, grid)
        assert np.max(np.abs(n - 1.0)) < 1e-12

    def test_perturbation_modulates_density(self):
        grid = make_grid()
        state = vlasov.initial_state(grid, projected_fd_zero_t(),
                                     Perturbation(0.1, 1.0))
        n, _, _ = moments(state.f, grid)
        expected = 1.0 + 0.1 * np.cos(grid.spatial.x)
        assert np.max(np.abs(n - expected)) < 1e-12


class TestAdvection:
    def test_homogeneous_state_invariant_under_free_streaming(self):
        grid = make_grid()
        state = vlasov.initial_state(grid, projected_fd_zero_t())
        f = state.f.copy()
        for _ in range(10):
            f = vlasov.advect_x(f, grid, 0.1)
        assert np.max(np.abs(f - state.f)) < 1e-12

    def test_free_streaming_reversibility(self):
        grid = make_grid()
        state = vlasov.initial_state(grid, projected_fd_finite_t(t_over_tf=0.05),
                                     Perturbation(0.2, 1.0))
        f = state.f.copy()
        for _ in range(20):
            f = vlasov.advect_x(f, grid, 0.05)
        for _ in range(20):
            f = vlasov.advect_x(f, grid, -0.05)
        assert np.max(np.abs(f - state.f)) < 1e-6

    def test_uniform_acceleration_shifts_velocity_rows(self):
        grid = make_grid()
        prof = projected_fd_finite_t(t_over_tf=0.05).f0(grid.v).real
        f = np.broadcast_to(prof[:, None], (grid.n_v, grid.spatial.n_x)).copy()
        accel = np.full(grid.spatial.n_x, grid.dv)  # exactly one cell per unit time
        shifted = vlasov.advect_v(f, grid, accel, 1.0)
        assert np.max(np.abs(shifted[1:, :] - f[:-1, :])) < 1e-10


# A non-square grid with odd n_x, and one with n_v < n_x.
KERNEL_GRIDS = [make_grid(n_x=33, n_v=48, v_max=2.0),
                make_grid(n_x=64, n_v=40, v_max=3.0, length=5.0)]


class TestKernelsMatchReference:
    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    @pytest.mark.parametrize("cells", [0.3, -0.45, 4.6, -6.2])
    def test_free_streaming(self, grid, cells):
        # The fastest row moves `cells` cells; the others proportionally.
        f = np.random.default_rng(1).random((grid.n_v, grid.spatial.n_x))
        dt = cells * grid.spatial.dx / grid.v_max
        got = vlasov.advect_x(f, grid, dt)
        assert np.max(np.abs(got - reference_advect_x(f, grid, dt))) \
            < KERNEL_TOL * np.max(np.abs(f))

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    @pytest.mark.parametrize("cells", [0.7, 5.5])
    def test_acceleration(self, grid, cells):
        # Every column moves by its own shift of up to `cells` cells, both
        # signs.
        rng = np.random.default_rng(2)
        f = rng.random((grid.n_v, grid.spatial.n_x))
        dt = 0.05
        accel = cells * grid.dv / dt * rng.uniform(-1.0, 1.0, grid.spatial.n_x)
        got = vlasov.advect_v(f, grid, accel, dt)
        assert np.max(np.abs(got - reference_advect_v(f, grid, accel, dt))) \
            < KERNEL_TOL * np.max(np.abs(f))

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    def test_acceleration_through_the_box_edge(self, grid):
        # Shifts from a fraction of the box to far beyond it, both signs:
        # mass leaves through the v edges and none comes back in.
        rng = np.random.default_rng(3)
        f = rng.random((grid.n_v, grid.spatial.n_x))
        cells = grid.n_v * rng.uniform(-2.5, 2.5, grid.spatial.n_x)
        accel = cells * grid.dv
        got = vlasov.advect_v(f, grid, accel, 1.0)
        assert np.max(np.abs(got - reference_advect_v(f, grid, accel, 1.0))) \
            < KERNEL_TOL * np.max(np.abs(f))
        gone = np.abs(cells) > grid.n_v + 16
        assert gone.any() and np.all(got[:, gone] == 0.0)
        assert np.sum(got) < 0.9 * np.sum(f)

    def test_each_grid_and_dt_uses_its_own_table(self):
        rng = np.random.default_rng(4)
        fields = {grid: rng.random((grid.n_v, grid.spatial.n_x))
                  for grid in KERNEL_GRIDS}
        for _ in range(2):
            for dt in (0.1, -0.37):
                for grid, f in fields.items():
                    got = vlasov.advect_x(f, grid, dt)
                    want = reference_advect_x(f, grid, dt)
                    assert np.max(np.abs(got - want)) < KERNEL_TOL


class TestStep:
    def test_zero_perturbation_stays_quiet(self):
        grid = make_grid()
        state = vlasov.initial_state(grid, projected_fd_finite_t(t_over_tf=0.01))
        for _ in range(40):
            state = vlasov.step(state, 0.05)
        fe, _, _, _ = vlasov.diagnostics(state)
        assert fe < 1e-20

    def test_time_advances(self):
        grid = make_grid(n_x=32, n_v=32)
        state = vlasov.initial_state(grid, projected_fd_zero_t())
        state = vlasov.step(state, 0.05)
        assert state.time == pytest.approx(0.05)

    def test_conservation_over_moderate_horizon(self):
        grid = make_grid()
        state = vlasov.initial_state(grid, projected_fd_finite_t(t_over_tf=0.01),
                                     Perturbation(0.1, 1.0))
        m0, e0 = total_mass(state), total_energy(state)
        p0 = total_momentum(state)
        for _ in range(400):  # t = 20
            state = vlasov.step(state, 0.05)
        assert abs(total_mass(state) - m0) / m0 < 1e-6
        assert abs(total_energy(state) - e0) / e0 < 1e-3
        assert abs(total_momentum(state) - p0) < 1e-6

    def test_distribution_stays_essentially_nonnegative(self):
        grid = make_grid()
        state = vlasov.initial_state(grid, projected_fd_finite_t(t_over_tf=0.01),
                                     Perturbation(0.1, 1.0))
        for _ in range(100):
            state = vlasov.step(state, 0.05)
        assert state.f.min() > -2e-2 * state.f.max()  # spline undershoot only


class TestLinearRegime:
    def test_oscillation_frequency_matches_dispersion_root(self):
        # Small seeded mode: the density-mode frequency of the simulation
        # matches the kinetic root at the same wavenumber.
        grid = make_grid(n_x=128, n_v=256)
        eq = projected_fd_finite_t(t_over_tf=0.01)
        state = vlasov.initial_state(grid, eq, Perturbation(0.01, 1.0))
        dt, n_steps = 0.05, 800
        amp = []
        for _ in range(n_steps):
            state = vlasov.step(state, dt)
            n, _, _ = moments(state.f, grid)
            amp.append(np.fft.rfft(n)[1])
        sig = np.asarray(amp) * np.hanning(n_steps)
        spec = np.abs(np.fft.fft(sig))
        freqs = 2.0 * np.pi * np.fft.fftfreq(n_steps, d=dt)
        i = int(np.argmax(spec))
        # parabolic refinement of the spectral peak
        num = spec[(i - 1) % n_steps] - spec[(i + 1) % n_steps]
        den = spec[(i - 1) % n_steps] - 2 * spec[i] + spec[(i + 1) % n_steps]
        delta = 0.5 * num / den if den != 0 else 0.0
        omega_meas = abs(freqs[i] + delta * (freqs[1] - freqs[0]))
        model = DielectricModel(VLASOV_KINETIC, equilibrium=eq)
        root = solve_root(model, 1.0)
        assert omega_meas == pytest.approx(root.omega.real, rel=0.01)
