"""Semi-Lagrangian kinetic solver: advection exactness, conservation and
the linear oscillation frequency against the root finder."""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import map_coordinates, spline_filter1d

from qplasma import simulate, vlasov, wigner
from qplasma.config import ScenarioConfig
from qplasma.dispersion import VLASOV_KINETIC, DielectricModel, solve_root
from qplasma.equilibria import (Perturbation, projected_fd_finite_t,
                                projected_fd_zero_t)
from qplasma.fields import (PhaseSpaceGrid, SpatialGrid, moments,
                            poisson_periodic, spectral_derivative)


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


def gather_advect_v(f, grid, accel, dt):
    """The v-advection kernel before the scratch buffers: a four-tap gather
    from a freshly zero-padded coefficient array, transposed at the end.
    The kernel keeps its bits."""
    n_v, n_x = f.shape
    pad = vlasov._PREFILTER_PAD
    foot = -accel * dt / grid.dv
    first = np.floor(foot)
    weights = vlasov._spline_taps(foot - first)[:, :, None]  # (4, n_x, 1)
    first = np.clip(np.nan_to_num(first), -(n_v + pad + 2), n_v + pad + 1)
    margin = n_v + pad + 3
    coeffs = np.zeros((n_v + 2 * margin, n_x))
    box = coeffs[margin - pad:margin + n_v + pad]
    box[pad:pad + n_v] = f
    spline_filter1d(box, axis=0, mode="grid-constant", output=box)
    windows = sliding_window_view(coeffs, n_v + 3, axis=0)
    g = windows[margin - 1 + first.astype(np.intp), np.arange(n_x)]
    out = weights[0] * g[:, :n_v]
    for q in range(1, 4):
        out += weights[q] * g[:, q:q + n_v]
    return np.ascontiguousarray(out.T)


def take_advect_v(f, grid, accel, dt):
    """The v-advection kernel before the column windows: coefficients
    indexed [i_x, i_v], one flat np.take per tap into taps indexed
    [i_x, i_v], the columns whose foot lies beyond the padding gathered
    again with clipped taps, and the taps transposed at the end.  The
    windows keep its bits."""
    n_v, n_x = f.shape
    pad = vlasov._PREFILTER_PAD
    foot = -accel * dt / grid.dv
    first = np.floor(foot)
    weights = vlasov._spline_taps(foot - first)[:, :, None]  # (4, n_x, 1)
    first = np.clip(np.nan_to_num(first), -(n_v + pad + 2), n_v + pad + 1)
    coeffs = np.zeros((n_x, n_v + 2 * pad + 2))
    coeffs[:, pad + 1:pad + 1 + n_v] = f.T
    box = coeffs[:, 1:-1]
    spline_filter1d(box, axis=1, mode="grid-constant", output=box)
    width = coeffs.shape[1]
    near = np.clip(first, -pad, pad - 1).astype(np.intp) + pad
    index = (np.arange(0, n_x * width, width) + near)[:, None] + np.arange(n_v)
    flat = coeffs.reshape(-1)
    taps = np.take(flat, index, mode="clip") * weights[0]
    for q in range(1, 4):
        index += 1
        taps += np.take(flat, index, mode="clip") * weights[q]
    far = np.flatnonzero((first < -pad) | (first >= pad))
    if far.size:
        rows = np.clip(first[far].astype(np.intp)[:, None] + pad
                       + np.arange(n_v + 3), 0, width - 1)
        window = coeffs[far[:, None], rows]
        taps[far] = window[:, :n_v] * weights[0, far]
        for q in range(1, 4):
            taps[far] += window[:, q:q + n_v] * weights[q, far]
    return np.ascontiguousarray(taps.T)


def multiply_add_advect_v(f, grid, accel, dt):
    """The v-advection kernel before the one-pass tap sum: the column
    windows of the kernel, then a multiply and an add per tap in new
    arrays.  The einsum over the window keeps its bits."""
    n_v, n_x = f.shape
    pad = vlasov._PREFILTER_PAD
    foot = -accel * dt / grid.dv
    first = np.floor(foot)
    weights = vlasov._spline_taps(foot - first)
    first = np.clip(np.nan_to_num(first), -(n_v + pad + 2), n_v + pad + 1)
    coeffs = np.zeros((n_x, n_v + 2 * pad + 2))
    coeffs[:, pad + 1:pad + 1 + n_v] = f.T
    box = coeffs[:, 1:-1]
    spline_filter1d(box, axis=1, mode="grid-constant", output=box)
    start = first.astype(np.intp) + pad
    window = np.empty((n_v + 3, n_x))
    for i, s in enumerate(start):
        window[:, i] = np.take(coeffs[i], range(s, s + n_v + 3), mode="clip")
    out = window[:n_v] * weights[0]
    for q in range(1, 4):
        out += window[q:q + n_v] * weights[q]
    return out


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
        assert np.max(np.abs(got - gather_advect_v(f, grid, accel, dt))) == 0

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
        assert np.max(np.abs(got - gather_advect_v(f, grid, accel, 1.0))) == 0
        gone = np.abs(cells) > grid.n_v + 16
        assert gone.any() and np.all(got[:, gone] == 0.0)
        assert np.sum(got) < 0.9 * np.sum(f)

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    def test_non_finite_acceleration_spoils_only_its_column(self, grid):
        rng = np.random.default_rng(5)
        f = rng.random((grid.n_v, grid.spatial.n_x))
        accel = rng.uniform(-1.0, 1.0, grid.spatial.n_x)
        accel[[2, 5]] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            got = vlasov.advect_v(f, grid, accel, 0.05)
            want = gather_advect_v(f, grid, accel, 0.05)
        ok = np.isfinite(accel)
        assert np.all(np.isfinite(got[:, ok]))
        assert not np.any(np.isfinite(got[:, ~ok]))
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert np.max(np.abs(got[:, ok] - want[:, ok])) == 0

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


class TestScratchBuffers:
    @staticmethod
    def outputs(f, grid):
        accel = np.random.default_rng(6).uniform(-3.0, 3.0, grid.spatial.n_x)
        return [vlasov.advect_v(f, grid, accel, 0.05),
                vlasov.advect_v(f, grid, -accel, 0.05),
                vlasov.advect_x(f, grid, 0.1),
                vlasov.advect_x(f, grid, -0.2)]

    @pytest.mark.parametrize("grid", KERNEL_GRIDS + [make_grid(n_x=32, n_v=64)])
    def test_outputs_own_their_memory_and_the_input_is_kept(self, grid):
        f = np.random.default_rng(7).random((grid.n_v, grid.spatial.n_x))
        f *= 1.0 / (np.mean(np.sum(f, axis=0)) * grid.dv)  # a neutral box
        before = f.copy()
        outs = self.outputs(f, grid)
        outs.append(vlasov.step(vlasov.VlasovState(f, grid), 0.05).f)
        assert np.array_equal(f, before)
        held = [f, *outs, *vlasov._scratch(grid), *vlasov._v_scratch(grid)]
        for i, a in enumerate(outs):
            for b in held[:i + 1] + held[i + 2:]:
                assert not np.shares_memory(a, b)

    def test_interleaved_grids_give_the_same_bits(self):
        rng = np.random.default_rng(8)
        fields = [rng.random((g.n_v, g.spatial.n_x)) for g in KERNEL_GRIDS]
        alone = [self.outputs(f, g) for f, g in zip(fields, KERNEL_GRIDS)]
        for _ in range(2):
            for (f, g), want in zip(zip(fields, KERNEL_GRIDS), alone):
                for got, w in zip(self.outputs(f, g), want):
                    assert np.array_equal(got, w)

    def test_a_step_allocates_little_beyond_its_output(self):
        # The 256x256 acceptance set-up.  The spectra, the mid-step f and
        # advect_v's coefficients live in cached arrays, so the peak is the
        # step's output and the boolean mask of its finiteness check, about
        # 1.1 f.nbytes (7.4 with every array made afresh, 3.0 with only
        # advect_v's scratch cached).
        cfg = ScenarioConfig(model="vlasov", n_x=256, n_v=256)
        state = vlasov.step(simulate.build_initial(cfg), cfg.dt)  # warm-up
        tracemalloc.start()
        try:
            vlasov.step(state, cfg.dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * state.f.nbytes


# The kernels before the work arrays: the spectrum, the mid-step f and the
# result of advect_v in new arrays, and advect_v's coefficients indexed
# [i_v, i_x].  The work arrays and the [i_x, i_v] layout keep the bits.
def fresh_advect_x(f, grid, dt):
    fhat = np.fft.rfft(f, axis=1)
    fhat *= vlasov._x_shift_table(grid, dt)
    return np.fft.irfft(fhat, n=f.shape[1], axis=1)


def fresh_advect_v(f, grid, accel, dt):
    n_v, n_x = f.shape
    pad = vlasov._PREFILTER_PAD
    foot = -accel * dt / grid.dv
    first = np.floor(foot)
    weights = vlasov._spline_taps(foot - first)
    first = np.clip(np.nan_to_num(first), -(n_v + pad + 2), n_v + pad + 1)
    coeffs = np.zeros((n_v + 2 * pad + 2, n_x))
    coeffs[pad + 1:pad + 1 + n_v] = f
    box = coeffs[1:-1]
    spline_filter1d(box, axis=0, mode="grid-constant", output=box)
    index = (np.arange(0, n_v * n_x, n_x)[:, None]
             + (first.astype(np.intp) + pad) * n_x + np.arange(n_x))
    flat = coeffs.reshape(-1)
    out = np.take(flat, index, mode="clip") * weights[0]
    for q in range(1, 4):
        index += n_x
        out += np.take(flat, index, mode="clip") * weights[q]
    return out


def fresh_step(f, grid, dt):
    f = fresh_advect_x(f, grid, 0.5 * dt)
    phi = poisson_periodic(np.sum(f, axis=0) * grid.dv, grid.spatial)
    f = fresh_advect_v(f, grid, spectral_derivative(phi, grid.spatial), dt)
    return fresh_advect_x(f, grid, 0.5 * dt)


def classical_state(n_x, n_v):
    # A weak seed and a wide box: at n_v = 32 a stronger one loses mass
    # through the velocity edge until the field solve refuses the box
    # (tests/test_simulate.py, test_coarse_velocity_grid_is_rejected_or_runs).
    return vlasov.initial_state(make_grid(n_x=n_x, n_v=n_v, v_max=4.0),
                                projected_fd_finite_t(t_over_tf=0.01),
                                Perturbation(0.01, 1.0))


class TestWorkArrays:
    # Square, n_x < n_v and n_x > n_v.
    @pytest.mark.parametrize("n_x, n_v", [(256, 256), (64, 256), (128, 32)])
    def test_hundred_steps_match_the_fresh_kernels_bit_for_bit(self, n_x, n_v):
        state = classical_state(n_x, n_v)
        f0 = state.f.copy()
        f_ref = state.f
        for _ in range(100):
            state = vlasov.step(state, 0.05)
            f_ref = fresh_step(f_ref, state.grid, 0.05)
        assert np.array_equal(state.f, f_ref)
        assert np.max(np.abs(state.f - f0)) > 1e-3 * np.max(f0)

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    @pytest.mark.parametrize("cells", [0.7, 40.0])
    def test_out_takes_the_result_even_when_it_is_the_input(self, grid, cells):
        # Shifts within the padding and, for 40 cells, far beyond it.
        rng = np.random.default_rng(10)
        f = rng.random((grid.n_v, grid.spatial.n_x))
        accel = cells * grid.dv / 0.05 * rng.uniform(-1.0, 1.0,
                                                     grid.spatial.n_x)
        for kernel, args in ((vlasov.advect_x, (0.1,)),
                             (vlasov.advect_v, (accel, 0.05))):
            want = kernel(f, grid, *args)
            out = np.empty_like(f)
            assert kernel(f, grid, *args, out=out) is out
            assert np.array_equal(out, want)
            assert kernel(out, grid, *args, out=out) is out
            assert np.array_equal(out, kernel(want, grid, *args))
        assert np.array_equal(want, fresh_advect_v(f, grid, accel, 0.05))

    def test_grids_beyond_the_cache_size_keep_their_bits(self):
        # Six grids stepped in turn evict one another's cache entries.
        states = [classical_state(n_x, n_v) for n_x, n_v in
                  ((16, 16), (16, 32), (32, 16), (32, 32), (64, 16), (16, 64))]
        alone = [fresh_step(fresh_step(s.f, s.grid, 0.05), s.grid, 0.05)
                 for s in states]
        for _ in range(2):
            states = [vlasov.step(s, 0.05) for s in states]
        for s, want in zip(states, alone):
            assert np.array_equal(s.f, want)

    @pytest.mark.parametrize("n_x, n_v", [(64, 128), (128, 32)])
    def test_wigner_steps_in_between_keep_both_models_bits(self, n_x, n_v):
        # Both models keep their mid-step f in the same work arrays.
        classical = classical_state(n_x, n_v)
        quantum = wigner.initial_state(classical.grid,
                                       projected_fd_finite_t(t_over_tf=0.01),
                                       1.0, Perturbation(0.01, 1.0))
        c_alone, q_alone = classical, quantum
        for _ in range(20):
            c_alone = vlasov.step(c_alone, 0.05)
        for _ in range(20):
            q_alone = wigner.step(q_alone, 0.05)
        for _ in range(20):
            classical = vlasov.step(classical, 0.05)
            quantum = wigner.step(quantum, 0.05)
        assert np.array_equal(classical.f, c_alone.f)
        assert np.array_equal(quantum.f, q_alone.f)
        assert not np.shares_memory(classical.f, quantum.f)

    def test_a_wigner_run_never_builds_the_v_advection_scratch(self):
        vlasov._v_scratch.cache_clear()
        state = wigner.initial_state(make_grid(n_x=32, n_v=64),
                                     projected_fd_finite_t(t_over_tf=0.01),
                                     1.0, Perturbation(0.1, 1.0))
        for _ in range(3):
            state = wigner.step(state, 0.05)
            wigner.diagnostics(state)
        assert vlasov._v_scratch.cache_info().currsize == 0
        assert vlasov._scratch.cache_info().currsize > 0


def feet(kind, n_x):
    """Feet of the columns' characteristics, in cells, for each layout of
    runs of equal floor that advect_v's column windows must handle."""
    pad = vlasov._PREFILTER_PAD
    i = np.arange(n_x)
    frac = np.random.default_rng(11).uniform(0.05, 0.95, n_x)
    # Floors whose window starts at the lowest and at the highest column
    # that keeps it within its row, and one column beyond each.
    edges = np.array([-pad, pad - 1, -pad - 1, pad])
    return {"one run": frac - 3.0,
            "a few runs": np.floor(2.5 * np.sin(2 * np.pi * i / n_x)) + frac,
            "every column its own run": (-pad + i * 5 % (2 * pad)) + frac,
            "edge runs": edges[i * 4 // n_x] + frac,
            "edge columns": edges[i % 4] + frac}[kind]


class TestColumnWindows:
    # advect_v copies each run of columns of equal foot floor as one window
    # slice and sums the taps in one pass; every layout of runs keeps the
    # bits of the four earlier kernels.
    REFERENCES = (multiply_add_advect_v, take_advect_v, gather_advect_v,
                  fresh_advect_v)
    KINDS = ("one run", "a few runs", "every column its own run",
             "edge runs", "edge columns")

    @staticmethod
    def accel(foot, grid, dt):
        return -foot * grid.dv / dt

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_each_layout_of_runs_keeps_the_bits(self, grid, kind):
        f = np.random.default_rng(12).random((grid.n_v, grid.spatial.n_x))
        foot = feet(kind, grid.spatial.n_x)
        accel = self.accel(foot, grid, 0.05)
        first = np.floor(-accel * 0.05 / grid.dv)
        assert np.array_equal(first, np.floor(foot))
        runs = 1 + np.count_nonzero(np.diff(first))
        assert runs == {"one run": 1, "every column its own run":
                        grid.spatial.n_x, "edge runs": 4,
                        "edge columns": grid.spatial.n_x}.get(kind, runs)
        got = vlasov.advect_v(f, grid, accel, 0.05)
        for reference in self.REFERENCES:  # signs of zero included
            assert got.tobytes() == reference(f, grid, accel, 0.05).tobytes()

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    def test_non_finite_columns_keep_the_bits(self, grid):
        n_v, n_x = grid.n_v, grid.spatial.n_x
        rng = np.random.default_rng(13)
        f = rng.random((n_v, n_x))
        f[[3, 9], 1], f[5, 4], f[0, 6] = np.nan, np.inf, -np.inf
        accel = self.accel(feet("a few runs", n_x), grid, 0.05)
        accel[[2, 7, 8]] = np.nan, np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            got = vlasov.advect_v(f, grid, accel, 0.05)
            for reference in self.REFERENCES:
                assert np.array_equal(got, reference(f, grid, accel, 0.05),
                                      equal_nan=True)
        spoilt = np.zeros(n_x, dtype=bool)
        spoilt[[1, 2, 4, 6, 7, 8]] = True
        assert not np.any(np.isfinite(got[:, [2, 7, 8]]))
        assert np.all(np.isfinite(got[:, ~spoilt]))

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_out_may_be_the_input(self, grid, kind):
        f = np.random.default_rng(14).random((grid.n_v, grid.spatial.n_x))
        accel = self.accel(feet(kind, grid.spatial.n_x), grid, 0.05)
        want = take_advect_v(f, grid, accel, 0.05)
        assert vlasov.advect_v(f, grid, accel, 0.05, out=f) is f
        assert f.tobytes() == want.tobytes()

    def test_the_scratch_holds_no_gather_index(self):
        grid = KERNEL_GRIDS[0]
        f = np.random.default_rng(15).random((grid.n_v, grid.spatial.n_x))
        vlasov.advect_v(f, grid, np.ones(grid.spatial.n_x), 0.05)
        held = vlasov._v_scratch(grid)
        assert not any(np.issubdtype(a.dtype, np.integer) for a in held)

    @pytest.mark.parametrize("kind", [None, "every column its own run"])
    def test_a_warm_call_allocates_almost_nothing(self, kind):
        # The 256x256 acceptance state, with its own field or with every
        # column its own run: the taps are summed straight into `out`.  A
        # ufunc that broadcasts, as the former multiply by each tap's
        # weights did, takes an iterator buffer of np.getbufsize() elements
        # from numpy 2.3 on (64 KB here); the arrays of the call itself
        # stay under 0.1 f.nbytes.  The flat takes peaked at 0.29 f.nbytes,
        # their buffer included; the einsum over the window peaks at 0.05.
        cfg = ScenarioConfig(model="vlasov", n_x=256, n_v=256)
        state = simulate.build_initial(cfg)
        grid = state.grid
        if kind is None:
            phi = poisson_periodic(np.sum(state.f, axis=0) * grid.dv,
                                   grid.spatial)
            accel = spectral_derivative(phi, grid.spatial)
        else:
            accel = self.accel(feet(kind, grid.spatial.n_x), grid, cfg.dt)
        out = np.empty_like(state.f)
        vlasov.advect_v(state.f, grid, accel, cfg.dt, out=out)  # warm-up
        tracemalloc.start()
        try:
            vlasov.advect_v(state.f, grid, accel, cfg.dt, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = np.getbufsize() * state.f.itemsize
        assert peak <= 0.1 * state.f.nbytes + buffer


class TestStep:
    def test_a_non_finite_state_stops_the_step(self):
        # The half stream spreads the NaN along its velocity row, so the
        # density of the field solve is non-finite and the step raises.
        grid = make_grid(n_x=32, n_v=64)
        state = vlasov.initial_state(grid, projected_fd_zero_t())
        state.f[20, 5] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            vlasov.step(state, 0.05)

    def test_a_non_finite_result_stops_the_step_that_made_it(
            self, monkeypatch):
        # One NaN from the acceleration: the last half stream spreads it
        # along its row, and the step must raise rather than return it.
        advect_v = vlasov.advect_v

        def one_nan(*args, **kwargs):
            out = advect_v(*args, **kwargs)
            out[20, 5] = np.nan
            return out

        grid = make_grid(n_x=32, n_v=64)
        state = vlasov.initial_state(grid, projected_fd_zero_t(),
                                     Perturbation(0.01, 1.0))
        monkeypatch.setattr(vlasov, "advect_v", one_nan)
        with pytest.raises(FloatingPointError, match="non-finite"):
            vlasov.step(state, 0.05)

    def test_zero_perturbation_stays_quiet(self):
        grid = make_grid()
        state = vlasov.initial_state(grid, projected_fd_finite_t(t_over_tf=0.01))
        for _ in range(40):
            state = vlasov.step(state, 0.05)
        fe, _, _, _ = vlasov.diagnostics(state)
        assert fe < 1e-20

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
