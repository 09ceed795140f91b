"""Quantum phase-space transport: splitting exactness, conservation, the
harmonic-oscillator oracle and the semiclassical limit."""

import tracemalloc
import warnings

import numpy as np
import pytest

from qplasma import vlasov, wigner
from qplasma.equilibria import (Equilibrium1D, Perturbation, hbar_eff,
                                projected_fd_finite_t, projected_fd_zero_t)
from qplasma.fields import (PhaseSpaceGrid, SpatialGrid, moments,
                            poisson_periodic)


def make_grid(n_x=64, n_v=128, v_max=3.0, length=2.0 * np.pi):
    return PhaseSpaceGrid(SpatialGrid(length, n_x), v_max, n_v)


class TestStepBasics:
    def test_requires_positive_h(self):
        grid = make_grid()
        state = wigner.initial_state(grid, projected_fd_zero_t(), 0.0)
        with pytest.raises(ValueError):
            wigner.step(state, 0.05)

    def test_without_field_matches_free_streaming(self):
        grid = make_grid()
        state = wigner.initial_state(grid, projected_fd_finite_t(t_over_tf=0.05),
                                     1.0, Perturbation(0.2, 1.0))
        f_expected = state.f.copy()
        for _ in range(10):
            f_expected = wigner.advect_x(f_expected, grid, 0.05)
        f = state.f
        for _ in range(10):
            f = wigner.advect_x(wigner.advect_x(f, grid, 0.025), grid, 0.025)
        assert np.max(np.abs(f - f_expected)) < 1e-13

    def test_field_kick_leaves_density_untouched(self):
        # The kick acts only on nonzero dual modes, so the velocity
        # integral is pointwise invariant.
        grid = make_grid()
        state = wigner.initial_state(grid, projected_fd_finite_t(t_over_tf=0.05),
                                     1.0, Perturbation(0.2, 1.0))
        from qplasma.fields import poisson_periodic
        n0 = np.sum(state.f, axis=0) * grid.dv
        phi = poisson_periodic(n0, grid.spatial)
        kicked = wigner.potential_kick(state.f, grid, 1.0, 0.5, phi)
        n1 = np.sum(kicked, axis=0) * grid.dv
        assert np.max(np.abs(n1 - n0)) < 1e-13

    def test_mass_conserved_to_spectral_accuracy(self):
        grid = make_grid()
        state = wigner.initial_state(grid, projected_fd_finite_t(t_over_tf=0.01),
                                     1.0, Perturbation(0.1, 1.0))
        m0 = float(np.sum(state.f))
        for _ in range(100):
            state = wigner.step(state, 0.05)
        assert abs(float(np.sum(state.f)) - m0) / m0 < 1e-10

    def test_momentum_of_symmetric_data_stays_zero(self):
        grid = make_grid()
        state = wigner.initial_state(grid, projected_fd_finite_t(t_over_tf=0.01),
                                     1.0, Perturbation(0.1, 1.0))
        for _ in range(100):
            state = wigner.step(state, 0.05)
        _, flux, _ = moments(state.f, grid)
        assert abs(float(np.mean(flux))) < 1e-6

    def test_output_is_real_valued_array(self):
        grid = make_grid()
        state = wigner.initial_state(grid, projected_fd_zero_t(), 0.5,
                                     Perturbation(0.3, 1.0))
        for _ in range(20):
            state = wigner.step(state, 0.05)
        assert state.f.dtype == np.float64
        assert np.all(np.isfinite(state.f))

    def test_negative_values_develop_in_strong_quantum_runs(self):
        grid = make_grid(n_x=64, n_v=128)
        state = wigner.initial_state(grid, projected_fd_finite_t(t_over_tf=0.01),
                                     1.0, Perturbation(0.1, 1.0))
        for _ in range(200):  # t = 10
            state = wigner.step(state, 0.05)
        assert state.f.min() < -1e-3 * state.f.max()

    def test_large_kick_phase_warns(self):
        grid = make_grid(n_v=32)
        state = wigner.initial_state(grid, projected_fd_zero_t(), 0.05)
        steep = 50.0 * np.cos(grid.spatial.x)
        with pytest.warns(RuntimeWarning, match="aliasing"):
            wigner.potential_kick(state.f, grid, 0.05, 0.5, steep)


# The full-spectrum kernels the half-spectrum ones replaced, kept as the
# reference: every table rebuilt per call, the kick on all n_v dual rows.
def reference_advect_x(f, grid, dt):
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.spatial.n_x, d=grid.spatial.dx)
    fhat = np.fft.rfft(f, axis=1)
    fhat *= np.exp(-1j * k[None, :] * grid.v[:, None] * dt)
    return np.fft.irfft(fhat, n=grid.spatial.n_x, axis=1)


def reference_potential_kick(f, grid, H, dt, phi, external_potential=None):
    hbar = hbar_eff(H)
    lam = wigner.lambda_nodes(grid, H)
    x = grid.spatial.x
    dV = np.zeros((grid.n_v, grid.spatial.n_x))
    if phi is not None:
        k = grid.spatial.wavenumbers
        shift = 2j * np.sin(0.5 * k[None, :] * lam[:, None])
        dV -= np.fft.ifft(np.fft.fft(phi)[None, :] * shift, axis=1).real
    if external_potential is not None:
        dV += (external_potential(x[None, :] + 0.5 * lam[:, None])
               - external_potential(x[None, :] - 0.5 * lam[:, None]))
    mult = np.exp(1j * (dt / hbar) * dV)
    mult[grid.n_v // 2, :] = 1.0
    return np.fft.ifft(np.fft.fft(f, axis=0) * mult, axis=0).real


# Odd and even n_x, and n_v below and above n_x.
KERNEL_GRIDS = [make_grid(n_x=33, n_v=48, v_max=2.0),
                make_grid(n_x=64, n_v=40, v_max=3.0, length=5.0)]
KERNEL_TOL = 1e-13


def random_potential(grid, rng):
    phi = rng.uniform(-0.5, 0.5, grid.spatial.n_x)
    return phi - phi.mean()


class TestKernelsMatchReference:
    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    @pytest.mark.parametrize("dt", [0.025, -0.3])
    def test_free_streaming_is_bit_identical(self, grid, dt):
        f = np.random.default_rng(1).random((grid.n_v, grid.spatial.n_x))
        assert np.array_equal(wigner.advect_x(f, grid, dt),
                              reference_advect_x(f, grid, dt))

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    @pytest.mark.parametrize("H", [0.5, 2.0])
    @pytest.mark.parametrize("field", ["self", "pointwise"])
    def test_kick(self, grid, H, field):
        rng = np.random.default_rng(2)
        f = rng.random((grid.n_v, grid.spatial.n_x))
        dt = 0.01
        if field == "self":
            phi = random_potential(grid, rng)
            want = reference_potential_kick(f, grid, H, dt, phi)
        else:
            # A band-limited phi given as a function: the reference
            # evaluates the potential energy -phi directly at x +/- lam/2,
            # an oracle that shares nothing with the spectral shift.
            kx = 2.0 * np.pi / grid.spatial.length * np.arange(1, 6)
            a, b = rng.uniform(-0.2, 0.2, (2, kx.size))
            phi_of = lambda y: (a * np.cos(kx * y[..., None])
                                + b * np.sin(kx * y[..., None])).sum(axis=-1)
            want = reference_potential_kick(f, grid, H, dt, None,
                                            lambda y: -phi_of(y))
            phi = phi_of(grid.spatial.x)
        got = wigner.potential_kick(f, grid, H, dt, phi)
        assert np.max(np.abs(got - want)) < KERNEL_TOL * np.max(np.abs(f))
        # Far from the identity: the kick moved f by much more than the
        # tolerance.
        assert np.max(np.abs(got - f)) > 1e-3 * np.max(np.abs(f))

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    @pytest.mark.parametrize("H, dt", [(0.5, 0.01), (2.0, -0.05)])
    def test_kick_matches_the_cos_sin_factor(self, grid, H, dt):
        rng = np.random.default_rng(5)
        f = rng.random((grid.n_v, grid.spatial.n_x))
        phi = random_potential(grid, rng)
        got = wigner.potential_kick(f, grid, H, dt, phi)
        want = cos_sin_potential_kick(f, grid, H, dt, phi)
        assert np.max(np.abs(got - want)) < KERNEL_TOL * np.max(np.abs(f))
        assert np.max(np.abs(got - f)) > 1e-3 * np.max(np.abs(f))

    def test_each_grid_h_and_dt_uses_its_own_table(self):
        rng = np.random.default_rng(4)
        fields = {grid: (rng.random((grid.n_v, grid.spatial.n_x)),
                         random_potential(grid, rng))
                  for grid in KERNEL_GRIDS}
        for _ in range(2):
            for H, dt in ((0.5, 0.02), (2.0, -0.05)):
                for grid, (f, phi) in fields.items():
                    assert np.array_equal(wigner.advect_x(f, grid, dt),
                                          reference_advect_x(f, grid, dt))
                    got = wigner.potential_kick(f, grid, H, dt, phi)
                    want = reference_potential_kick(f, grid, H, dt, phi)
                    assert np.max(np.abs(got - want)) < KERNEL_TOL

    def test_coupled_steps_match_the_reference_splitting(self):
        grid = make_grid(n_x=64, n_v=128)
        state = wigner.initial_state(grid, projected_fd_finite_t(t_over_tf=0.01),
                                     1.0, Perturbation(0.1, 1.0))
        f_ref = state.f
        dt = 0.05
        for _ in range(20):
            state = wigner.step(state, dt)
            f_ref = reference_advect_x(f_ref, grid, 0.5 * dt)
            phi = poisson_periodic(np.sum(f_ref, axis=0) * grid.dv,
                                   grid.spatial)
            f_ref = reference_potential_kick(f_ref, grid, 1.0, dt, phi)
            f_ref = reference_advect_x(f_ref, grid, 0.5 * dt)
        assert np.max(np.abs(state.f - f_ref)) < 1e-12 * np.max(np.abs(f_ref))


def kick_factor(theta):
    """The kernel's factor exp(i theta), formed from half of theta as the
    kick forms it."""
    out = np.empty(np.shape(theta), dtype=complex)
    return wigner._kick_factor(0.5 * np.asarray(theta, dtype=float), out)


class TestKickFactor:
    # The factor comes from one tan of the half phase; cos and sin of the
    # whole phase are the reference.  An ulp is that of the reference
    # component, or that of 1 for the sampled phases, whose factor has
    # modulus 1.
    ULPS = 4
    PI_NEIGHBOURS = np.nextafter(np.pi, [0.0, 4.0])
    LARGEST_SUBNORMAL = np.nextafter(np.finfo(float).smallest_normal, 0.0)
    SPECIAL = np.array([0.0, -0.0, np.pi, -np.pi, *PI_NEIGHBOURS,
                        *-PI_NEIGHBOURS, 2 * np.pi, -2 * np.pi, 3 * np.pi,
                        -3 * np.pi, 4 * np.pi, -4 * np.pi, 5e-324, -5e-324,
                        1e-310, -1e-310, LARGEST_SUBNORMAL,
                        -LARGEST_SUBNORMAL])

    def test_special_phases_within_four_ulp_of_each_component(self):
        theta = self.SPECIAL
        got = kick_factor(theta)
        for part, want in ((got.real, np.cos(theta)), (got.imag, np.sin(theta))):
            assert np.all(np.abs(part - want)
                          <= self.ULPS * np.spacing(np.abs(want)))

    def test_phases_up_to_four_pi_within_four_ulp_of_one(self):
        theta = np.random.default_rng(6).uniform(-4 * np.pi, 4 * np.pi, 100_000)
        theta = np.concatenate([theta, self.SPECIAL])
        got = kick_factor(theta)
        ulp = np.spacing(1.0)
        assert np.max(np.abs(got.real - np.cos(theta))) <= self.ULPS * ulp
        assert np.max(np.abs(got.imag - np.sin(theta))) <= self.ULPS * ulp
        assert np.max(np.abs(np.abs(got) - 1.0)) <= self.ULPS * ulp

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    def test_the_lambda_zero_and_nyquist_rows_are_exactly_one(self, grid):
        rng = np.random.default_rng(7)
        f = rng.random((grid.n_v, grid.spatial.n_x))
        phi = random_potential(grid, rng)
        wigner.potential_kick(f, grid, 2.0, 0.05, phi)
        # The kick factor is left in work array B.
        shape = (grid.n_v // 2 + 1, grid.spatial.n_x)
        kick = vlasov._work(grid, 1, shape)
        assert np.all(kick[[0, -1]] == 1.0)
        assert not np.all(kick[1:-1] == 1.0)

    def test_nan_propagates_without_a_warning(self):
        theta = np.array([np.nan, -np.nan, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kick_factor(theta)
        assert np.all(np.isnan(got.real[:2])) and np.all(np.isnan(got.imag[:2]))
        assert np.isfinite(got[2])


# The kernels before the work arrays: every spectrum, mid-step f and kick
# factor in a new array.  The work arrays keep the bits.
def fresh_advect_x(f, grid, dt):
    fhat = np.fft.rfft(f, axis=1)
    fhat *= wigner._stream_table(grid, dt)
    return np.fft.irfft(fhat, n=grid.spatial.n_x, axis=1)


def fresh_potential_kick(f, grid, H, dt, phi):
    half = np.fft.irfft(np.fft.rfft(phi) * (-0.5 * dt / hbar_eff(H))
                        * wigner._kick_shift(grid, H),
                        n=grid.spatial.n_x, axis=1)
    half[-1] = 0.0
    t = np.tan(half)
    r = 2.0 / (1.0 + t * t)
    kick = np.empty(half.shape, dtype=complex)
    kick.real = r - 1.0
    kick.imag = t * r
    g = np.fft.rfft(f, axis=0)
    g *= kick
    return np.fft.irfft(g, n=grid.n_v, axis=0)


def cos_sin_potential_kick(f, grid, H, dt, phi):
    """The kick before the half-angle factor: the whole phase, and the
    factor from a cos and a sin of it.  The tan factor matches it to
    round-off."""
    scale = dt / hbar_eff(H)
    phase = -np.fft.irfft(np.fft.rfft(phi) * scale * wigner._kick_shift(grid, H),
                          n=grid.spatial.n_x, axis=1)
    phase[-1] = 0.0
    kick = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=kick.real)
    np.sin(phase, out=kick.imag)
    g = np.fft.rfft(f, axis=0)
    g *= kick
    return np.fft.irfft(g, n=grid.n_v, axis=0)


def fresh_step(f, grid, H, dt):
    f = fresh_advect_x(f, grid, 0.5 * dt)
    phi = poisson_periodic(np.sum(f, axis=0) * grid.dv, grid.spatial)
    f = fresh_potential_kick(f, grid, H, dt, phi)
    return fresh_advect_x(f, grid, 0.5 * dt)


def quantum_state(n_x, n_v):
    return wigner.initial_state(make_grid(n_x=n_x, n_v=n_v),
                                projected_fd_finite_t(t_over_tf=0.01), 1.0,
                                Perturbation(0.1, 1.0))


class TestWorkArrays:
    # Square, n_x < n_v and n_x > n_v: the work arrays must hold a spectrum
    # over either axis.
    @pytest.mark.parametrize("n_x, n_v", [(256, 256), (64, 256), (128, 32)])
    def test_hundred_steps_match_the_fresh_kernels_bit_for_bit(self, n_x, n_v):
        state = quantum_state(n_x, n_v)
        f0 = state.f.copy()
        f_ref = state.f
        for _ in range(100):
            state = wigner.step(state, 0.05)
            f_ref = fresh_step(f_ref, state.grid, 1.0, 0.05)
        assert np.array_equal(state.f, f_ref)
        assert np.max(np.abs(state.f - f0)) > 1e-3 * np.max(f0)

    @pytest.mark.parametrize("grid", KERNEL_GRIDS + [make_grid(n_x=32, n_v=64)])
    def test_inputs_are_kept_and_outputs_own_their_memory(self, grid):
        rng = np.random.default_rng(9)
        f = rng.random((grid.n_v, grid.spatial.n_x))
        f *= 1.0 / (np.mean(np.sum(f, axis=0)) * grid.dv)  # a neutral box
        phi = random_potential(grid, rng)
        before = f.copy()
        outs = [wigner.advect_x(f, grid, 0.1), wigner.advect_x(f, grid, -0.2),
                wigner.potential_kick(f, grid, 0.5, 0.01, phi),
                wigner.potential_kick(f, grid, 2.0, 0.02, phi)]
        state = wigner.WignerState(f, grid, 1.0)
        outs.append(wigner.step(state, 0.05).f)
        assert np.array_equal(f, before)
        held = [f, *outs, *vlasov._scratch(grid)]
        for i, a in enumerate(outs):
            for b in held[:i + 1] + held[i + 2:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    def test_out_takes_the_result_even_when_it_is_the_input(self, grid):
        rng = np.random.default_rng(10)
        f = rng.random((grid.n_v, grid.spatial.n_x))
        phi = random_potential(grid, rng)
        for kernel, args in ((wigner.advect_x, (0.1,)),
                             (wigner.potential_kick, (0.5, 0.01, phi))):
            want = kernel(f, grid, *args)
            out = np.empty_like(f)
            assert kernel(f, grid, *args, out=out) is out
            assert np.array_equal(out, want)
            assert kernel(out, grid, *args, out=out) is out
            assert np.array_equal(out, kernel(want, grid, *args))

    def test_grids_beyond_the_cache_size_keep_their_bits(self):
        # Six grids stepped in turn evict one another's work arrays.
        states = [quantum_state(n_x, n_v) for n_x, n_v in
                  ((16, 16), (16, 32), (32, 16), (32, 32), (64, 16), (16, 64))]
        alone = [fresh_step(fresh_step(s.f, s.grid, 1.0, 0.05), s.grid, 1.0,
                            0.05) for s in states]
        for _ in range(2):
            states = [wigner.step(s, 0.05) for s in states]
        for s, want in zip(states, alone):
            assert np.array_equal(s.f, want)

    def test_a_warm_step_allocates_about_its_output(self):
        # 256x256, as in the acceptance runs.  With every stage in a new
        # array the peak was 4.5 f.nbytes; with the work arrays it is the
        # step's output plus the kick phase temporaries, about 1.1.
        state = wigner.step(quantum_state(256, 256), 0.05)  # warm-up
        tracemalloc.start()
        try:
            wigner.step(state, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * state.f.nbytes


def well_step(f, grid, H, dt, well):
    """One Strang step in the external potential energy `well` alone.  The
    well is not periodic, so the reference kick evaluates it directly at
    x +/- lam/2; the library kick takes only a periodic phi."""
    f = wigner.advect_x(f, grid, 0.5 * dt)
    f = reference_potential_kick(f, grid, H, dt, phi=None,
                                 external_potential=well)
    return wigner.advect_x(f, grid, 0.5 * dt)


class TestHarmonicOracle:
    def test_centroid_follows_the_classical_split_trajectory(self):
        # In a harmonic well the force is linear, so the phase-space
        # centroid of the quantum state obeys the classical equations
        # exactly; with a shared splitting the solver centroid must track
        # the classical split-step particle to near round-off.
        length = 4.0 * np.pi
        grid = make_grid(n_x=128, n_v=64, v_max=4.0, length=length)
        x0 = 0.5 * length
        omega0 = 1.0
        well = lambda y: 0.5 * omega0**2 * (y - x0) ** 2
        sx = sv = 0.5
        xx = grid.spatial.x[None, :]
        vv = grid.v[:, None]
        f = np.exp(-0.5 * ((xx - x0 - 1.0) / sx) ** 2
                   - 0.5 * (vv / sv) ** 2)

        dt, n_steps = 0.01, 200
        xc, vc = x0 + 1.0, 0.0
        for _ in range(n_steps):
            f = well_step(f, grid, 0.5, dt, well)
            # identical Strang splitting for the classical particle
            xc += 0.5 * dt * vc
            vc -= dt * omega0**2 * (xc - x0)
            xc += 0.5 * dt * vc
        n, flux, _ = moments(f, grid)
        mass = float(np.sum(n)) * grid.spatial.dx
        x_mean = float(np.sum(n * grid.spatial.x)) * grid.spatial.dx / mass
        v_mean = float(np.sum(flux)) * grid.spatial.dx / mass
        assert x_mean == pytest.approx(xc, abs=1e-8)
        assert v_mean == pytest.approx(vc, abs=1e-8)

    def test_centroid_frequency_is_the_well_frequency(self):
        # Quarter-period check: the centroid crosses the well center with
        # the classical period 2 pi / omega0 up to O(dt^2).
        length = 4.0 * np.pi
        grid = make_grid(n_x=128, n_v=64, v_max=4.0, length=length)
        x0 = 0.5 * length
        well = lambda y: 0.5 * (y - x0) ** 2
        xx = grid.spatial.x[None, :]
        vv = grid.v[:, None]
        f = np.exp(-0.5 * ((xx - x0 - 1.0) / 0.5) ** 2
                   - 0.5 * (vv / 0.5) ** 2)
        dt = 0.01
        n_quarter = int(round(0.5 * np.pi / dt))
        for _ in range(n_quarter):
            f = well_step(f, grid, 0.5, dt, well)
        n, _, _ = moments(f, grid)
        mass = float(np.sum(n)) * grid.spatial.dx
        x_mean = float(np.sum(n * grid.spatial.x)) * grid.spatial.dx / mass
        assert x_mean == pytest.approx(x0, abs=1e-3)


def semiclassical_limit_check(grid: PhaseSpaceGrid, eq: Equilibrium1D,
                              perturbation: Perturbation | None,
                              H_list, t_end: float = 5.0, dt: float = 0.02):
    """Sup-norm deviation of quantum runs from the classical run.

    All runs share the grid, initial data and horizon.  Returns a list of
    (H, deviation) pairs; the leading quantum correction is O(hbar^2), so
    deviations should fall with slope 2 in log-log as H decreases.
    """
    n_steps = int(round(t_end / dt))
    ref = vlasov.initial_state(grid, eq, perturbation)
    for _ in range(n_steps):
        ref = vlasov.step(ref, dt)
    table = []
    for H in H_list:
        st = wigner.initial_state(grid, eq, H, perturbation)
        for _ in range(n_steps):
            st = wigner.step(st, dt)
        table.append((float(H), float(np.max(np.abs(st.f - ref.f)))))
    return table


@pytest.fixture(scope="module")
def deviations():
    grid = make_grid(n_x=64, n_v=128)
    eq = projected_fd_finite_t(t_over_tf=0.05)
    return semiclassical_limit_check(
        grid, eq, Perturbation(0.05, 1.0), [0.5, 0.25, 0.125],
        t_end=5.0, dt=0.02)


class TestSemiclassicalLimit:
    def test_deviation_monotone_in_h(self, deviations):
        devs = [d for _, d in deviations]
        assert devs[0] > devs[1] > devs[2] > 0

    def test_quadratic_convergence_rate(self, deviations):
        hs = np.array([h for h, _ in deviations])
        devs = np.array([d for _, d in deviations])
        slope = np.polyfit(np.log(hs), np.log(devs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.4)

    def test_deviation_grows_with_time_at_fixed_h(self):
        grid = make_grid(n_x=64, n_v=128)
        eq = projected_fd_finite_t(t_over_tf=0.05)
        short = semiclassical_limit_check(
            grid, eq, Perturbation(0.05, 1.0), [0.25], t_end=2.0, dt=0.02)
        long = semiclassical_limit_check(
            grid, eq, Perturbation(0.05, 1.0), [0.25], t_end=5.0, dt=0.02)
        assert 0 < short[0][1] < long[0][1]

    def test_zero_horizon_has_zero_deviation(self):
        grid = make_grid(n_x=32, n_v=64)
        eq = projected_fd_zero_t()
        table = semiclassical_limit_check(
            grid, eq, Perturbation(0.05, 1.0), [0.5], t_end=0.0, dt=0.02)
        assert table[0][1] == 0.0
