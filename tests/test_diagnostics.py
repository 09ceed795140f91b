"""Every model's diagnostics against the formulas they replaced.

The library takes the field energy as one Parseval sum over the rfft of the
density, the phase-space kinetic energy and momentum from the row sums of
f, and the wavefunction kinetic energy and momentum from one forward FFT
per stream.  The references here are the direct formulas: the field
through poisson_periodic and spectral_derivative, the phase-space moments
through fields.moments, and psi_x as the inverse FFT of i k psi_k.  The
states carry O(1) momentum (a drifting f, moving streams), content at the
x-Nyquist mode, and odd as well as even n_x, so that a momentum or energy
off by a factor cannot hide behind a total that cancels.
"""

import numpy as np
import pytest

from qplasma import fields, hartree, qfluid, vlasov, wigner
from qplasma.equilibria import (Perturbation, StreamSet, hbar_eff,
                                projected_fd_finite_t)
from qplasma.fields import (PhaseSpaceGrid, SpatialGrid, field_energy,
                            moments, poisson_periodic, spectral_derivative)

N_X = [64, 65, 8, 9]
ROUND_OFF = 1e-14


def reference_field_energy(density, grid):
    efield = spectral_derivative(poisson_periodic(density, grid), grid)
    return 0.5 * float(np.mean(efield**2))


def reference_phase_space(state):
    """(field, kinetic, mass, momentum) and the scale of the momentum."""
    n, flux, second = moments(state.f, state.grid)
    speed = np.abs(state.grid.v)[:, None]
    scale = float(np.mean(moments(np.abs(state.f) * speed, state.grid)[0]))
    return (reference_field_energy(n, state.grid.spatial),
            0.5 * float(np.mean(second)), float(np.mean(n)),
            float(np.mean(flux))), scale


def reference_waves(streams):
    """(field, kinetic, mass, momentum) with psi_x from the inverse FFT,
    and the occupation-weighted scale of the per-stream momenta."""
    psi, weights, grid = streams.psi, streams.probabilities, streams.grid
    hb = hbar_eff(streams.H)
    n = streams.density()
    k = grid.wavenumbers
    dpsi = np.fft.ifft(1j * k[None, :] * np.fft.fft(psi, axis=1), axis=1)
    kin_per = 0.5 * hb**2 * np.mean(np.abs(dpsi) ** 2, axis=1)
    mom_per = hb * np.mean(np.imag(np.conj(psi) * dpsi), axis=1)
    return (reference_field_energy(n, grid), float(np.dot(weights, kin_per)),
            float(np.mean(n)), float(np.dot(weights, mom_per))), \
        float(np.dot(weights, np.abs(mom_per)))


def alternating(n_x):
    """(-1)^j: the x-Nyquist mode when n_x is even."""
    return (-1.0) ** np.arange(n_x)


def neutral_density(n_x, seed):
    rng = np.random.default_rng(seed)
    density = 1.0 + 0.3 * rng.standard_normal(n_x) + 0.2 * alternating(n_x)
    return density + (1.0 - np.mean(density))


def drifting_f(n_x, seed, drift=0.5, n_v=64):
    """A noisy f drifting at `drift`, with x-Nyquist content, density mean 1."""
    grid = PhaseSpaceGrid(SpatialGrid(2.0 * np.pi, n_x), 3.0, n_v)
    rng = np.random.default_rng(seed)
    x, v = grid.spatial.x, grid.v
    f = np.outer(np.exp(-(v - drift) ** 2 / 0.6),
                 1.0 + 0.2 * np.cos(x) + 0.05 * alternating(n_x))
    f *= 1.0 + 0.1 * rng.standard_normal(f.shape)
    f *= 1.0 / (np.mean(np.sum(f, axis=0)) * grid.dv)
    return f, grid


def moving_streams(n_x, seed, m, weights, H=1.0):
    """Streams exp(i m_a x) (plane waves of momentum hbar_eff m_a on the
    2 pi box), each with random and x-Nyquist content; density mean 1."""
    grid = SpatialGrid(2.0 * np.pi, n_x)
    rng = np.random.default_rng(seed)
    x = grid.x
    psi = np.exp(1j * np.outer(m, x)) * (
        1.0 + 0.1 * (rng.standard_normal((len(m), n_x))
                     + 1j * rng.standard_normal((len(m), n_x))))
    psi += 0.05 * alternating(n_x)
    weights = np.asarray(weights, dtype=float)
    psi /= np.sqrt(np.mean(np.einsum("a,ax->x", weights, np.abs(psi) ** 2)))
    return StreamSet(grid, psi, weights, H)


def spectral_mass(state):
    """The k = 0 mode of the x-spectrum of f, times dv / n_x: the rectangle
    rule of the moments' mean density, summed in another order."""
    n_x = state.grid.spatial.n_x
    return state.grid.dv / n_x * np.sum(np.fft.rfft(state.f, axis=1)[:, 0].real)


def assert_matches(got, want, scale, mass=None):
    """Energies within ROUND_OFF relative (abs=0: pytest.approx would
    otherwise also accept anything within 1e-12), mass bit for bit (with
    `mass` when given, and then within ROUND_OFF of want's), momentum
    within ROUND_OFF of `scale`."""
    field, kinetic, got_mass, momentum = got
    assert field == pytest.approx(want[0], rel=ROUND_OFF, abs=0)
    assert kinetic == pytest.approx(want[1], rel=ROUND_OFF, abs=0)
    if mass is None:
        assert got_mass == want[2]
    else:
        assert got_mass == mass
        assert got_mass == pytest.approx(want[2], rel=ROUND_OFF, abs=0)
    assert abs(momentum - want[3]) <= ROUND_OFF * scale


class TestFieldEnergy:
    @pytest.mark.parametrize("n_x", N_X)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_poisson_and_the_spectral_derivative(self, n_x, seed):
        grid = SpatialGrid(2.0 * np.pi, n_x)
        density = neutral_density(n_x, seed)
        want = reference_field_energy(density, grid)
        assert want > 1e-4
        assert field_energy(density, grid) == pytest.approx(
            want, rel=ROUND_OFF, abs=0)

    def test_the_x_nyquist_mode_carries_no_field_energy(self):
        # spectral_derivative drops the unpaired mode, so the reference
        # field is zero to round-off; the sum leaves the mode out.
        grid = SpatialGrid(2.0 * np.pi, 64)
        density = 1.0 + 0.3 * alternating(64)
        assert reference_field_energy(density, grid) < 1e-28
        assert field_energy(density, grid) < 1e-28

    @pytest.mark.parametrize("n_x", [9, 65])
    def test_the_highest_mode_of_an_odd_grid_is_kept(self, n_x):
        # phi'' = alpha cos(m x) gives <E^2>/2 = alpha^2 / (4 m^2).
        grid = SpatialGrid(2.0 * np.pi, n_x)
        m = (n_x - 1) // 2
        density = 1.0 + 0.1 * np.cos(m * grid.x)
        assert field_energy(density, grid) == pytest.approx(
            0.01 / (4 * m**2), rel=1e-12, abs=0)

    def test_the_weight_table_is_cached_and_read_only(self):
        grid = SpatialGrid(2.0 * np.pi, 64)
        weights = fields._field_weights(grid)
        assert fields._field_weights(SpatialGrid(2.0 * np.pi, 64)) is weights
        assert not weights.flags.writeable
        assert weights[0] == weights[-1] == 0.0


def density_state(module):
    """The diagnostics of a phase-space state whose density is `density`."""
    def diagnose(density, grid):
        pgrid = PhaseSpaceGrid(grid, 3.0, 32)
        profile = np.exp(-pgrid.v**2)
        profile /= np.sum(profile) * pgrid.dv
        state = vlasov.VlasovState(np.outer(profile, density), pgrid)
        if module is wigner:
            state = wigner.WignerState(state.f, pgrid, 1.0)
        return module.diagnostics(state)
    return diagnose


GUARDED = [pytest.param(field_energy, id="field_energy"),
           pytest.param(density_state(vlasov), id="vlasov.diagnostics"),
           pytest.param(density_state(wigner), id="wigner.diagnostics")]


class TestNeutralityGuard:
    @pytest.mark.parametrize("diagnose", GUARDED)
    @pytest.mark.parametrize("excess", [2e-10, -2e-10, 0.01])
    def test_a_non_neutral_box_is_rejected(self, diagnose, excess):
        grid = SpatialGrid(2.0 * np.pi, 16)
        density = 1.0 + excess + 0.1 * np.cos(grid.x)
        with pytest.raises(ValueError, match="non-neutral box"):
            diagnose(density, grid)

    @pytest.mark.parametrize("diagnose", GUARDED)
    def test_a_box_neutral_to_the_tolerance_passes(self, diagnose):
        grid = SpatialGrid(2.0 * np.pi, 16)
        density = 1.0 + 5e-11 + 0.1 * np.cos(grid.x)
        assert np.isfinite(diagnose(density, grid)).all()

    @pytest.mark.parametrize("diagnose", GUARDED)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_density_is_rejected(self, diagnose, bad):
        grid = SpatialGrid(2.0 * np.pi, 16)
        density = np.ones(16)
        density[3] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            diagnose(density, grid)


class TestPhaseSpace:
    @pytest.mark.parametrize("n_x", N_X)
    def test_vlasov_matches_the_moments(self, n_x):
        f, grid = drifting_f(n_x, seed=n_x)
        state = vlasov.VlasovState(f, grid)
        want, scale = reference_phase_space(state)
        assert want[3] > 0.3  # the drift does not cancel
        assert_matches(vlasov.diagnostics(state), want, scale,
                       spectral_mass(state))

    @pytest.mark.parametrize("n_x", N_X)
    def test_wigner_matches_the_moments_of_a_signed_field(self, n_x):
        f, grid = drifting_f(n_x, seed=100 + n_x, drift=-0.7)
        f -= 0.02 * np.cos(7.0 * grid.v)[:, None]  # negative patches
        f *= 1.0 / (np.mean(np.sum(f, axis=0)) * grid.dv)
        assert f.min() < 0.0
        state = wigner.WignerState(f, grid, 1.0)
        want, scale = reference_phase_space(state)
        assert want[3] < -0.3
        assert_matches(wigner.diagnostics(state), want, scale,
                       spectral_mass(state))


class TestWavefunctions:
    @pytest.mark.parametrize("n_x", N_X)
    def test_one_moving_stream(self, n_x):
        streams = moving_streams(n_x, seed=n_x, m=[2], weights=[1.0])
        want, scale = reference_waves(streams)
        assert want[3] > 0.5
        assert_matches(hartree.diagnostics(streams), want, scale)

    @pytest.mark.parametrize("n_x", N_X)
    def test_a_mixture_whose_momentum_does_not_cancel(self, n_x):
        streams = moving_streams(n_x, seed=200 + n_x, m=[-1, 2, 3],
                                 weights=[0.5, 0.3, 0.2], H=0.5)
        want, scale = reference_waves(streams)
        assert want[3] > 0.1
        assert_matches(hartree.diagnostics(streams), want, scale)

    @pytest.mark.parametrize("m", [-3, 1, 4])
    def test_a_plane_wave_has_its_closed_form(self, m):
        grid = SpatialGrid(2.0 * np.pi, 32)
        streams = StreamSet(grid, np.exp(1j * m * grid.x)[None, :],
                            np.ones(1), 1.0)
        hb = hbar_eff(1.0)
        field, kinetic, mass, momentum = hartree.diagnostics(streams)
        assert field < 1e-28
        assert kinetic == pytest.approx(0.5 * (hb * m) ** 2, rel=1e-14,
                                        abs=0)
        assert mass == pytest.approx(1.0, rel=1e-15, abs=0)
        assert momentum == pytest.approx(hb * m, rel=1e-14, abs=0)

    @pytest.mark.parametrize("n_x", N_X)
    def test_the_fluid_adds_its_internal_energy(self, n_x):
        one = moving_streams(n_x, seed=300 + n_x, m=[1], weights=[1.0])
        state = qfluid.FluidState(one.grid, one.psi, one.probabilities,
                                  one.H, 2.0, 0.4)
        want, scale = reference_waves(state)
        internal = float(np.mean(qfluid.internal_energy(
            state.density(), state.gamma, state.p0)))
        assert internal > 1e-3
        want = (want[0], want[1] + internal, *want[2:])
        assert_matches(qfluid.diagnostics(state), want, scale)


@pytest.mark.parametrize("module", [vlasov, wigner, hartree, qfluid],
                         ids=lambda module: module.__name__)
def test_no_diagnostic_takes_an_inverse_transform(module, monkeypatch):
    f, grid = drifting_f(16, seed=5)
    one = moving_streams(16, seed=6, m=[1], weights=[1.0])
    state = {vlasov: vlasov.VlasovState(f, grid),
             wigner: wigner.WignerState(f, grid, 1.0),
             hartree: one,
             qfluid: qfluid.FluidState(one.grid, one.psi, one.probabilities,
                                       one.H)}[module]
    # A stepped phase-space state holds only its x-spectrum: reading its f
    # would take an irfft.
    eq, pert = projected_fd_finite_t(t_over_tf=0.01), Perturbation(0.1, 1.0)
    states = [state] + {
        vlasov: lambda: [vlasov.step(vlasov.initial_state(grid, eq, pert),
                                     0.05)],
        wigner: lambda: [wigner.step(wigner.initial_state(grid, eq, 1.0, pert),
                                     0.05)]}.get(module, list)()

    def refuse(*args, **kwargs):
        raise AssertionError("inverse transform in a diagnostic")

    for name in ("ifft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    for state in states:
        assert np.isfinite(module.diagnostics(state)).all()
