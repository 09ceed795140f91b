"""Effective-wavefunction fluid model: stationarity, linear oscillation
frequencies for both closures, conservation, absence of damping and the
split-step resonance guard."""

import numpy as np
import pytest

from qplasma import hartree, qfluid, simulate
from qplasma.config import ScenarioConfig
from qplasma.equilibria import Perturbation, hbar_eff
from qplasma.fields import SpatialGrid

from dielectric_reference import fluid_omega_sq
from madelung_reference import madelung_decompose
from run_analysis import fit_damping_rate


def measure_mode_frequency(state, dt, n_steps, mode=1):
    """Frequency of one spatial Fourier mode of the density, from the
    windowed spectrum of its complex amplitude with parabolic refinement."""
    amp = []
    for _ in range(n_steps):
        state = qfluid.step(state, dt)
        amp.append(np.fft.rfft(state.density())[mode])
    sig = np.asarray(amp) * np.hanning(n_steps)
    spec = np.abs(np.fft.fft(sig))
    freqs = 2.0 * np.pi * np.fft.fftfreq(n_steps, d=dt)
    i = int(np.argmax(spec))
    num = spec[(i - 1) % n_steps] - spec[(i + 1) % n_steps]
    den = spec[(i - 1) % n_steps] - 2.0 * spec[i] + spec[(i + 1) % n_steps]
    delta = 0.5 * num / den if den != 0 else 0.0
    return abs(freqs[i] + delta * (freqs[1] - freqs[0]))


class TestBasics:
    def test_requires_positive_h(self):
        with pytest.raises(ValueError):
            qfluid.initial_state(SpatialGrid(2.0 * np.pi, 64), 0.0)

    def test_incommensurate_perturbation_rejected(self):
        with pytest.raises(ValueError):
            qfluid.initial_state(SpatialGrid(2.0 * np.pi, 64), 1.0,
                                 Perturbation(0.01, 0.3))

    def test_uniform_state_is_stationary(self):
        state = qfluid.initial_state(SpatialGrid(2.0 * np.pi, 64), 1.0)
        for _ in range(1000):  # t = 10
            state = qfluid.step(state, 0.01)
        assert np.max(np.abs(state.density() - 1.0)) < 1e-13

    def test_uniform_state_has_zero_velocity(self):
        state = qfluid.initial_state(SpatialGrid(2.0 * np.pi, 64), 1.0)
        n, u, mask = madelung_decompose(state)
        assert np.max(np.abs(n - 1.0)) < 1e-14
        assert np.max(np.abs(u)) < 1e-14
        assert not mask.any()

    def test_hartree_decomposition_and_diagnostics_take_the_fluid(self):
        # The fluid is one Hartree stream of weight 1; hartree's diagnostics
        # are the fluid's without the closure's internal energy.
        state = qfluid.initial_state(SpatialGrid(2.0 * np.pi, 64), 1.0,
                                     Perturbation(0.05, 1.0))
        for _ in range(50):
            state = qfluid.step(state, 0.01)
        n, u, mask = madelung_decompose(state)
        assert n.shape == u.shape == mask.shape == (1, 64)
        assert np.array_equal(n[0], state.density())
        field, kinetic, mass, momentum = hartree.diagnostics(state)
        fluid = qfluid.diagnostics(state)
        internal = float(np.mean(qfluid.internal_energy(
            state.density(), state.gamma, state.p0)))
        assert fluid == (field, kinetic + internal, mass, momentum)


class TestLinearFrequency:
    def test_default_closure_matches_the_dispersion_relation(self):
        # K = 0.5 on a two-period box; the seeded mode oscillates at the
        # closed-form frequency of the linearized model.
        grid = SpatialGrid(4.0 * np.pi, 64)
        state = qfluid.initial_state(grid, 1.0, Perturbation(1e-3, 0.5))
        assert qfluid.check_splitstep_resonance(grid, 1.0, 0.01) < 1.0
        measured = measure_mode_frequency(state, 0.01, 6000)
        expected = np.sqrt(fluid_omega_sq(0.5, H=1.0))
        assert expected == pytest.approx(1.11978, abs=1e-4)
        assert measured == pytest.approx(expected, rel=0.01)

    def test_alternative_closure_shifts_the_frequency(self):
        # gamma = 5/3 with the matching reference pressure reproduces its
        # own branch, distinct from the default closure.
        grid = SpatialGrid(2.0 * np.pi, 64)
        state = qfluid.initial_state(grid, 1.0, Perturbation(1e-3, 1.0),
                                     gamma=5.0 / 3.0, p0=1.0 / 5.0)
        measured = measure_mode_frequency(state, 0.01, 6000)
        expected = np.sqrt(fluid_omega_sq(1.0, gamma=5.0 / 3.0,
                                          v0_sq=1.0 / 5.0, H=1.0))
        default = np.sqrt(fluid_omega_sq(1.0, H=1.0))
        assert measured == pytest.approx(expected, rel=0.01)
        assert abs(expected - default) > 0.05


class TestConservation:
    def test_mass_and_energy_over_a_long_run(self):
        grid = SpatialGrid(2.0 * np.pi, 64)
        state = qfluid.initial_state(grid, 1.0, Perturbation(0.05, 1.0))
        fe0, te0, m0, _ = qfluid.diagnostics(state)
        for _ in range(10000):  # t = 100
            state = qfluid.step(state, 0.01)
        fe, te, m, _ = qfluid.diagnostics(state)
        assert abs(m - m0) < 1e-12
        assert abs((fe + te) - (fe0 + te0)) < 1e-6

    def test_momentum_stays_zero_for_symmetric_data(self):
        grid = SpatialGrid(2.0 * np.pi, 64)
        state = qfluid.initial_state(grid, 1.0, Perturbation(0.05, 1.0))
        for _ in range(2000):
            state = qfluid.step(state, 0.01)
        assert abs(qfluid.diagnostics(state)[3]) < 1e-12

    def test_oscillation_is_undamped(self):
        grid = SpatialGrid(2.0 * np.pi, 64)
        state = qfluid.initial_state(grid, 1.0, Perturbation(0.01, 1.0))
        dt, n_steps = 0.01, 5000  # t = 50
        times, energy = [], []
        for i in range(n_steps):
            state = qfluid.step(state, dt)
            times.append((i + 1) * dt)
            energy.append(qfluid.diagnostics(state)[0])
        gamma, _, _, _ = fit_damping_rate(np.asarray(times),
                                          np.asarray(energy),
                                          window=(5.0, 50.0))
        assert abs(gamma) < 1e-3


class TestIsothermalClosure:
    @pytest.mark.parametrize("gamma", [1.0, 5.0 / 3.0, 3.0])
    def test_enthalpy_is_the_derivative_of_the_internal_energy(self, gamma):
        # Central differences; gamma = 1 is the logarithmic branch of both.
        n, h = np.linspace(0.5, 1.5, 21), 1e-5
        slope = (qfluid.internal_energy(n + h, gamma, 1.0 / 3.0)
                 - qfluid.internal_energy(n - h, gamma, 1.0 / 3.0)) / (2 * h)
        assert np.max(np.abs(slope - qfluid.enthalpy(n, gamma, 1.0 / 3.0))) \
            < 1e-9

    def test_an_isothermal_run_conserves_mass_and_energy(self):
        cfg = ScenarioConfig(model="fluid", gamma=1.0, alpha=0.05, h=1.0,
                             n_x=64, dt=0.01, t_end=10.0, output_every=100)
        series = simulate.run(cfg).series
        assert series.times[-1] == 10.0
        assert np.max(np.abs(series.mass - series.mass[0])) < 1e-12
        assert np.max(np.abs(series.total_energy - series.total_energy[0])) \
            < 1e-6


class TestResonanceGuard:
    def test_reported_phase_advance_formula(self):
        grid = SpatialGrid(2.0 * np.pi, 64)
        k_max = np.pi / grid.dx
        expected = 0.5 * hbar_eff(1.0) * k_max**2 * 0.01 / np.pi
        assert qfluid.check_splitstep_resonance(grid, 1.0, 0.01) \
            == pytest.approx(expected, rel=1e-12)

    def test_large_step_on_a_fine_grid_warns(self):
        grid = SpatialGrid(2.0 * np.pi, 256)
        state = qfluid.initial_state(grid, 1.0, Perturbation(0.01, 1.0))
        assert qfluid.check_splitstep_resonance(grid, 1.0, 0.05) >= 1.0
        with pytest.warns(RuntimeWarning, match="resonance"):
            qfluid.step(state, 0.05)
