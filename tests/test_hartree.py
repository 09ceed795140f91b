"""Coupled wavefunction-mixture mean-field solver: unitarity, stationary
mixtures, the two-stream oscillation frequency and the amplitude/phase
(density and velocity) diagnostics."""

import numpy as np
import pytest

from qplasma import hartree
from qplasma.dispersion import MULTISTREAM, DielectricModel, solve_root
from qplasma.equilibria import (Perturbation, fd_stream_occupations,
                                hbar_eff, plane_wave_mixture)
from qplasma.fields import SpatialGrid, poisson_periodic, spectral_derivative

from madelung_reference import madelung_decompose


def stream_norms(streams) -> np.ndarray:
    """Box-averaged |psi_a|^2 per stream (conserved, 1 for unit streams)."""
    return np.mean(np.abs(streams.psi) ** 2, axis=1)


def evolve(streams, dt, n_steps, record_density_mode=None):
    out = []
    for _ in range(n_steps):
        streams = hartree.step(streams, dt)
        if record_density_mode is not None:
            out.append(np.fft.rfft(streams.density())[record_density_mode])
    return streams, out


class TestTrivialDynamics:
    def test_single_uniform_stream_gains_only_a_global_phase(self):
        grid = SpatialGrid(2.0 * np.pi, 64)
        spec = fd_stream_occupations(0.0, 1.0, (0.5,))
        streams = plane_wave_mixture(spec, grid, 1.0)
        psi0 = streams.psi.copy()
        streams, _ = evolve(streams, 0.01, 50)
        overlap = np.mean(np.conj(psi0[0]) * streams.psi[0])
        assert abs(abs(overlap) - 1.0) < 1e-12
        assert np.max(np.abs(np.abs(streams.psi) - 1.0)) < 1e-12

    def test_unperturbed_mixture_is_stationary(self):
        grid = SpatialGrid(2.0 * np.pi, 64)
        spec = fd_stream_occupations(0.01, 1.0, (-1.0, -0.5, 0.5, 1.0))
        streams = plane_wave_mixture(spec, grid, 1.0)
        streams, _ = evolve(streams, 0.01, 1000)  # t = 10
        assert np.max(np.abs(streams.density() - 1.0)) < 1e-10

    def test_per_stream_norms_conserved(self):
        grid = SpatialGrid(2.0 * np.pi, 64)
        spec = fd_stream_occupations(0.0, 1.0, (-1.0, -0.5, 0.5, 1.0))
        streams = hartree.perturb_streams(
            plane_wave_mixture(spec, grid, 1.0), Perturbation(0.1, 1.0))
        n0 = stream_norms(streams)
        streams, _ = evolve(streams, 0.01, 500)
        assert np.max(np.abs(stream_norms(streams) - n0)) < 1e-12

    def test_nonfinite_values_abort(self):
        grid = SpatialGrid(2.0 * np.pi, 64)
        spec = fd_stream_occupations(0.0, 1.0, (0.0,))
        streams = plane_wave_mixture(spec, grid, 1.0)
        streams.psi[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            hartree.step(streams, 0.01)


class TestTwoStreamFrequency:
    def test_density_mode_frequencies_match_the_dispersion_roots(self):
        # Counter-streaming pair at a wavenumber where all four roots are
        # real (stable); the seeded density mode beats at the two branch
        # frequencies, and the dominant one must match its root within 2%.
        k = 2.0
        grid = SpatialGrid(2.0 * np.pi / k, 64)
        h_param = 1.0
        spec = fd_stream_occupations(0.0, 1.5, (-1.0, 1.0))
        streams = hartree.perturb_streams(
            plane_wave_mixture(spec, grid, h_param), Perturbation(1e-3, k))
        model = DielectricModel(MULTISTREAM, streams=spec, H=h_param)
        fast = solve_root(model, k, guess=3.3 + 0j).omega.real
        slow = solve_root(model, k, guess=0.8 + 0j).omega.real

        dt, n_steps = 0.01, 4000
        _, mode = evolve(streams, dt, n_steps, record_density_mode=1)
        # split the two branches by filtering around each root
        sig = np.asarray(mode) * np.hanning(n_steps)
        spec_abs = np.abs(np.fft.fft(sig))
        freqs = 2.0 * np.pi * np.fft.fftfreq(n_steps, d=dt)
        df = freqs[1] - freqs[0]
        for branch in (fast, slow):
            band = (np.abs(freqs) > 0.7 * branch) \
                & (np.abs(freqs) < 1.3 * branch)
            i = int(np.flatnonzero(band)[np.argmax(spec_abs[band])])
            num = spec_abs[(i - 1) % n_steps] - spec_abs[(i + 1) % n_steps]
            den = (spec_abs[(i - 1) % n_steps] - 2.0 * spec_abs[i]
                   + spec_abs[(i + 1) % n_steps])
            delta = 0.5 * num / den if den != 0 else 0.0
            measured = abs(freqs[i] + delta * df)
            assert measured == pytest.approx(branch, rel=0.02)


class TestMadelungDiagnostics:
    def test_plane_wave_velocity_field(self):
        grid = SpatialGrid(2.0 * np.pi, 64)
        spec = fd_stream_occupations(0.0, 1.5, (-1.0, 0.5))
        streams = plane_wave_mixture(spec, grid, 1.0)
        fields = madelung_decompose(streams)
        assert np.max(np.abs(fields.n - 1.0)) < 1e-12
        for row, u in zip(fields.u, spec.velocities):
            assert np.max(np.abs(row - u)) < 1e-10
        assert not fields.mask.any()

    def test_vacuum_cells_are_masked(self):
        grid = SpatialGrid(2.0 * np.pi, 64)
        spec = fd_stream_occupations(0.0, 1.0, (0.0,))
        streams = plane_wave_mixture(spec, grid, 1.0)
        streams.psi[0, 10] = 1e-9
        fields = madelung_decompose(streams)
        assert fields.mask[0, 10]
        assert fields.u[0, 10] == 0.0

    def test_continuity_residual_between_snapshots(self):
        # d n_a / dt + d(n_a u_a)/dx ~ 0, time derivative centered across
        # two steps, space derivative spectral.
        grid = SpatialGrid(2.0 * np.pi, 128)
        spec = fd_stream_occupations(0.0, 1.0, (-0.5, 0.5))
        streams = hartree.perturb_streams(
            plane_wave_mixture(spec, grid, 1.0), Perturbation(0.01, 1.0))
        dt = 0.005
        streams, _ = evolve(streams, dt, 200)
        prev = madelung_decompose(streams)
        mid = madelung_decompose(hartree.step(streams, dt))
        nxt = madelung_decompose(
            hartree.step(hartree.step(streams, dt), dt))
        for a in range(2):
            dn_dt = (nxt.n[a] - prev.n[a]) / (2.0 * dt)
            dflux = spectral_derivative(mid.n[a] * mid.u[a], grid)
            assert np.max(np.abs(dn_dt + dflux)) < 1e-4

    def test_momentum_residual_with_quantum_pressure_term(self):
        # d u/dt + u u_x = phi_x + (H^2/8) d/dx[ (sqrt n)'' / sqrt n ]
        grid = SpatialGrid(2.0 * np.pi, 128)
        h_param = 1.0
        spec = fd_stream_occupations(0.0, 1.0, (0.0,))
        streams = hartree.perturb_streams(
            plane_wave_mixture(spec, grid, h_param), Perturbation(0.01, 1.0))
        dt = 0.005
        streams, _ = evolve(streams, dt, 100)
        prev = madelung_decompose(streams)
        s_mid = hartree.step(streams, dt)
        mid = madelung_decompose(s_mid)
        nxt = madelung_decompose(hartree.step(s_mid, dt))

        n = mid.n[0]
        u = mid.u[0]
        du_dt = (nxt.u[0] - prev.u[0]) / (2.0 * dt)
        phi = poisson_periodic(s_mid.density(), grid)
        force = spectral_derivative(phi, grid)
        amp = np.sqrt(n)
        curv = spectral_derivative(spectral_derivative(amp, grid), grid) / amp
        bohm = (h_param**2 / 8.0) * spectral_derivative(curv, grid)
        residual = du_dt + u * spectral_derivative(u, grid) - force - bohm
        assert np.max(np.abs(residual)) < 1e-3


class TestStreamCountConvergence:
    def test_denser_stream_lattices_stay_consistent(self):
        # How many streams emulate a continuum background is an open,
        # measured question; here we record that refining the lattice
        # changes the early field-energy evolution less and less.
        h_param = 1.0
        k = 1.0
        grid = SpatialGrid(2.0 * np.pi, 64)
        energies = {}
        for n_streams, h_eff in ((2, 1.0), (4, 1.0)):
            du = 2.0 * np.pi * hbar_eff(h_eff) / grid.length
            js = [j for j in range(-n_streams // 2, n_streams // 2 + 1)
                  if j != 0]
            spec = fd_stream_occupations(0.01, 1.0,
                                         tuple(du * j for j in js))
            streams = hartree.perturb_streams(
                plane_wave_mixture(spec, grid, h_eff), Perturbation(0.01, k))
            series = []
            for _ in range(200):
                streams = hartree.step(streams, 0.01)
                series.append(hartree.diagnostics(streams)[0])
            energies[n_streams] = np.asarray(series)
        # both lattices carry the seeded mode; the refinement is reported,
        # not asserted, beyond basic sanity
        for series in energies.values():
            assert np.all(np.isfinite(series))
            assert series.max() > 0
