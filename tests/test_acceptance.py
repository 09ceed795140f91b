"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail summary line; run with `pytest -s
tests/test_acceptance.py` to see all of them.  The nonlinear benchmark runs
share module-scoped simulations, so the whole file takes a few minutes.
"""

import numpy as np
import pytest
from scipy.optimize import newton

from qplasma import hartree, simulate, wigner
from qplasma.config import ScenarioConfig
from qplasma.diagio import (damping_halt_time, detect_vortex,
                            fit_damping_rate, read_snapshot, write_snapshot)
from qplasma.dispersion import (MULTISTREAM, VLASOV_KINETIC, WIGNER_KINETIC,
                                DielectricModel, fluid_omega_sq, k_scan,
                                smallk_coefficients, solve_root)
from qplasma.equilibria import (Perturbation, fd_stream_occupations,
                                make_equilibrium, plane_wave_mixture,
                                waterbag_1d, wigner_of_mixture)
from qplasma.fields import (PhaseSpaceGrid, SpatialGrid, moments,
                            poisson_periodic, spectral_derivative)
from qplasma.params import (PhysicalConditions, compute_dimensionless,
                            compute_scales, pauli_collision_time)

from dielectric_reference import eps_delta_comb

GOLD = PhysicalConditions(number_density=5.9e28, temperature=300.0)


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {label}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} {label}: {detail}"


def field_energy_peaks(times, energy):
    t = np.asarray(times)
    w = np.asarray(energy)
    interior = (w[1:-1] > w[:-2]) & (w[1:-1] >= w[2:])
    idx = np.flatnonzero(interior) + 1
    return t[idx], w[idx]


@pytest.fixture(scope="module")
def classical_run():
    cfg = ScenarioConfig(model="vlasov", equilibrium="fd3d_projected",
                         t_over_tf=0.01, alpha=0.1, k=1.0, n_x=256,
                         n_v=256, dt=0.05, t_end=50.0,
                         snapshot_times=(20.0,))
    return cfg, simulate.run(cfg)


@pytest.fixture(scope="module")
def quantum_run():
    cfg = ScenarioConfig(model="wigner", equilibrium="fd3d_projected",
                         t_over_tf=0.01, alpha=0.1, k=1.0, h=1.0, n_x=256,
                         n_v=256, dt=0.05, t_end=50.0,
                         snapshot_times=(20.0,))
    return cfg, simulate.run(cfg)


def benchmark_grid(cfg):
    return PhaseSpaceGrid(SpatialGrid(cfg.length, cfg.n_x), cfg.v_max,
                          cfg.n_v)


def test_criterion_1_gold_parameter_report():
    scales = compute_scales(GOLD)
    group = compute_dimensionless(GOLD)
    tau_ee, _, _ = pauli_collision_time(GOLD)
    ev = 1.602176634e-19
    checks = {
        "omega_p": (scales.plasma_frequency, 1.37e16),
        "E_F": (scales.fermi_energy / ev, 5.53),
        "T_F": (scales.fermi_temperature, 6.4e4),
        "v_F": (scales.fermi_velocity, 1.4e6),
        "lambda_F": (scales.fermi_screening_length, 1.4e6 / 1.37e16),
        "g_Q": (group.g_quantum, 12.7),
    }
    bad = [name for name, (got, want) in checks.items()
           if abs(got - want) > 0.01 * abs(want)]
    tau_ok = 1e-11 <= tau_ee <= 1e-9
    report(1, "gold parameter report",
           not bad and tau_ok,
           f"off: {bad or 'none'}, tau_ee={tau_ee:.2e} s")


def test_criterion_2_flat_top_dispersion_is_exact():
    model = DielectricModel(VLASOV_KINETIC, equilibrium=waterbag_1d())
    ks = np.linspace(0.1, 2.0, 25)
    roots = k_scan(model, ks)
    devs = [abs(r.omega.real**2 - (1.0 + r.k**2)) + abs(r.omega.imag)
            for r in roots]
    worst = max(devs)
    report(2, "flat-top dispersion exactness", worst < 1e-8,
           f"max |omega^2 - (1+K^2)| = {worst:.2e}")


def test_criterion_3_quantum_flat_top_small_k_expansion():
    model = DielectricModel(WIGNER_KINETIC, equilibrium=waterbag_1d(), H=1.0)
    _, c2, c4, _ = smallk_coefficients(model)
    ks = np.geomspace(0.05, 0.2, 8)
    resid = []
    guess = None
    for k in ks:
        root = solve_root(model, k, guess=guess)
        guess = root.omega
        resid.append(abs(root.omega.real**2 - fluid_omega_sq(k, H=1.0)))
    slope = np.polyfit(np.log(ks), np.log(resid), 1)[0]
    ok = (abs(c2 - 1.0) < 0.01
          and abs(c4 - 1.0 / 16.0) < 0.05 / 16.0
          and abs(slope - 6.0) < 0.3)
    report(3, "quantum flat-top small-K expansion", ok,
           f"c2={c2:.4f} c4={c4:.6f} residual exponent={slope:.2f}")


def test_criterion_4_projected_background_small_k_coefficient():
    model = DielectricModel(VLASOV_KINETIC,
                            equilibrium=make_equilibrium(
                                "fd3d_projected_T0", 0.0))
    _, c2, _, _ = smallk_coefficients(model)
    ok = abs(c2 - 0.6) < 0.02 * 0.6
    report(4, "projected-background small-K coefficient", ok,
           f"c2={c2:.5f} (want 0.6)")


def test_criterion_5_linear_damping_closes_the_loop():
    cfg = ScenarioConfig(model="vlasov", equilibrium="fd3d_projected",
                         t_over_tf=0.01, alpha=0.01, k=1.0, n_x=256,
                         n_v=256, dt=0.05, t_end=50.0)
    series = simulate.run(cfg).series
    g_fit, om_fit, _, _ = fit_damping_rate(series.times,
                                           series.field_energy,
                                           window=(5.0, 50.0))
    eq = make_equilibrium("fd3d_projected", 0.01)
    root = solve_root(DielectricModel(VLASOV_KINETIC, equilibrium=eq), 1.0)
    g_root = -root.omega.imag
    # an effectively undamped root: both rates consistent with zero counts
    if abs(g_fit) < 1e-3 and abs(g_root) < 1e-3:
        ok = True
    else:
        ok = abs(g_fit - g_root) <= 0.1 * abs(g_root)
    report(5, "linear damping vs dispersion root", ok,
           f"gamma_fit={g_fit:.2e} gamma_root={g_root:.2e} "
           f"omega_fit={om_fit:.4f} omega_root={root.omega.real:.5f}")


def test_criterion_6_classical_trapping_benchmark(classical_run):
    cfg, result = classical_run
    grid = benchmark_grid(cfg)
    f = result.snapshots[20.0]
    eq = make_equilibrium("fd3d_projected", 0.01)
    v_phi = solve_root(DielectricModel(VLASOV_KINETIC, equilibrium=eq),
                       1.0).omega.real
    vortex = detect_vortex(f, grid, phase_velocity=v_phi)
    width_want = np.sqrt(cfg.alpha)
    t_halt, _, _ = damping_halt_time(result.series.times,
                                     result.series.field_energy)
    t_want = 1.0 / np.sqrt(cfg.alpha)
    ok = (vortex.present
          and abs(vortex.width - width_want) <= 0.3 * width_want
          and t_want / 2.0 <= t_halt <= 2.0 * t_want)
    report(6, "classical trapping benchmark", ok,
           f"vortex={vortex.present} width={vortex.width:.3f} "
           f"(want {width_want:.3f}+-30%) t_halt={t_halt:.2f} "
           f"(want {t_want:.2f} x/2)")


CLASSICAL_LATE_LEVEL = 1.016e-3
QUANTUM_LATE_LEVEL = 4.59e-4


def test_criterion_7_quantum_suppression_benchmark(classical_run,
                                                   quantum_run):
    ccfg, cres = classical_run
    qcfg, qres = quantum_run
    grid = benchmark_grid(qcfg)
    fq = qres.snapshots[20.0]
    eq = make_equilibrium("fd3d_projected", 0.01)
    v_phi = solve_root(DielectricModel(VLASOV_KINETIC, equilibrium=eq),
                       1.0).omega.real
    vortex = detect_vortex(fq, grid, phase_velocity=v_phi)

    t_late = 10.0 / np.sqrt(qcfg.alpha)

    def late_level(series):
        tp, wp = field_energy_peaks(series.times, series.field_energy)
        return float(np.mean(wp[tp > t_late]))

    classical_level = late_level(cres.series)
    quantum_level = late_level(qres.series)
    ok = (not vortex.present
          and fq.min() < 0.0
          and quantum_level < classical_level
          and classical_level == pytest.approx(CLASSICAL_LATE_LEVEL,
                                               rel=0.01)
          and quantum_level == pytest.approx(QUANTUM_LATE_LEVEL, rel=0.01))
    report(7, "quantum suppression benchmark", ok,
           f"vortex={vortex.present} min_f={fq.min():.2e} "
           f"late classical={classical_level:.3e} "
           f"quantum={quantum_level:.3e}")


def test_criterion_8_mixture_and_phase_space_models_agree():
    h_param = 1.0
    spatial = SpatialGrid(2.0 * np.pi, 64)
    spec = fd_stream_occupations(0.01, 1.0, (-1.0, -0.5, 0.5, 1.0))
    streams = hartree.perturb_streams(
        plane_wave_mixture(spec, spatial, h_param), Perturbation(0.05, 1.0))
    pgrid = PhaseSpaceGrid(spatial, 3.2, 256)
    wstate = wigner.from_phase_space_field(
        wigner_of_mixture(streams, pgrid), pgrid, h_param)

    dt = 0.05
    sup = 0.0
    for i in range(200):  # t = 10
        streams = hartree.step(streams, dt)
        wstate = wigner.step(wstate, dt)
        if (i + 1) % 10 == 0:
            n_h = streams.density()
            n_w, _, _ = moments(wstate.f, pgrid)
            sup = max(sup, float(np.max(np.abs(n_h - n_w))))

    model = DielectricModel(MULTISTREAM, streams=spec, H=h_param)
    root_ms = solve_root(model, 1.0, guess=np.sqrt(2.0) + 0j).omega
    root_delta = newton(lambda w: eps_delta_comb(1.0, w, spec, h_param),
                        root_ms + 1e-4, tol=1e-13)
    root_gap = abs(root_delta - root_ms)
    ok = sup < 1e-3 and root_gap < 1e-8
    report(8, "mixture vs phase-space equivalence", ok,
           f"density sup-norm={sup:.2e} root gap={root_gap:.2e}")


def test_criterion_9_conservation_suite():
    problems = []

    def drift(series):
        m = series.mass
        e = series.total_energy
        p = series.momentum
        return (abs(m[-1] - m[0]) / abs(m[0]),
                abs(e[-1] - e[0]),
                abs(e[-1] - e[0]) / abs(e[0]),
                float(np.max(np.abs(p - p[0]))))

    cfg = ScenarioConfig(model="vlasov", equilibrium="fd3d_projected",
                         t_over_tf=0.01, alpha=0.1, k=1.0, n_x=256,
                         n_v=256, dt=0.05, t_end=100.0, output_every=10)
    m, _, e_rel, p = drift(simulate.run(cfg).series)
    if not (m < 1e-6 and e_rel < 1e-3 and p < 1e-6):
        problems.append(f"vlasov m={m:.1e} e={e_rel:.1e} p={p:.1e}")

    cfg = ScenarioConfig(model="wigner", equilibrium="fd3d_projected",
                         t_over_tf=0.01, alpha=0.1, k=1.0, h=1.0, n_x=256,
                         n_v=256, dt=0.05, t_end=100.0, output_every=10)
    # mass is the stated contract (1e-10); the energy and momentum bounds
    # are pinned sanity levels, the small momentum drift being the known
    # velocity-grid asymmetry (one unpaired edge node)
    m, _, e_rel, p = drift(simulate.run(cfg).series)
    if not (m < 1e-10 and e_rel < 1e-3 and p < 1e-4):
        problems.append(f"wigner m={m:.1e} e={e_rel:.1e} p={p:.1e}")

    cfg = ScenarioConfig(model="hartree", alpha=0.1, k=1.0, h=1.0,
                         n_x=256, dt=0.05, t_end=100.0, output_every=10,
                         n_streams=4)
    m, _, _, p = drift(simulate.run(cfg).series)
    if not (m < 1e-12 and p < 1e-6):
        problems.append(f"hartree m={m:.1e} p={p:.1e}")

    cfg = ScenarioConfig(model="fluid", alpha=0.05, k=1.0, h=1.0, n_x=64,
                         dt=0.01, t_end=100.0, output_every=10)
    m, e_abs, _, p = drift(simulate.run(cfg).series)
    if not (m < 1e-12 and e_abs < 1e-6 and p < 1e-10):
        problems.append(f"fluid m={m:.1e} e={e_abs:.1e} p={p:.1e}")

    report(9, "conservation suite over t=100", not problems,
           "; ".join(problems) or "all models within tolerance")


def test_criterion_10_exact_identities_and_reproducibility(tmp_path):
    problems = []

    # coupling, degeneracy and quantum-coupling identities
    scales = compute_scales(GOLD)
    group = compute_dimensionless(GOLD)
    hbar = 1.054571817e-34
    m_e = 9.1093837015e-31
    k_b = 1.380649e-23
    n = GOLD.number_density
    three_pi = (3.0 * np.pi**2) ** (2.0 / 3.0)
    g_c_alt = (1.0 / (n * scales.debye_length**3)) ** (2.0 / 3.0)
    lam_b = hbar / (m_e * scales.thermal_velocity)
    chi_alt = 0.5 * three_pi * (n * lam_b**3) ** (2.0 / 3.0)
    g_q_alt = 0.5 * three_pi * group.H**2
    if abs(group.g_classical - g_c_alt) > 1e-12 * g_c_alt:
        problems.append("coupling identity")
    if abs(group.chi - chi_alt) > 1e-12 * chi_alt:
        problems.append("degeneracy identity")
    if abs(group.g_quantum - g_q_alt) > 1e-12 * g_q_alt:
        problems.append("quantum coupling identity")
    if abs(group.g_quantum - 4.785 * group.H**2) > 1e-3 * group.g_quantum:
        problems.append("rounded quantum coupling constant")

    # spectral field solve residual
    grid = SpatialGrid(2.0 * np.pi, 128)
    rng = np.random.default_rng(3)
    fk = np.fft.rfft(rng.standard_normal(128))
    fk[0] = 0.0
    fk[-1] = 0.0
    density = 1.0 + np.fft.irfft(fk, n=128)
    phi = poisson_periodic(density, grid)
    resid = np.max(np.abs(
        spectral_derivative(spectral_derivative(phi, grid), grid)
        - (density - 1.0)))
    if resid > 1e-10:
        problems.append(f"field residual {resid:.1e}")

    # snapshot round-trip is bit-exact
    pgrid = PhaseSpaceGrid(grid, 3.0, 16)
    f = rng.standard_normal((16, 128))
    path = tmp_path / "snap.qpsn"
    write_snapshot(path, wigner.WignerState(f, pgrid, 1.0), 1.0, "wigner",
                   "")
    _, channels = read_snapshot(path)
    if not np.array_equal(channels["f_plus"] - channels["f_minus"], f):
        problems.append("snapshot round-trip")

    # identical configuration, identical output
    cfg = ScenarioConfig(model="vlasov", equilibrium="fd3d_projected",
                         t_over_tf=0.01, alpha=0.05, k=1.0, n_x=32,
                         n_v=64, dt=0.1, t_end=5.0)
    sa = simulate.run(cfg).series
    sb = simulate.run(cfg).series
    for name in ("times", "field_energy", "kinetic_energy", "total_energy",
                 "mass", "momentum"):
        if not np.array_equal(getattr(sa, name), getattr(sb, name)):
            problems.append(f"determinism ({name})")
            break

    report(10, "exact identities and reproducibility", not problems,
           "; ".join(problems) or "all identities hold")
