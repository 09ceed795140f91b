"""Dimensional analysis of the electron gas: characteristic scales,
dimensionless groups, regime classification and collision-time estimates."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplasma.constants import (BOLTZMANN, ELECTRON_MASS, ELEMENTARY_CHARGE,
                               EV, HBAR, VACUUM_PERMITTIVITY)
from qplasma.params import (PhysicalConditions, RegimeLabel, classify_regime,
                            compute_dimensionless, compute_scales,
                            pauli_collision_time)

GOLD = PhysicalConditions(number_density=5.9e28, temperature=300.0)

# Published reference values for conduction electrons in gold at room
# temperature (the classic benchmark case for these formulas).
GOLD_OMEGA_P = 1.37e16       # 1/s
GOLD_T_F = 6.4e4             # K
GOLD_E_F_EV = 5.53           # eV
GOLD_V_F = 1.4e6             # m/s
GOLD_G_Q = 12.7
GOLD_TAU_P = 0.46e-15        # s

THREE_PI_SQ_23 = (3.0 * math.pi**2) ** (2.0 / 3.0)


def rel_err(a, b):
    return abs(a - b) / abs(b)


conditions = st.builds(
    PhysicalConditions,
    number_density=st.floats(1e20, 1e40),
    temperature=st.floats(1.0, 1e9),
)


class TestGoldBenchmark:
    def test_plasma_frequency(self):
        assert rel_err(compute_scales(GOLD).plasma_frequency, GOLD_OMEGA_P) < 0.01

    def test_fermi_temperature(self):
        assert rel_err(compute_scales(GOLD).fermi_temperature, GOLD_T_F) < 0.01

    def test_fermi_energy(self):
        assert rel_err(compute_scales(GOLD).fermi_energy / EV, GOLD_E_F_EV) < 0.01

    def test_fermi_velocity(self):
        assert rel_err(compute_scales(GOLD).fermi_velocity, GOLD_V_F) < 0.01

    def test_screening_length_consistent_with_velocity_and_frequency(self):
        # The tabulated screening length is rounded to one digit; the
        # self-consistent value is v_F / omega_p.
        scales = compute_scales(GOLD)
        expected = scales.fermi_velocity / scales.plasma_frequency
        assert rel_err(scales.fermi_screening_length, expected) < 1e-12
        assert rel_err(scales.fermi_screening_length, GOLD_V_F / GOLD_OMEGA_P) < 0.01

    def test_quantum_coupling(self):
        assert rel_err(compute_dimensionless(GOLD).g_quantum, GOLD_G_Q) < 0.01

    def test_plasma_period(self):
        _, tau_p, _ = pauli_collision_time(GOLD)
        assert rel_err(tau_p, GOLD_TAU_P) < 0.01

    def test_collision_time_order_of_magnitude(self):
        tau_ee, _, outside = pauli_collision_time(GOLD)
        assert 1e-11 < tau_ee < 1e-9
        assert not outside

    def test_de_broglie_length(self):
        assert rel_err(compute_scales(GOLD).de_broglie, 1.71e-9) < 0.01

    def test_regime(self):
        assert classify_regime(compute_dimensionless(GOLD)) is \
            RegimeLabel.QUANTUM_COLLISIONAL


class TestExactIdentities:
    @settings(max_examples=100, deadline=None)
    @given(conditions)
    def test_classical_coupling_equals_debye_number_form(self, cond):
        # g_C == (1 / (n lambda_D^3))^(2/3)
        scales = compute_scales(cond)
        group = compute_dimensionless(cond)
        n_debye = cond.number_density * scales.debye_length**3
        assert rel_err(group.g_classical, n_debye ** (-2.0 / 3.0)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(conditions)
    def test_degeneracy_equals_de_broglie_number_form(self, cond):
        # chi == (1/2) (3 pi^2)^(2/3) (n lambda_B^3)^(2/3)
        scales = compute_scales(cond)
        group = compute_dimensionless(cond)
        n_db = cond.number_density * scales.de_broglie**3
        assert rel_err(group.chi,
                       0.5 * THREE_PI_SQ_23 * n_db ** (2.0 / 3.0)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(conditions)
    def test_quantum_coupling_equals_h_squared_form(self, cond):
        # g_Q == ((3 pi^2)^(2/3) / 2) H^2
        group = compute_dimensionless(cond)
        assert rel_err(group.g_quantum,
                       0.5 * THREE_PI_SQ_23 * group.H**2) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(conditions)
    def test_coupling_ratio_identity(self, cond):
        # g_Q == g_C / chi: the quantum coupling is the classical one with
        # the thermal energy replaced by the Fermi energy (up to the fixed
        # numerical prefactors folded into the definitions).
        group = compute_dimensionless(cond)
        scales = compute_scales(cond)
        g_c_at_fermi = (ELEMENTARY_CHARGE**2
                        * cond.number_density ** (1.0 / 3.0)
                        / (VACUUM_PERMITTIVITY * scales.fermi_energy))
        ratio = group.g_quantum / g_c_at_fermi
        assert 0.1 < ratio < 10.0  # same quantity up to an O(1) prefactor

    def test_quadrupling_density_doubles_plasma_frequency(self):
        s1 = compute_scales(GOLD)
        s4 = compute_scales(PhysicalConditions(number_density=4 * 5.9e28,
                                               temperature=300.0))
        assert rel_err(s4.plasma_frequency, 2.0 * s1.plasma_frequency) < 1e-12


class TestScales:
    def test_debye_length_is_thermal_velocity_over_frequency(self):
        scales = compute_scales(GOLD)
        assert rel_err(scales.debye_length,
                       scales.thermal_velocity / scales.plasma_frequency) < 1e-12

    def test_fermi_energy_velocity_consistency(self):
        scales = compute_scales(GOLD)
        m = ELECTRON_MASS
        assert rel_err(scales.fermi_energy,
                       0.5 * m * scales.fermi_velocity**2) < 1e-12

    def test_fermi_temperature_from_energy(self):
        scales = compute_scales(GOLD)
        assert rel_err(scales.fermi_temperature,
                       scales.fermi_energy / BOLTZMANN) < 1e-12

    def test_de_broglie_from_thermal_velocity(self):
        scales = compute_scales(GOLD)
        assert rel_err(scales.de_broglie,
                       HBAR / (ELECTRON_MASS * scales.thermal_velocity)) < 1e-12


class TestRegimes:
    def test_white_dwarf_is_quantum_collisionless(self):
        cond = PhysicalConditions(number_density=1e36, temperature=1e8)
        assert classify_regime(compute_dimensionless(cond)) is \
            RegimeLabel.QUANTUM_COLLISIONLESS

    def test_hot_dilute_is_classical_collisionless(self):
        cond = PhysicalConditions(number_density=1e18, temperature=1e7)
        assert classify_regime(compute_dimensionless(cond)) is \
            RegimeLabel.CLASSICAL_COLLISIONLESS

    def test_cold_dilute_is_classical_collisional(self):
        cond = PhysicalConditions(number_density=1e24, temperature=100.0)
        group = compute_dimensionless(cond)
        assert group.chi < 1.0 and group.g_classical >= 1.0
        assert classify_regime(group) is RegimeLabel.CLASSICAL_COLLISIONAL

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e20, 1e40), st.floats(1.0, 1e8), st.floats(1.5, 100.0))
    def test_heating_never_moves_toward_the_quantum_side(self, n, t, factor):
        cold = compute_dimensionless(
            PhysicalConditions(number_density=n, temperature=t))
        hot = compute_dimensionless(
            PhysicalConditions(number_density=n, temperature=factor * t))
        assert hot.chi < cold.chi
        quantum = {RegimeLabel.QUANTUM_COLLISIONAL,
                   RegimeLabel.QUANTUM_COLLISIONLESS}
        if classify_regime(cold) not in quantum:
            assert classify_regime(hot) not in quantum

    def test_validity_flag_outside_degenerate_regime(self):
        cond = PhysicalConditions(number_density=1e18, temperature=1e7)
        _, _, outside = pauli_collision_time(cond)
        assert outside


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"number_density": -1.0, "temperature": 300.0},
        {"number_density": 0.0, "temperature": 300.0},
        {"number_density": 1e28, "temperature": -5.0},
        {"number_density": 1e28, "temperature": float("nan")},
        {"number_density": float("inf"), "temperature": 300.0},
    ])
    def test_nonpositive_or_nonfinite_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PhysicalConditions(**kwargs)
