"""Characteristic scales, dimensionless parameters and regime classification
for an electron plasma, classical or degenerate.

All inputs and outputs are SI.  The Coulomb interaction energy is estimated
as e^2/(eps0 * d) with d = n^(-1/3) (no 4*pi), which is the convention that
reproduces the standard metallic values of the coupling parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .constants import (
    BOLTZMANN,
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    HBAR,
    VACUUM_PERMITTIVITY,
)

THREE_PI_SQ_23 = (3.0 * math.pi**2) ** (2.0 / 3.0)


@dataclass(frozen=True)
class PhysicalConditions:
    """Bulk conditions of the electron gas: density (1/m^3) and
    temperature (K)."""

    number_density: float
    temperature: float

    def __post_init__(self):
        for name in ("number_density", "temperature"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class PlasmaScales:
    plasma_frequency: float   # 1/s
    thermal_velocity: float   # m/s
    debye_length: float       # m
    de_broglie: float         # m
    fermi_temperature: float  # K
    fermi_energy: float       # J
    fermi_velocity: float     # m/s
    fermi_screening_length: float  # m


@dataclass(frozen=True)
class DimensionlessGroup:
    chi: float            # T_F / T
    g_classical: float
    g_quantum: float
    H: float              # hbar * omega_p / E_F
    nu_ee_over_wp: float


class RegimeLabel(Enum):
    CLASSICAL_COLLISIONLESS = "ClassicalCollisionless"
    CLASSICAL_COLLISIONAL = "ClassicalCollisional"
    QUANTUM_COLLISIONLESS = "QuantumCollisionless"
    QUANTUM_COLLISIONAL = "QuantumCollisional"


def compute_scales(cond: PhysicalConditions) -> PlasmaScales:
    """Characteristic frequency, velocity and length scales.

    omega_p = sqrt(e^2 n / (m eps0)), v_T = sqrt(kB T / m),
    lambda_D = v_T / omega_p, lambda_B = hbar / (m v_T),
    E_F = (hbar^2 / 2m) (3 pi^2 n)^(2/3), v_F = sqrt(2 E_F / m),
    lambda_F = v_F / omega_p.
    """
    n = cond.number_density
    m = ELECTRON_MASS
    e = ELEMENTARY_CHARGE
    eps0 = VACUUM_PERMITTIVITY

    omega_p = math.sqrt(e**2 * n / (m * eps0))
    v_t = math.sqrt(BOLTZMANN * cond.temperature / m)
    fermi_energy = 0.5 * HBAR**2 / m * THREE_PI_SQ_23 * n ** (2.0 / 3.0)
    v_f = math.sqrt(2.0 * fermi_energy / m)
    return PlasmaScales(
        plasma_frequency=omega_p,
        thermal_velocity=v_t,
        debye_length=v_t / omega_p,
        de_broglie=HBAR / (m * v_t),
        fermi_temperature=fermi_energy / BOLTZMANN,
        fermi_energy=fermi_energy,
        fermi_velocity=v_f,
        fermi_screening_length=v_f / omega_p,
    )


def compute_dimensionless(cond: PhysicalConditions) -> DimensionlessGroup:
    """Degeneracy, coupling and collisionality parameters.

    chi = T_F / T; g_C = e^2 n^(1/3) / (eps0 kB T);
    g_Q = (2 / (3 pi^2)^(2/3)) e^2 m / (hbar^2 eps0 n^(1/3));
    H = hbar omega_p / E_F;
    nu_ee / omega_p = g_Q^(-1/2) (T / T_F)^2 (degenerate-gas estimate).
    """
    n = cond.number_density
    m = ELECTRON_MASS
    e = ELEMENTARY_CHARGE
    eps0 = VACUUM_PERMITTIVITY
    scales = compute_scales(cond)

    chi = scales.fermi_temperature / cond.temperature
    g_classical = e**2 * n ** (1.0 / 3.0) / (eps0 * BOLTZMANN * cond.temperature)
    g_quantum = (2.0 / THREE_PI_SQ_23) * e**2 * m / (HBAR**2 * eps0 * n ** (1.0 / 3.0))
    h_param = HBAR * scales.plasma_frequency / scales.fermi_energy
    nu_ee_over_wp = (1.0 / chi**2) / math.sqrt(g_quantum)
    return DimensionlessGroup(
        chi=chi,
        g_classical=g_classical,
        g_quantum=g_quantum,
        H=h_param,
        nu_ee_over_wp=nu_ee_over_wp,
    )


def classify_regime(group: DimensionlessGroup) -> RegimeLabel:
    """Quadrant of the density-temperature diagram.

    chi >= 1 selects the quantum branch, then the relevant coupling
    parameter (g_C classically, g_Q on the quantum side) decides
    collisional vs collisionless.  Boundary values (exactly 1) are
    assigned to the quantum / collisional side.
    """
    if group.chi >= 1.0:
        if group.g_quantum >= 1.0:
            return RegimeLabel.QUANTUM_COLLISIONAL
        return RegimeLabel.QUANTUM_COLLISIONLESS
    if group.g_classical >= 1.0:
        return RegimeLabel.CLASSICAL_COLLISIONAL
    return RegimeLabel.CLASSICAL_COLLISIONLESS


def pauli_collision_time(cond: PhysicalConditions) -> tuple[float, float, bool]:
    """Electron-electron collision time from the Pauli-blocked rate estimate
    and the plasma period 2 pi / omega_p.

    Returns (tau_ee, tau_p, outside_validity).  The estimate assumes a
    degenerate gas; outside_validity is True when chi < 1.
    """
    group = compute_dimensionless(cond)
    scales = compute_scales(cond)
    nu_ee = group.nu_ee_over_wp * scales.plasma_frequency
    tau_ee = math.inf if nu_ee == 0.0 else 1.0 / nu_ee
    tau_p = 2.0 * math.pi / scales.plasma_frequency
    return tau_ee, tau_p, group.chi < 1.0
