"""Run analysis for the linear-theory and trapping checks (criteria 5-7):
the damping-rate fit and halt time of a field-energy series, and a
detector of trapped phase-space vortices.  Only tests call these; the
library keeps the runs and the file formats they are read from."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import label
from scipy.stats import linregress

from qplasma.fields import PhaseSpaceGrid


def peak_indices(w: np.ndarray) -> np.ndarray:
    """Indices of the interior local maxima of w (plateaus count once)."""
    interior = (w[1:-1] > w[:-2]) & (w[1:-1] >= w[2:])
    return np.flatnonzero(interior) + 1


def fit_damping_rate(times: np.ndarray, field_energy: np.ndarray,
                     window: tuple[float, float] | None = None):
    """Damping rate and frequency from the field-energy peak envelope.

    The field energy of a damped wave ~ exp(-2 gamma t) cos^2, so the
    log-peak slope is -2 gamma and consecutive peaks are pi / omega apart.
    The fit needs at least 5 positive peaks in the window.
    Returns (gamma, omega, gamma_stderr, omega_stderr).
    """
    t = np.asarray(times, dtype=float)
    w = np.asarray(field_energy, dtype=float)
    if window is not None:
        mask = (t >= window[0]) & (t <= window[1])
        t, w = t[mask], w[mask]
    if t.size < 3:
        raise ValueError("window contains too few samples")
    peak_idx = peak_indices(w)
    peak_idx = peak_idx[w[peak_idx] > 0]
    if peak_idx.size < 5:
        raise ValueError(
            f"only {peak_idx.size} field-energy peaks in window, "
            "need at least 5")
    tp = t[peak_idx]
    fit = linregress(tp, np.log(w[peak_idx]))
    gamma = -0.5 * fit.slope
    gamma_err = 0.5 * fit.stderr
    spacing = np.diff(tp)
    omega = np.pi / float(np.mean(spacing))
    omega_err = omega * float(np.std(spacing) / np.mean(spacing)) / max(
        1.0, np.sqrt(spacing.size))
    return gamma, omega, gamma_err, omega_err


def damping_halt_time(times: np.ndarray, field_energy: np.ndarray):
    """Time at which the initial decay of the field-energy peak envelope
    stops: the peak time achieving the envelope minimum before the envelope
    first recovers.  Returns (t_halt, peak_times, peak_values)."""
    t = np.asarray(times, dtype=float)
    w = np.asarray(field_energy, dtype=float)
    peak_idx = peak_indices(w)
    if peak_idx.size < 2:
        raise ValueError("too few field-energy peaks to locate a halt")
    tp, wp = t[peak_idx], w[peak_idx]
    i_min = int(np.argmin(wp))
    return float(tp[i_min]), tp, wp


@dataclass(frozen=True)
class VortexReport:
    present: bool
    width: float          # velocity half-extent, v_F units
    v_extent: float       # full velocity extent of the deviation region
    x_fraction: float     # x coverage of that region / box length


def detect_vortex(f: np.ndarray, grid: PhaseSpaceGrid,
                  phase_velocity: float) -> VortexReport:
    """Deterministic proxy for a trapped phase-space vortex.

    Within |v - v_phi| <= 1 (one Fermi velocity) the deviation of f from
    its x-average is thresholded at 0.2 of the perturbation scale of the
    window (its maximum absolute deviation).  A vortex is a *closed*
    connected deviation region: it must span at least 3 velocity cells and
    between 0.25 and 0.9 of the box length in x (one wavelength of the
    seeded mode in a single-period box).  Regions wrapping (nearly) the
    whole period are traveling-wave crests, not trapped structures, and
    are rejected; that closure test is what separates a trapped vortex
    from the open oscillation bands of the quantum runs at the same
    amplitude.

    The mask keeps depletion only (f below its x-average): a trapped
    vortex is a phase-space hole, while both signs together also pick up
    the crests of ordinary waves.  Only the component containing the
    deepest depletion cell is examined; satellite patches of an
    oscillation pattern never qualify that way.  The reported width is
    half the velocity extent of the hole (the trapping width
    sqrt(alpha)/K of the classical estimate is a half-extent).  The
    detector is invariant under adding a constant to f and under periodic
    x-translation.
    """
    v = grid.v
    rows = np.flatnonzero(np.abs(v - phase_velocity) <= 1.0)
    if rows.size == 0:
        return VortexReport(False, 0.0, 0.0, 0.0)
    window = f[rows, :]
    dev = window - window.mean(axis=1, keepdims=True)
    scale = float(np.max(np.abs(dev)))
    if scale == 0.0:
        return VortexReport(False, 0.0, 0.0, 0.0)
    mask = dev < -0.2 * scale

    # Connected components with periodic wrap in x: label a doubled array
    # so wrapping regions are joined.
    doubled = np.concatenate([mask, mask], axis=1)
    labels, _ = label(doubled)
    n_x = mask.shape[1]
    cells_per_box = grid.spatial.length / grid.spatial.dx

    j_min, i_min = np.unravel_index(int(np.argmin(dev)), dev.shape)
    # read the label from the second copy, whose left edge is joined to the
    # first copy so components wrapping the periodic seam stay connected
    lab = labels[j_min, i_min + n_x]
    if lab == 0:
        return VortexReport(False, 0.0, 0.0, 0.0)
    where = np.nonzero(labels == lab)
    v_cells = int(where[0].max() - where[0].min() + 1)
    x_cols = np.unique(where[1] % n_x)
    x_fraction = float(x_cols.size / cells_per_box)
    v_extent = v_cells * grid.dv
    present = v_cells >= 3 and 0.25 <= x_fraction <= 0.9
    if not present:
        return VortexReport(False, 0.0, v_extent, x_fraction)
    return VortexReport(True, 0.5 * v_extent, v_extent, x_fraction)
