"""Run diagnostics (energy series, damping-rate fits, vortex detection)
and the bit-stable on-disk formats for series and phase-space snapshots.

Series files are CSV with the fixed column order
t,field_energy,kinetic_energy,total_energy,mass,momentum (plus the same
field energy rescaled per Fermi energy as a trailing column).  Snapshots
are a small binary container: magic ``QPSN``, a little-endian u32 version,
a length-prefixed UTF-8 JSON header and a row-major float64 payload.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import label
from scipy.stats import linregress

from .fields import PhaseSpaceGrid

SNAPSHOT_MAGIC = b"QPSN"
SNAPSHOT_VERSION = 1

# The normalized field energy is measured in units of n0 m v_F^2 per
# particle; dividing by E_F = m v_F^2 / 2 doubles it.
FIELD_ENERGY_PER_EF = 2.0

SERIES_COLUMNS = ("t", "field_energy", "kinetic_energy", "total_energy",
                  "mass", "momentum")


@dataclass
class DiagnosticSeries:
    """Time series of the conserved/monitored quantities of one run."""

    times: np.ndarray
    field_energy: np.ndarray
    kinetic_energy: np.ndarray
    total_energy: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray
    model: str = ""
    config_hash: str = ""

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("time stamps must be strictly increasing")


class SeriesRecorder:
    """Append-only builder for a DiagnosticSeries."""

    def __init__(self, model: str = "", config_hash: str = ""):
        self.model = model
        self.config_hash = config_hash
        self._rows = []

    def record(self, t, field_energy, kinetic_energy, mass, momentum):
        self._rows.append((t, field_energy, kinetic_energy,
                           field_energy + kinetic_energy, mass, momentum))

    def series(self) -> DiagnosticSeries:
        data = np.array(self._rows, dtype=float).reshape(-1, 6)
        return DiagnosticSeries(*(data[:, i].copy() for i in range(6)),
                                model=self.model, config_hash=self.config_hash)


def write_series_csv(series: DiagnosticSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# model={series.model} config_hash={series.config_hash}\n")
        fh.write(",".join(SERIES_COLUMNS) + ",field_energy_per_ef\n")
        for i in range(series.times.size):
            row = (series.times[i], series.field_energy[i],
                   series.kinetic_energy[i], series.total_energy[i],
                   series.mass[i], series.momentum[i],
                   FIELD_ENERGY_PER_EF * series.field_energy[i])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_series_csv(path) -> DiagnosticSeries:
    model = ""
    config_hash = ""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if tok.startswith("model="):
                        model = tok[len("model="):]
                    elif tok.startswith("config_hash="):
                        config_hash = tok[len("config_hash="):]
                continue
            if line.startswith("t,"):
                continue
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows, dtype=float).reshape(-1, 7)
    return DiagnosticSeries(*(data[:, i].copy() for i in range(6)),
                            model=model, config_hash=config_hash)


def _write_container(path, channels: dict, header: dict,
                     extra_header: dict | None) -> None:
    """Write magic, version, header length, the JSON header (completed with
    the channel names, shape and payload checksum) and the channels as one
    row-major float64 payload."""
    first = next(iter(channels.values()))
    payload = b"".join(np.ascontiguousarray(c, dtype="<f8").tobytes()
                       for c in channels.values())
    header = dict(header, channels=list(channels), shape=list(first.shape),
                  payload_crc32=zlib.crc32(payload) & 0xFFFFFFFF)
    if extra_header:
        header.update(extra_header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", SNAPSHOT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def write_snapshot(path, f: np.ndarray, grid: PhaseSpaceGrid, time: float,
                   model: str, H: float = 0.0, config_hash: str = "",
                   split_sign_channels: bool = False,
                   extra_header: dict | None = None) -> None:
    """Serialize a phase-space field.  With split_sign_channels the positive
    part max(f, 0) and negative part max(-f, 0) are stored as separate
    channels (the natural view of a signed quantum distribution)."""
    f = np.asarray(f, dtype="<f8")
    if split_sign_channels:
        channels = {"f_plus": np.maximum(f, 0.0), "f_minus": np.maximum(-f, 0.0)}
    else:
        channels = {"f": f}
    header = {
        "grid": {"length": grid.spatial.length, "n_x": grid.spatial.n_x,
                 "v_max": grid.v_max, "n_v": grid.n_v},
        "time": float(time),
        "model": model,
        "H": float(H),
        "config_hash": config_hash,
    }
    _write_container(path, channels, header, extra_header)


def write_wavefunction_snapshot(path, psi: np.ndarray, grid, time: float,
                                model: str, H: float = 0.0,
                                probabilities=None, config_hash: str = "",
                                extra_header: dict | None = None) -> None:
    """Serialize a set of complex wavefunctions (N, n_x) as real/imaginary
    channel pairs in the same container format."""
    psi = np.atleast_2d(np.asarray(psi, dtype=complex))
    header = {
        "grid": {"length": grid.length, "n_x": grid.n_x},
        "time": float(time),
        "model": model,
        "H": float(H),
        "config_hash": config_hash,
    }
    if probabilities is not None:
        header["probabilities"] = [float(p) for p in probabilities]
    _write_container(path, {"psi_re": psi.real, "psi_im": psi.imag}, header,
                     extra_header)


def read_snapshot(path):
    """Returns (header dict, {channel: array}); verifies the checksum and
    that the payload holds exactly the channels and shape the header names."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a snapshot file (magic {magic!r})")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        payload = fh.read()
    if (zlib.crc32(payload) & 0xFFFFFFFF) != header["payload_crc32"]:
        raise ValueError("snapshot payload checksum mismatch")
    shape = tuple(header["shape"])
    names = header["channels"]
    size = 8 * math.prod(shape)
    if len(payload) != len(names) * size:
        raise ValueError(
            f"snapshot payload is {len(payload)} bytes, but {len(names)} "
            f"channels of shape {list(shape)} take {len(names) * size}")
    return header, {name: np.frombuffer(payload, dtype="<f8", count=size // 8,
                                        offset=i * size).reshape(shape).copy()
                    for i, name in enumerate(names)}


def fit_damping_rate(times: np.ndarray, field_energy: np.ndarray,
                     window: tuple[float, float] | None = None,
                     min_peaks: int = 5):
    """Damping rate and frequency from the field-energy peak envelope.

    The field energy of a damped wave ~ exp(-2 gamma t) cos^2, so the
    log-peak slope is -2 gamma and consecutive peaks are pi / omega apart.
    Returns (gamma, omega, gamma_stderr, omega_stderr).
    """
    t = np.asarray(times, dtype=float)
    w = np.asarray(field_energy, dtype=float)
    if window is not None:
        mask = (t >= window[0]) & (t <= window[1])
        t, w = t[mask], w[mask]
    if t.size < 3:
        raise ValueError("window contains too few samples")
    interior = (w[1:-1] > w[:-2]) & (w[1:-1] >= w[2:])
    peak_idx = np.flatnonzero(interior) + 1
    peak_idx = peak_idx[w[peak_idx] > 0]
    if peak_idx.size < min_peaks:
        raise ValueError(
            f"only {peak_idx.size} field-energy peaks in window, "
            f"need at least {min_peaks}")
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
    interior = (w[1:-1] > w[:-2]) & (w[1:-1] >= w[2:])
    peak_idx = np.flatnonzero(interior) + 1
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
    x_fraction: float     # x coverage of that region / wavelength


def detect_vortex(f: np.ndarray, grid: PhaseSpaceGrid, phase_velocity: float,
                  wavelength: float | None = None,
                  deviation_fraction: float = 0.2, min_v_cells: int = 3,
                  min_x_fraction: float = 0.25, max_x_fraction: float = 0.9,
                  v_window: float = 1.0) -> VortexReport:
    """Deterministic proxy for a trapped phase-space vortex.

    Within |v - v_phi| <= v_window the deviation of f from its x-average is
    thresholded at `deviation_fraction` of the perturbation scale of the
    window (its maximum absolute deviation).  A vortex is a *closed*
    connected deviation region: it must span at least `min_v_cells`
    velocity cells and between `min_x_fraction` and `max_x_fraction` of
    one wavelength in x.  Regions wrapping (nearly) the whole period are
    traveling-wave crests, not trapped structures, and are rejected; that
    closure test is what separates a trapped vortex from the open
    oscillation bands of the quantum runs at the same amplitude.

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
    rows = np.flatnonzero(np.abs(v - phase_velocity) <= v_window)
    if rows.size == 0:
        return VortexReport(False, 0.0, 0.0, 0.0)
    window = f[rows, :]
    dev = window - window.mean(axis=1, keepdims=True)
    scale = float(np.max(np.abs(dev)))
    if scale == 0.0:
        return VortexReport(False, 0.0, 0.0, 0.0)
    mask = dev < -deviation_fraction * scale

    # Connected components with periodic wrap in x: label a doubled array
    # so wrapping regions are joined.
    doubled = np.concatenate([mask, mask], axis=1)
    labels, _ = label(doubled)
    n_x = mask.shape[1]
    L = wavelength if wavelength is not None else grid.spatial.length
    cells_per_wavelength = L / grid.spatial.dx

    j_min, i_min = np.unravel_index(int(np.argmin(dev)), dev.shape)
    # read the label from the second copy, whose left edge is joined to the
    # first copy so components wrapping the periodic seam stay connected
    lab = labels[j_min, i_min + n_x]
    if lab == 0:
        return VortexReport(False, 0.0, 0.0, 0.0)
    where = np.nonzero(labels == lab)
    v_cells = int(where[0].max() - where[0].min() + 1)
    x_cols = np.unique(where[1] % n_x)
    x_fraction = float(x_cols.size / cells_per_wavelength)
    v_extent = v_cells * grid.dv
    present = (v_cells >= min_v_cells
               and min_x_fraction <= x_fraction <= max_x_fraction)
    if not present:
        return VortexReport(False, 0.0, v_extent, x_fraction)
    return VortexReport(True, 0.5 * v_extent, v_extent, x_fraction)
