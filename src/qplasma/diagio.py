"""Run diagnostics (energy series, damping-rate fits, vortex detection)
and the bit-stable on-disk formats: CSV tables and snapshot containers.

Series files are CSV tables (`format_table`), read back by the column
names of their header row: t,field_energy,kinetic_energy,total_energy,
mass,momentum (plus the same field energy rescaled per Fermi energy as a
trailing column).  Snapshots are a small binary container: magic ``QPSN``,
a little-endian u32 version, a length-prefixed UTF-8 JSON header and a
row-major float64 payload of named channels.  This module knows no model:
`simulate.MODELS` says which channels and header fields each one writes.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import label

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


def format_table(columns, rows, comment: str | None = None) -> str:
    """CSV text of `rows` under the header `columns`, after a ``# comment``
    line when one is given; floats are written exactly (repr), booleans as
    true/false and strings as they are."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(columns))
    lines += [",".join(v if isinstance(v, str)
                       else str(v).lower() if isinstance(v, (bool, np.bool_))
                       else repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_series_csv(series: DiagnosticSeries, path) -> None:
    columns = (series.times, series.field_energy, series.kinetic_energy,
               series.total_energy, series.mass, series.momentum,
               FIELD_ENERGY_PER_EF * series.field_energy)
    Path(path).write_text(format_table(
        SERIES_COLUMNS + ("field_energy_per_ef",), zip(*columns),
        f"model={series.model} config_hash={series.config_hash}"))


def read_series_csv(path) -> DiagnosticSeries:
    """Read a series file back, each column by its header name (columns
    beyond SERIES_COLUMNS are not read).  Raises ValueError for a header
    that lacks a series column, and names the line of a row whose field
    count differs from the header's."""
    model = ""
    config_hash = ""
    names = None
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("#"):
                for tok in line[1:].split():
                    if tok.startswith("model="):
                        model = tok[len("model="):]
                    elif tok.startswith("config_hash="):
                        config_hash = tok[len("config_hash="):]
            elif line and names is None:
                names = line.split(",")
            elif line:
                fields = line.split(",")
                if len(fields) != len(names):
                    raise ValueError(f"{path}:{lineno}: {len(fields)} fields, "
                                     f"but the header names {len(names)}")
                rows.append([float(v) for v in fields])
    missing = [c for c in SERIES_COLUMNS if c not in (names or ())]
    if missing:
        raise ValueError(f"{path}: no column {', '.join(missing)} in the "
                         "header")
    data = np.array(rows, dtype=float).reshape(-1, len(names))
    return DiagnosticSeries(*(data[:, names.index(c)].copy()
                              for c in SERIES_COLUMNS),
                            model=model, config_hash=config_hash)


def write_snapshot(path, channels: dict, header: dict) -> None:
    """Write named arrays of one shape as float64 channels under a JSON
    header: `header` plus the channel names, their shape and the payload's
    CRC-32.  What each model writes is its row of `simulate.MODELS`."""
    # The channels are checksummed and written from their own memory; the
    # payload is never gathered into one bytes object.
    arrays = [np.ascontiguousarray(c, dtype="<f8") for c in channels.values()]
    crc = 0
    for arr in arrays:
        crc = zlib.crc32(arr, crc)
    header = dict(header, channels=list(channels), shape=list(arrays[0].shape),
                  payload_crc32=crc & 0xFFFFFFFF)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.writelines([SNAPSHOT_MAGIC,
                       struct.pack("<II", SNAPSHOT_VERSION, len(header_bytes)),
                       header_bytes, *arrays])


def read_snapshot(path):
    """Returns (header dict, {channel: array}); verifies the checksum and
    that the payload holds exactly the channels and shape the header names.
    The channels are views of one array that the payload is read into."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a snapshot file (magic {magic!r})")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        shape = tuple(header["shape"])
        names = header["channels"]
        size = 8 * len(names) * math.prod(shape)
        data = np.empty(size // 8, dtype="<f8")
        length = fh.readinto(data)  # short only at the end of the file
        if length == size:
            length += len(fh.read())
        if length != size:
            raise ValueError(
                f"snapshot payload is {length} bytes, but {len(names)} "
                f"channels of shape {list(shape)} take {size}")
    if (zlib.crc32(data) & 0xFFFFFFFF) != header["payload_crc32"]:
        raise ValueError("snapshot payload checksum mismatch")
    return header, dict(zip(names, data.reshape(len(names), *shape)))


def _line_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares slope of y against x and its standard error, as
    scipy.stats.linregress gives them (error 0 for two points)."""
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx
    if x.size == 2:
        return slope, 0.0
    resid = dy - slope * dx
    return slope, math.sqrt(float(resid @ resid) / (x.size - 2) / sxx)


def _peaks(w: np.ndarray) -> np.ndarray:
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
    peak_idx = _peaks(w)
    peak_idx = peak_idx[w[peak_idx] > 0]
    if peak_idx.size < 5:
        raise ValueError(
            f"only {peak_idx.size} field-energy peaks in window, "
            "need at least 5")
    tp = t[peak_idx]
    slope, slope_err = _line_fit(tp, np.log(w[peak_idx]))
    gamma = -0.5 * slope
    gamma_err = 0.5 * slope_err
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
    peak_idx = _peaks(w)
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
