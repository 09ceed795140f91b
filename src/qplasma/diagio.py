"""A run's diagnostic series and its bit-stable on-disk formats: CSV
tables and snapshot containers.

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
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from stat import S_ISREG

import numpy as np

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


# The header fields read_snapshot reads, each with its test.
_HEADER_FIELDS = {
    "shape": lambda v: isinstance(v, list) and all(
        type(n) is int and n >= 0 for n in v),
    "channels": lambda v: isinstance(v, list) and all(
        isinstance(c, str) for c in v),
    "payload_crc32": lambda v: type(v) is int,
}


def read_snapshot(path):
    """Returns (header dict, {channel: array}); verifies the checksum and
    that the payload holds exactly the channels and shape the header names.
    The channels are views of one array that the payload is read into.  A
    file that is not such a snapshot raises ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a snapshot file (magic {magic!r})")
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise ValueError("snapshot file ends inside its header")
        version, hlen = struct.unpack("<II", prefix)
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        bad = [key for key, ok in _HEADER_FIELDS.items()
               if not (isinstance(header, dict) and ok(header.get(key)))]
        if bad:
            raise ValueError(f"snapshot header has no valid {', '.join(bad)}")
        shape = tuple(header["shape"])
        names = header["channels"]
        size = 8 * len(names) * math.prod(shape)
        # A file's payload length is checked before the payload array is
        # allocated, so a header cannot ask for more memory than the file
        # holds; a pipe's is read in pieces of at most 1 MiB, so that memory
        # grows only with what arrives.
        info = os.fstat(fh.fileno())
        if S_ISREG(info.st_mode):
            length = info.st_size - fh.tell()
            if length == size:
                data = np.empty(size // 8, dtype="<f8")
                length = fh.readinto(data)  # short only at the end of the file
                if length == size:
                    length += len(fh.read())
        else:
            buf = bytearray()
            while len(buf) < size and (piece := fh.read(
                    min(size - len(buf), 1 << 20))):
                buf += piece
            length = len(buf) + len(fh.read())
            data = np.frombuffer(buf, dtype="<f8") if length == size else None
        if length != size:
            raise ValueError(
                f"snapshot payload is {length} bytes, but {len(names)} "
                f"channels of shape {list(shape)} take {size}")
    if (zlib.crc32(data) & 0xFFFFFFFF) != header["payload_crc32"]:
        raise ValueError("snapshot payload checksum mismatch")
    return header, dict(zip(names, data.reshape(len(names), *shape)))
