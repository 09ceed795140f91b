"""Diagnostics and file formats: damping-rate fits on synthetic signals,
series and snapshot round-trips, corruption detection and the phase-space
vortex detector."""

import json
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from scipy.stats import linregress

from qplasma import simulate
from qplasma.diagio import (DiagnosticSeries, SeriesRecorder, _line_fit,
                            damping_halt_time, detect_vortex,
                            fit_damping_rate, format_table, read_series_csv,
                            read_snapshot, write_series_csv, write_snapshot)
from qplasma.equilibria import StreamSet
from qplasma.fields import PhaseSpaceGrid, SpatialGrid
from qplasma.vlasov import VlasovState
from qplasma.wigner import WignerState

RNG = np.random.default_rng(7)


def write_state(path, name, state, **fields):
    """Write `state` with the channels and header of model `name`'s row in
    simulate.MODELS, plus the header `fields`."""
    row = simulate.MODELS[name]
    channels, header = row.snapshot(state, getattr(state, row.array))
    write_snapshot(path, channels, {**header, **fields})


class TestDampingFit:
    def test_recovers_rate_and_frequency_of_a_synthetic_wave(self):
        gamma, omega = 0.05, 1.3
        t = np.arange(0.0, 50.0, 0.01)
        w = np.exp(-2.0 * gamma * t) * np.cos(omega * t) ** 2
        g, om, g_err, om_err = fit_damping_rate(t, w, window=(2.0, 45.0))
        assert g == pytest.approx(gamma, rel=0.01)
        assert om == pytest.approx(omega, rel=0.01)
        assert g_err < 0.01 * gamma
        assert om_err < 0.01 * omega

    def test_growing_signal_gives_negative_rate(self):
        t = np.arange(0.0, 40.0, 0.01)
        w = np.exp(0.2 * t) * np.cos(1.0 * t) ** 2
        g, _, _, _ = fit_damping_rate(t, w)
        assert g == pytest.approx(-0.1, rel=0.01)

    def test_window_with_too_few_peaks_is_an_error(self):
        t = np.arange(0.0, 50.0, 0.01)
        w = np.exp(-0.1 * t) * np.cos(1.3 * t) ** 2
        with pytest.raises(ValueError, match="peaks"):
            fit_damping_rate(t, w, window=(0.0, 3.0))

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 200])
    def test_line_fit_matches_linregress(self, n):
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(0.0, 50.0, n))
        y = -0.3 * x + rng.standard_normal(n)
        slope, stderr = _line_fit(x, y)
        want = linregress(x, y)
        assert slope == pytest.approx(want.slope, rel=1e-10)
        assert stderr == pytest.approx(want.stderr, rel=1e-10, abs=0.0)

    def test_rate_error_matches_linregress_on_the_peaks(self):
        # A noisy envelope, so the rate has a nonzero standard error.
        rng = np.random.default_rng(8)
        t = np.arange(0.0, 50.0, 0.01)
        w = (np.exp(-0.1 * t + 0.05 * np.sin(0.7 * t + rng.uniform(0, 6)))
             * np.cos(1.3 * t) ** 2)
        g, _, g_err, _ = fit_damping_rate(t, w)
        peaks = np.flatnonzero((w[1:-1] > w[:-2]) & (w[1:-1] >= w[2:])) + 1
        want = linregress(t[peaks], np.log(w[peaks]))
        assert g == pytest.approx(-0.5 * want.slope, rel=1e-10)
        assert g_err == pytest.approx(0.5 * want.stderr, rel=1e-10)
        assert g_err > 1e-4

    def test_halt_time_of_a_decay_that_saturates(self):
        t = np.arange(0.0, 60.0, 0.01)
        env = np.where(t <= 20.0, np.exp(-0.2 * t),
                       np.exp(-4.0) * np.exp(0.05 * (t - 20.0)))
        w = env * np.cos(2.0 * t) ** 2
        t_halt, tp, wp = damping_halt_time(t, w)
        assert t_halt == pytest.approx(20.0, abs=2.0)
        assert tp.size == wp.size
        assert np.min(wp) == wp[np.searchsorted(tp, t_halt)]


class TestSeries:
    def make_series(self):
        rec = SeriesRecorder(model="vlasov", config_hash="abc123")
        for i in range(50):
            t = 0.1 * i
            rec.record(t, np.exp(-t) * 1e-3, 0.5 + 1e-4 * np.sin(t),
                       1.0, 1e-12 * i)
        return rec.series()

    def test_recorder_accumulates_and_totals(self):
        s = self.make_series()
        assert s.times.size == 50
        assert np.allclose(s.total_energy,
                           s.field_energy + s.kinetic_energy, rtol=0, atol=0)

    def test_csv_round_trip_is_exact(self, tmp_path):
        s = self.make_series()
        path = tmp_path / "series.csv"
        write_series_csv(s, path)
        back = read_series_csv(path)
        assert back.model == "vlasov"
        assert back.config_hash == "abc123"
        for name in ("times", "field_energy", "kinetic_energy",
                     "total_energy", "mass", "momentum"):
            assert np.array_equal(getattr(back, name), getattr(s, name))

    def test_columns_are_read_by_header_name(self, tmp_path):
        # Six columns in seven rows: 42 values, which a reader reshaping to
        # seven columns takes as six scrambled rows without complaint.
        path = tmp_path / "series.csv"
        rows = [(1.1 * i, 1e-3, 0.5, 0.5 + 1e-3, 1.0, 0.0) for i in range(7)]
        path.write_text("# model=vlasov config_hash=abc\n"
                        "t,field_energy,kinetic_energy,total_energy,mass,"
                        "momentum\n"
                        + "".join(",".join(repr(v) for v in row) + "\n"
                                  for row in rows))
        back = read_series_csv(path)
        assert np.array_equal(back.times, [row[0] for row in rows])
        assert np.array_equal(back.total_energy, np.full(7, 0.5 + 1e-3))

    def test_short_row_is_rejected_with_its_line(self, tmp_path):
        s = self.make_series()
        path = tmp_path / "series.csv"
        write_series_csv(s, path)
        lines = path.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"series.csv:5: 6 fields"):
            read_series_csv(path)

    @pytest.mark.parametrize("comment", [None, "model=vlasov"])
    def test_table_cells_read_back_bit_exact(self, comment):
        values = np.concatenate((RNG.standard_normal(5) * 1e-7,
                                 [0.1, 1.0 / 3.0, -0.0, 5e-324]))
        flags = values > 0
        text = format_table(("x", "positive"), zip(values, flags), comment)
        lines = text.splitlines()
        if comment is not None:
            assert lines.pop(0) == f"# {comment}"
        assert lines.pop(0) == "x,positive"
        assert text.endswith("\n")
        cells = [line.split(",") for line in lines]
        back = np.array([float(x) for x, _ in cells])
        assert np.array_equal(back.view(np.int64), values.view(np.int64))
        assert [flag for _, flag in cells] == [
            "true" if f else "false" for f in flags]

    def test_nonmonotone_times_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            DiagnosticSeries(np.array([0.0, 0.2, 0.1]), np.zeros(3),
                             np.zeros(3), np.zeros(3), np.zeros(3),
                             np.zeros(3))


class TestSnapshots:
    def make_grid(self):
        return PhaseSpaceGrid(SpatialGrid(2.0 * np.pi, 32), 3.0, 16)

    def test_field_round_trip_is_bit_exact(self, tmp_path):
        grid = self.make_grid()
        f = RNG.standard_normal((grid.n_v, grid.spatial.n_x))
        path = tmp_path / "snap.qpsn"
        write_state(path, "wigner", WignerState(f, grid, 1.0), time=12.5,
                    model="wigner", config_hash="deadbeef", H=1.0)
        header, channels = read_snapshot(path)
        assert header["model"] == "wigner"
        assert header["time"] == 12.5
        assert header["H"] == 1.0
        assert header["config_hash"] == "deadbeef"
        assert set(channels) == {"f_plus", "f_minus"}
        assert np.array_equal(channels["f_plus"] - channels["f_minus"], f)
        assert channels["f_plus"].min() >= 0.0
        assert channels["f_minus"].min() >= 0.0

    def test_single_channel_round_trip(self, tmp_path):
        grid = self.make_grid()
        f = RNG.standard_normal((grid.n_v, grid.spatial.n_x))
        path = tmp_path / "snap.qpsn"
        write_state(path, "vlasov", VlasovState(f, grid), H=0.0)
        header, channels = read_snapshot(path)
        assert set(channels) == {"f"}
        assert np.array_equal(channels["f"], f)
        assert header["grid"]["n_x"] == 32
        assert header["H"] == 0.0

    def test_wavefunction_round_trip(self, tmp_path):
        grid = SpatialGrid(2.0 * np.pi, 32)
        psi = RNG.standard_normal((4, 32)) + 1j * RNG.standard_normal((4, 32))
        path = tmp_path / "wf.qpsn"
        streams = StreamSet(grid, psi, np.array([0.4, 0.3, 0.2, 0.1]), 0.5)
        write_state(path, "hartree", streams, time=3.0, H=0.5)
        header, channels = read_snapshot(path)
        back = channels["psi_re"] + 1j * channels["psi_im"]
        assert np.array_equal(back, psi)
        assert header["probabilities"] == [0.4, 0.3, 0.2, 0.1]
        assert header["H"] == 0.5

    def test_corrupted_payload_is_detected(self, tmp_path):
        grid = self.make_grid()
        f = RNG.standard_normal((grid.n_v, grid.spatial.n_x))
        path = tmp_path / "snap.qpsn"
        write_snapshot(path, {"f": f}, {})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checksum"):
            read_snapshot(path)

    def rewrite(self, path, edit_header=None, extra_payload=b""):
        """Rewrite a snapshot with an edited header and extra payload bytes,
        recomputing the checksum so only the shape check can object."""
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen])
        payload = raw[12 + hlen:] + extra_payload
        if edit_header:
            edit_header(header)
        header["payload_crc32"] = zlib.crc32(payload) & 0xFFFFFFFF
        header_bytes = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(header_bytes))
                         + header_bytes + payload)

    def test_payload_length_must_match_the_header_shape(self, tmp_path):
        grid = PhaseSpaceGrid(SpatialGrid(2.0 * np.pi, 16), 3.0, 8)
        f = RNG.standard_normal((grid.n_v, grid.spatial.n_x))
        path = tmp_path / "snap.qpsn"
        write_snapshot(path, {"f": f}, {})
        self.rewrite(path, edit_header=lambda h: h.update(shape=[8, 8]))
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(path)
        write_snapshot(path, {"f": f}, {})
        self.rewrite(path, extra_payload=bytes(64))
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(path)
        write_snapshot(path, {"f": f}, {})
        self.rewrite(path)
        assert np.array_equal(read_snapshot(path)[1]["f"], f)

    def test_short_and_long_payloads_are_rejected_by_length(self, tmp_path):
        grid = PhaseSpaceGrid(SpatialGrid(2.0 * np.pi, 16), 3.0, 8)
        f = RNG.standard_normal((grid.n_v, grid.spatial.n_x))
        path = tmp_path / "snap.qpsn"
        for edit, size in ((lambda raw: raw[:-8], 1016),
                           (lambda raw: raw + bytes(8), 1032)):
            write_snapshot(path, {"f": f}, {})
            path.write_bytes(edit(path.read_bytes()))
            with pytest.raises(ValueError) as err:
                read_snapshot(path)
            assert str(err.value) == (f"snapshot payload is {size} bytes, but "
                                      "1 channels of shape [8, 16] take 1024")

    # A pipe has no size to stat: the payload length is what can be read.
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_snapshot_is_read_from_a_pipe(self, tmp_path):
        grid = PhaseSpaceGrid(SpatialGrid(2.0 * np.pi, 16), 3.0, 8)
        f = RNG.standard_normal((grid.n_v, grid.spatial.n_x))
        path = tmp_path / "snap.qpsn"
        write_snapshot(path, {"f": f}, {"time": 0.5, "config_hash": "abc"})
        raw = path.read_bytes()

        def read_piped(data):
            r, w = os.pipe()
            try:
                os.write(w, data)  # 1 KiB payload: within the pipe buffer
                os.close(w)
                return read_snapshot(f"/dev/fd/{r}")
            finally:
                os.close(r)

        header, channels = read_piped(raw)
        assert header["time"] == 0.5 and header["config_hash"] == "abc"
        assert np.array_equal(channels["f"], f)
        with pytest.raises(ValueError) as err:
            read_piped(raw[:-8])
        assert str(err.value) == ("snapshot payload is 1016 bytes, but "
                                  "1 channels of shape [8, 16] take 1024")

    # A 256x256 Wigner state: two channels, f_plus and f_minus, each of
    # f.nbytes.  Gathering the payload into one bytes object peaked at 6
    # f.nbytes when writing and 4 when reading; writing now holds the two
    # channels and the -f of f_minus, reading the one payload array.
    @pytest.mark.parametrize("io, limit", [("write", 3.5), ("read", 2.5)])
    def test_snapshot_io_does_not_copy_its_payload(self, tmp_path, io, limit):
        grid = PhaseSpaceGrid(SpatialGrid(2.0 * np.pi, 256), 3.0, 256)
        state = WignerState(RNG.standard_normal((256, 256)), grid, 1.0)
        path = tmp_path / "snap.qpsn"
        write_state(path, "wigner", state)  # warm-up
        tracemalloc.start()
        try:
            if io == "write":
                write_state(path, "wigner", state)
            else:
                read_snapshot(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * state.f.nbytes

    def test_wrong_magic_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.qpsn"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)


class TestVortexDetector:
    def make_grid(self):
        return PhaseSpaceGrid(SpatialGrid(2.0 * np.pi, 64), 3.0, 64)

    def hole_field(self, grid, depth=0.5, v0=1.0, half_width=0.45,
                   x_half=1.5):
        background = np.exp(-grid.v[:, None] ** 2) \
            * np.ones(grid.spatial.n_x)[None, :]
        in_v = np.abs(grid.v[:, None] - v0) <= half_width
        in_x = np.abs(grid.spatial.x[None, :] - np.pi) <= x_half
        return background - depth * (in_v & in_x)

    def test_synthetic_hole_is_detected_with_its_width(self):
        grid = self.make_grid()
        f = self.hole_field(grid)
        report = detect_vortex(f, grid, phase_velocity=1.0)
        assert report.present
        assert 0.3 < report.width < 0.6
        assert 0.25 <= report.x_fraction <= 0.9

    def test_invariant_under_constant_offset_and_translation(self):
        grid = self.make_grid()
        f = self.hole_field(grid)
        base = detect_vortex(f, grid, phase_velocity=1.0)
        shifted = detect_vortex(f + 3.7, grid, phase_velocity=1.0)
        rolled = detect_vortex(np.roll(f, 17, axis=1), grid,
                               phase_velocity=1.0)
        for other in (shifted, rolled):
            assert other.present == base.present
            assert other.width == pytest.approx(base.width, abs=1e-12)
            assert other.x_fraction == pytest.approx(base.x_fraction,
                                                     abs=1e-12)

    def test_unperturbed_field_reports_absent(self):
        grid = self.make_grid()
        f = np.broadcast_to(np.exp(-grid.v[:, None] ** 2),
                            (grid.n_v, grid.spatial.n_x)).copy()
        report = detect_vortex(f, grid, phase_velocity=1.0)
        assert not report.present
        assert report.width == 0.0

    def test_near_full_wrap_depletion_is_not_a_vortex(self):
        # A depletion band covering almost the whole period is a traveling
        # crest pattern, not a closed trapped structure.
        grid = self.make_grid()
        in_v = np.abs(grid.v[:, None] - 1.0) <= 0.45
        gap = np.abs(grid.spatial.x[None, :] - np.pi) <= 0.15
        f = np.ones((grid.n_v, grid.spatial.n_x)) \
            - 0.5 * (in_v & ~gap)
        report = detect_vortex(f, grid, phase_velocity=1.0)
        assert not report.present
