"""Scenario configuration parsing and the command-line interface:
validation with collected errors, canonical round-trips, deterministic
run outputs and the comparison guard."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qplasma import cli
from qplasma.config import ConfigError, ScenarioConfig, parse_config


class TestConfigParsing:
    def test_minimal_text_gives_defaults(self):
        cfg = parse_config("model = vlasov\n")
        assert cfg.model == "vlasov"
        assert cfg.alpha == 0.1
        assert cfg.k == 1.0
        assert cfg.n_x == 256
        assert cfg.dt == 0.05
        assert cfg.t_end == 50.0
        assert cfg.snapshot_times == ()

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# scenario\n\nmodel = vlasov  # kinetic\n")
        assert cfg.model == "vlasov"

    def test_length_is_an_integer_number_of_wavelengths(self):
        cfg = parse_config("model = vlasov\nk = 0.5\n")
        assert cfg.length == pytest.approx(4.0 * np.pi)

    def test_out_of_range_alpha_reports_its_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model = vlasov\nalpha = 1.5\n")
        assert any("line 2" in p and "alpha" in p for p in err.value.problems)

    def test_unknown_key_reports_its_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model = vlasov\nbogus = 3\n")
        assert any("line 2" in p and "bogus" in p for p in err.value.problems)

    def test_out_dir_is_an_unknown_key(self):
        # Outputs go to the command's --out directory; the config has no
        # say in it.
        with pytest.raises(ConfigError) as err:
            parse_config("model = vlasov\nout_dir = results\n")
        assert err.value.problems == ["line 2: unknown key 'out_dir'"]

    def test_periods_is_an_unknown_key(self):
        # The box is one wavelength of the seeded mode.
        with pytest.raises(ConfigError) as err:
            parse_config("model = vlasov\nk = 0.5\nperiods = 2\n")
        assert err.value.problems == ["line 3: unknown key 'periods'"]

    def test_vlasov_with_h_is_rejected_on_its_line(self):
        # The classical model would run, but every header would read H.
        with pytest.raises(ConfigError) as err:
            parse_config("model = vlasov\nalpha = 0.1\nh = 1.0\n")
        assert err.value.problems == [
            "line 3: h must be 0 for model 'vlasov', which is classical, "
            "got 1.0"]

    def test_fluid_split_step_resonance_is_rejected_on_the_dt_line(self):
        # hbar_eff k_max^2 dt / 2 = 0.5 * 128^2 * 0.05 / 2 = 65.2 pi.
        with pytest.raises(ConfigError) as err:
            parse_config("model = fluid\nh = 1.0\nn_x = 256\ndt = 0.05\n")
        [problem] = err.value.problems
        assert problem.startswith("line 4: dt ")
        assert "65.2 pi" in problem

    def test_fluid_resonance_is_not_evaluated_on_a_bad_grid(self):
        # The grid cannot be built; only the key's own problem is reported.
        cases = {"n_x = 4": "line 3: n_x must be at least 8, got 4",
                 "k = 0": "line 3: k must be positive, got 0.0"}
        for line, expected in cases.items():
            with pytest.raises(ConfigError) as err:
                parse_config(f"model = fluid\nh = 1.0\n{line}\n")
            assert err.value.problems == [expected]

    def test_all_problems_collected_not_just_the_first(self):
        text = "model = vlasov\nbogus = 3\nn_x = oops\nwhat\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.problems) == 3

    def test_missing_model_is_an_error(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config("alpha = 0.1\n")

    def test_quantum_models_require_h(self):
        for model in ("wigner", "hartree", "fluid"):
            with pytest.raises(ConfigError, match="h > 0"):
                parse_config(f"model = {model}\n")

    def test_round_trip_through_canonical_text(self):
        cfg = parse_config("model = wigner\nh = 0.7\nalpha = 0.02\n"
                           "snapshot_times = 1.0,2.5\nsave_final = true\n")
        again = parse_config(cfg.to_text())
        assert again == cfg
        # Every field away from its default, so each key's parser is used.
        cfg = parse_config(
            "model = hartree\nequilibrium = waterbag1d\nt_over_tf = 0.05\n"
            "alpha = 0.02\nk = 0.5\nh = 0.7\nn_x = 64\n"
            "n_v = 128\nv_max = 4.0\ndt = 0.1\nt_end = 2.0\n"
            "output_every = 2\nsnapshot_times = 1.0,1.5\nsave_final = true\n"
            "gamma = 2.0\np0 = 0.5\nn_streams = 6\n")
        defaults = ScenarioConfig(model="vlasov")
        for f in fields(ScenarioConfig):
            value = getattr(cfg, f.name)
            assert value != getattr(defaults, f.name), f.name
            assert type(value) is type(getattr(defaults, f.name)), f.name
        assert parse_config(cfg.to_text()) == cfg

    def test_times_off_the_step_grid_are_rejected(self):
        # Each of these ran to another time than its label said.
        cases = {"dt = 0.3\nt_end = 1.0\n": ("line 3", "t_end"),
                 "dt = 0.3\nt_end = 0.9\nsnapshot_times = 0.5\n":
                     ("line 4", "snapshot_times"),
                 "t_end = 5.0\nsnapshot_times = 1.0,7.0\n":
                     ("line 3", "after t_end")}
        for body, (line, what) in cases.items():
            with pytest.raises(ConfigError) as err:
                parse_config("model = vlasov\n" + body)
            assert any(line in p and what in p for p in err.value.problems)

    def test_times_on_the_step_grid_up_to_round_off_are_accepted(self):
        cfg = parse_config("model = vlasov\ndt = 0.05\n"
                           f"t_end = {3 * 0.05!r}\n"
                           f"snapshot_times = 0.0,0.1,{3 * 0.05!r}\n")
        assert cfg.t_end == 3 * 0.05

    def test_overrides_apply_after_the_file(self):
        cfg = parse_config("model = vlasov\nalpha = 0.1\n",
                           overrides=["alpha=0.05", "n_x=64"])
        assert cfg.alpha == 0.05
        assert cfg.n_x == 64

    def test_bad_override_is_reported(self):
        with pytest.raises(ConfigError, match="override"):
            parse_config("model = vlasov\n", overrides=["nonsense"])

    def test_range_problems_of_an_override_are_blamed_on_it(self):
        cases = {"alpha=2.0": "override: alpha must be in [0, 1], got 2.0",
                 "model=wigner": "override: model 'wigner' requires h > 0"}
        for item, expected in cases.items():
            with pytest.raises(ConfigError) as err:
                parse_config("model = vlasov\nalpha = 0.1\n",
                             overrides=[item])
            assert err.value.problems == [expected]

    def test_hash_is_stable_and_sensitive(self):
        a = parse_config("model = vlasov\n")
        b = parse_config("model = vlasov\nalpha = 0.1\n")
        c = parse_config("model = vlasov\nalpha = 0.2\n")
        assert a.config_hash() == b.config_hash()  # same resolved values
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 12


def parse_csv_rows(text):
    rows = {}
    for line in text.splitlines()[1:]:
        name, val = line.split(",", 1)
        rows[name] = val
    return rows


class TestParamsCommand:
    def test_gold_report_matches_the_benchmarks(self, capsys):
        rc = cli.main(["params", "--material", "gold", "--csv"])
        assert rc == 0
        rows = parse_csv_rows(capsys.readouterr().out)
        assert float(rows["plasma_frequency [1/s]"]) \
            == pytest.approx(1.37e16, rel=0.01)
        assert float(rows["fermi_energy [eV]"]) == pytest.approx(5.53, rel=0.01)
        assert float(rows["fermi_velocity [m/s]"]) \
            == pytest.approx(1.4e6, rel=0.01)
        assert float(rows["g_quantum"]) == pytest.approx(12.7, rel=0.01)
        assert rows["regime"].startswith("Quantum")

    def test_explicit_density_temperature(self, capsys):
        rc = cli.main(["params", "--density", "1e28", "--temperature",
                       "300", "--csv"])
        assert rc == 0
        rows = parse_csv_rows(capsys.readouterr().out)
        assert float(rows["density [1/m^3]"]) == 1e28

    def test_unknown_material_fails(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["params", "--material", "unobtanium"])
        assert err.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_arguments_fail(self, capsys):
        rc = cli.main(["params", "--density", "1e28"])
        assert rc == 2


class TestDispersionCommand:
    def test_flat_top_scan_satisfies_the_closed_form(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = cli.main(["dispersion", "--model", "vlasov", "--equilibrium",
                       "waterbag1d", "--kmin", "0.1", "--kmax", "2.0",
                       "--nk", "12", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,re_omega,im_omega,residual"
        assert len(lines) == 13
        for line in lines[1:]:
            k, re, im, res = (float(v) for v in line.split(","))
            assert abs(re**2 - (1.0 + k**2)) < 1e-8
            assert abs(im) < 1e-10
            assert res < 1e-10

    def test_multistream_scan_is_refused(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["dispersion", "--model", "multistream"])
        assert err.value.code == 2
        assert "invalid choice: 'multistream'" in capsys.readouterr().err

    def test_unconverged_root_is_an_error_line(self, capsys):
        rc = cli.main(["dispersion", "--model", "wigner", "--equilibrium",
                       "waterbag1d", "--h", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: root iteration did not converge at K=1.5: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_classical_scan_takes_no_planck_constant(self, capsys):
        rc = cli.main(["dispersion", "--model", "vlasov", "--h", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: the vlasov model is classical: "
                                "H must be 0\n")
        assert captured.out == ""

    def test_unknown_equilibrium_is_refused(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["dispersion", "--model", "vlasov",
                      "--equilibrium", "bogus"])
        assert err.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_finite_temperature_equilibrium_needs_a_temperature(self, capsys):
        # The default --t-over-tf is 0, outside the profile's range.
        rc = cli.main(["dispersion", "--model", "vlasov",
                       "--equilibrium", "fd3d_projected"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: t_over_tf must lie in (0, 1]\n"
        assert captured.out == ""


BASE_CONFIG = """\
model = vlasov
equilibrium = fd3d_projected
t_over_tf = 0.01
alpha = 0.05
k = 1.0
n_x = 32
n_v = 64
dt = 0.1
t_end = 2.0
save_final = true
"""


class TestRunCommand:
    def test_outputs_are_deterministic_and_embed_the_hash(self, tmp_path,
                                                          capsys):
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(BASE_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(out_b)]) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        assert any(n.startswith("series_vlasov_") for n in names_a)
        assert any(n.startswith("snapshot_vlasov_") for n in names_a)
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

        cfg = parse_config(BASE_CONFIG)
        h = cfg.config_hash()
        series = next(n for n in names_a if n.startswith("series_"))
        assert h in series
        assert f"config_hash={h}" in (out_a / series).read_text().splitlines()[0]

    def test_override_changes_the_output_hash(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(BASE_CONFIG)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--override", "alpha=0.01"]) == 0
        h = parse_config(BASE_CONFIG, overrides=["alpha=0.01"]).config_hash()
        assert any(h in p.name for p in out.iterdir())

    def test_invalid_config_fails_with_messages(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("model = vlasov\nalpha = 2.0\nn_x = 4\n")
        rc = cli.main(["run", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "n_x" in err


    def test_zero_temperature_projected_equilibrium_is_a_config_error(
            self, tmp_path, capsys):
        cfg_path = tmp_path / "cold.cfg"
        cfg_path.write_text(BASE_CONFIG.replace("t_over_tf = 0.01",
                                                "t_over_tf = 0"))
        rc = cli.main(["run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: line 3: t_over_tf must be in (0, 1]" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestCompareCommand:
    def write_pair(self, tmp_path):
        # dt small enough that the fluid half of the pair is clear of the
        # split-step resonance at this grid cutoff
        base = BASE_CONFIG.replace("dt = 0.1", "dt = 0.02")
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(base)
        b.write_text(base.replace("model = vlasov", "model = fluid")
                     + "h = 1.0\n")
        return a, b

    def test_joined_series_with_both_hashes(self, tmp_path, capsys):
        a, b = self.write_pair(tmp_path)
        out = tmp_path / "cmp"
        rc = cli.main(["compare", str(a), str(b), "--out", str(out)])
        assert rc == 0
        files = list(out.iterdir())
        assert len(files) == 1
        text = files[0].read_text()
        ha = parse_config(a.read_text()).config_hash()
        hb = parse_config(b.read_text()).config_hash()
        assert f"config_hash_a={ha}" in text
        assert f"config_hash_b={hb}" in text
        n_rows = len(text.splitlines()) - 2
        assert n_rows == int(round(2.0 / 0.02)) + 1

    def test_invalid_config_fails_with_messages(self, tmp_path, capsys):
        a, b = self.write_pair(tmp_path)
        b.write_text(b.read_text() + "n_v = 7\n")
        out = tmp_path / "cmp"
        rc = cli.main(["compare", str(a), str(b), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: line 12: n_v must be even and at "
                       "least 8, got 7"]
        assert not out.exists()

    def test_mismatched_grids_are_refused(self, tmp_path, capsys):
        # The finer grid goes on the vlasov side: at n_x = 64 the fluid
        # side would be rejected for the split-step resonance first.
        a, b = self.write_pair(tmp_path)
        a.write_text(a.read_text().replace("n_x = 32", "n_x = 64"))
        rc = cli.main(["compare", str(a), str(b), "--out", str(tmp_path)])
        assert rc == 2
        assert "n_x" in capsys.readouterr().err


class TestImportFootprint:
    @staticmethod
    def loaded_after_import(module, names):
        """Which of `names` a fresh interpreter holds after `import module`."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c",
             f"import {module}, sys; "
             f"print([n for n in {names!r} if n in sys.modules])"],
            env=env, capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_cli_import_does_not_load_scipy_stats(self):
        # scipy.stats adds about 18 MB of resident memory to every process
        # that imports it; nothing in qplasma needs it.
        assert self.loaded_after_import("qplasma.cli", ["scipy.stats"]) == "[]"

    def test_simulate_import_loads_no_quadrature_or_root_finder(self):
        # The library path of `qplasma run` solves the chemical potential
        # with numpy alone.  (The CLI still loads scipy.integrate for the
        # dispersion integrals.)
        assert self.loaded_after_import(
            "qplasma.simulate", ["scipy.integrate", "scipy.optimize"]) == "[]"
