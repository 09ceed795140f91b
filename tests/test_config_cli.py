"""Scenario configuration parsing and the command-line interface:
validation with collected errors, canonical round-trips, deterministic
run outputs and the comparison guard."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qplasma import cli
from qplasma.config import (COMMON_KEYS, EQUILIBRIA, ConfigError,
                            ScenarioConfig, parse_config, read_keys)
from qplasma.simulate import MODELS

README = Path(__file__).resolve().parents[1] / "README.md"


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
        assert err.value.problems == ["line 3: model 'vlasov' has no key 'h'"]

    @pytest.mark.parametrize("model,key", [
        (model, f.name) for model in MODELS for f in fields(ScenarioConfig)
        if f.name not in COMMON_KEYS + MODELS[model].keys])
    def test_a_key_the_model_does_not_read_is_rejected(self, model, key):
        text = f"model = {model}\nn_x = 32\ndt = 0.02\n" + (
            "h = 1.0\n" if "h" in MODELS[model].keys else "")
        setting = f"{key} = {getattr(ScenarioConfig(model), key)}"
        n_lines = len(text.splitlines())
        expected = f"model {model!r} has no key {key!r}"
        with pytest.raises(ConfigError) as err:
            parse_config(text + setting + "\n")
        assert err.value.problems == [f"line {n_lines + 1}: {expected}"]
        with pytest.raises(ConfigError) as err:
            parse_config(text, overrides=[setting])
        assert err.value.problems == [f"override: {expected}"]

    def test_unread_keys_of_a_run_do_not_split_its_hash(self):
        # A key hartree never reads can neither be set nor enter its hash.
        text = "model = hartree\nh = 1.0\nn_x = 32\nt_end = 0.2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text + "n_v = 64\n")
        assert err.value.problems == ["line 5: model 'hartree' has no key 'n_v'"]
        assert "n_v" not in parse_config(text).to_text()

    @pytest.mark.parametrize("model", ["vlasov", "wigner"])
    @pytest.mark.parametrize("equilibrium", ["waterbag1d",
                                             "fd3d_projected_T0"])
    def test_t_over_tf_is_a_key_only_of_the_finite_temperature_profile(
            self, model, equilibrium):
        # These profiles take no temperature: t_over_tf would be accepted,
        # ignored and hashed.
        text = (f"model = {model}\nequilibrium = {equilibrium}\nn_x = 32\n"
                + ("h = 1.0\n" if model == "wigner" else ""))
        n_lines = len(text.splitlines())
        expected = f"equilibrium {equilibrium!r} has no key 't_over_tf'"
        with pytest.raises(ConfigError) as err:
            parse_config(text + "t_over_tf = 0.5\n")
        assert err.value.problems == [f"line {n_lines + 1}: {expected}"]
        with pytest.raises(ConfigError) as err:
            parse_config(text, overrides=["t_over_tf = 0.5"])
        assert err.value.problems == [f"override: {expected}"]
        assert "t_over_tf" not in parse_config(text).to_text()
        finite_t = parse_config(text.replace(equilibrium, "fd3d_projected")
                                + "t_over_tf = 0.5\n")
        assert "t_over_tf = 0.5\n" in finite_t.to_text()

    def test_stream_lattice_above_the_fermi_energy_is_rejected_on_the_h_line(
            self):
        # With h = 10 on the unit-k box the even lattice's streams sit at
        # multiples of pi h / L = 5 v_F, all above the Fermi energy, so no
        # occupation is left.  An odd count keeps the stream at rest.
        text = "model = hartree\nh = 10.0\nn_x = 32\nt_end = 0.2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        [problem] = err.value.problems
        assert problem.startswith("line 2: h must leave a stream below the "
                                  "Fermi energy, got 10.0")
        assert parse_config(text + "n_streams = 3\n").h == 10.0

    def test_fluid_split_step_resonance_is_rejected_on_the_dt_line(self):
        # hbar_eff k_max^2 dt / 2 = 0.5 * 128^2 * 0.05 / 2 = 65.2 pi.
        with pytest.raises(ConfigError) as err:
            parse_config("model = fluid\nh = 1.0\nn_x = 256\ndt = 0.05\n")
        [problem] = err.value.problems
        assert problem.startswith("line 4: dt ")
        assert "65.2 pi" in problem

    def test_isothermal_fluid_density_that_vanishes_is_rejected(self):
        # gamma = 1 makes the enthalpy p0 log n; at alpha = 1 the density
        # 1 + cos kx is 0 on the grid point x = L/2 and the run stopped at
        # t=0 with non-finite diagnostics.
        text = ("model = fluid\nalpha = 1.0\ngamma = 1\nh = 1\nn_x = 32\n"
                "dt = 0.02\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        [problem] = err.value.problems
        assert problem.startswith("line 2: alpha must be below 1")
        assert parse_config(text.replace("gamma = 1", "gamma = 2")).alpha == 1.0
        assert parse_config(text.replace("1.0", "0.99")).alpha == 0.99

    def test_fluid_resonance_is_not_evaluated_on_a_bad_grid(self):
        # The grid cannot be built; only the key's own problem is reported.
        cases = {"n_x = 4": "line 3: n_x must be at least 8, got 4",
                 "k = 0": "line 3: k must be positive, got 0.0"}
        for line, expected in cases.items():
            with pytest.raises(ConfigError) as err:
                parse_config(f"model = fluid\nh = 1.0\n{line}\n")
            assert err.value.problems == [expected]

    @pytest.mark.parametrize("text, expected", [
        ("model = wigner\nh = -1\n", "line 2: model 'wigner' requires h > 0"),
        ("model = hartree\nh = -1\n", "line 2: model 'hartree' requires h > 0"),
        ("model = fluid\nh = -1\n", "line 2: model 'fluid' requires h > 0"),
        ("model = vlasov\nequilibrium = fd3d_projected\nt_over_tf = -1\n",
         "line 3: t_over_tf must be nonnegative, got -1.0"),
        ("model = vlasov\nk = inf\n", "line 2: bad value for 'k': 'inf'"),
        ("model = vlasov\nv_max = inf\n",
         "line 2: bad value for 'v_max': 'inf'"),
        ("model = wigner\nh = nan\n", "line 2: bad value for 'h': 'nan'"),
        ("model = vlasov\nsnapshot_times = 1,inf\n",
         "line 2: bad value for 'snapshot_times': '1,inf'"),
        ("model = fluid\nh = 1\nk = inf\nn_x = 32\ndt = 0.01\n",
         "line 3: bad value for 'k': 'inf'"),
        ("model = vlasov\ndt = 0.3\n",
         "line 1: t_end must be a whole number of steps of dt=0.3, got 50.0")])
    def test_each_bad_value_is_one_problem_on_the_line_that_set_it(
            self, text, expected):
        # A key left at its default is blamed on the model line.
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [expected]

    def test_the_stream_lattice_check_does_not_build_every_stream(self):
        # Only the innermost streams decide whether one is occupied, so a
        # count far past any grid parses at once.
        text = "model = hartree\nh = 1.0\nn_streams = {}\n"
        assert parse_config(text.format(10**30)).n_streams == 10**30
        with pytest.raises(ConfigError) as err:
            parse_config(text.format(10**30).replace("1.0", "10.0"))
        [problem] = err.value.problems
        assert problem.startswith("line 2: h must leave")

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

    # Each model with every key it reads away from its default, so each
    # key's parser is used.  dt keeps the fluid clear of the resonance.  Off
    # its default the equilibrium takes no temperature, so only hartree
    # reads t_over_tf here.
    OFF_DEFAULT = {"equilibrium": "waterbag1d", "t_over_tf": "0.05",
                   "alpha": "0.02", "k": "0.5", "h": "0.7", "n_x": "64",
                   "n_v": "128", "v_max": "4.0", "dt": "0.02", "t_end": "2.0",
                   "output_every": "2", "snapshot_times": "1.0,1.5",
                   "save_final": "true", "gamma": "2.0", "p0": "0.5",
                   "n_streams": "6"}

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_round_trip_with_every_key_off_its_default(self, model):
        keys = read_keys(model, self.OFF_DEFAULT["equilibrium"])[1:]
        cfg = parse_config(f"model = {model}\n" + "".join(
            f"{key} = {self.OFF_DEFAULT[key]}\n" for key in keys))
        defaults = ScenarioConfig(model=model)
        for key in keys:
            value = getattr(cfg, key)
            assert value != getattr(defaults, key), key
            assert type(value) is type(getattr(defaults, key)), key
        text = cfg.to_text()
        assert sorted(line.split(" = ")[0] for line in text.splitlines()) \
            == sorted(("model",) + keys)
        assert parse_config(text) == cfg

    def test_readme_example_config_parses_and_lists_each_models_keys(self):
        text = README.read_text()
        [example] = [block for block in re.findall(r"^```\w*\n(.*?)^```$",
                                                   text, re.M | re.S)
                     if block.startswith("model = ")]
        cfg = parse_config(example)
        assert parse_config(cfg.to_text()) == cfg
        for model, row in MODELS.items():
            listed = re.search(rf"^- `{model}`: (.*)$", text, re.M).group(1)
            assert listed == ", ".join(f"`{key}`" for key in row.keys), model

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


# Text of the values the parse sweep writes: finite numbers of either sign,
# zero, the non-finite numbers, and integers far past any grid or float.
VALUE_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.integers(10**300, 10**400).map(str),
    st.sampled_from(["0", "-0.0", "inf", "-inf", "nan", "1,inf", "nan,2"]))


class TestParseSweep:
    """Every value of every key a model reads either parses or is one
    problem of that key, on its line (or on the model line for a key left
    at its default); never another exception."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    @seed(23)
    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_each_bad_value_is_one_problem_of_its_key(self, model, data):
        equilibrium = data.draw(st.sampled_from(EQUILIBRIA) | VALUE_TEXT)
        keys = read_keys(model, equilibrium)[1:]
        written = data.draw(st.lists(st.sampled_from(keys), unique=True))
        values = {key: equilibrium if key == "equilibrium"
                  else data.draw(VALUE_TEXT) for key in written}
        text = "".join(f"{key} = {values[key]}\n" for key in written)
        try:
            parse_config(f"model = {model}\n" + text)
        except ConfigError as err:
            problems = err.problems
        else:
            return
        on_line = dict(enumerate(("model",) + tuple(written), start=1))
        left = [key for key in keys if key not in written]
        sources = [p.split(": ", 1)[0] for p in problems]
        for source, problem in zip(sources, problems):
            key = on_line[int(source.removeprefix("line "))]
            named = [key] if key != "model" else left
            assert any(re.search(rf"\b{k}\b", problem) for k in named), problem
            assert key == "model" or sources.count(source) == 1, problems
        assert sources.count("line 1") <= len(left), problems


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

    def test_csv_is_written_by_the_table_writer(self, capsys):
        # Names and the regime as text, every number as repr(float) and the
        # boolean as true/false, like every other CSV the package writes.
        rc = cli.main(["params", "--material", "gold", "--csv"])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "quantity,value"
        rows = parse_csv_rows(text)
        assert rows.pop("pauli_estimate_valid") in ("true", "false")
        assert rows.pop("regime").isalpha()
        for value in rows.values():
            assert repr(float(value)) == value

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

    @pytest.mark.parametrize("density, temperature, name, shown", [
        ("-1", "300", "number_density", "-1.0"),
        ("1e28", "0", "temperature", "0.0"),
        ("nan", "300", "number_density", "nan")])
    def test_unphysical_conditions_are_an_error_line(
            self, capsys, density, temperature, name, shown):
        rc = cli.main(["params", "--density", density,
                       "--temperature", temperature])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {name} must be strictly positive, "
                                f"got {shown}\n")
        assert captured.out == ""


class TestDispersionCommand:
    def test_flat_top_scan_satisfies_the_closed_form(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = cli.main(["dispersion", "--model", "vlasov", "--equilibrium",
                       "waterbag1d", "--kmin", "0.1", "--kmax", "2.0",
                       "--nk", "12", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,re_omega,im_omega,residual,trusted"
        assert len(lines) == 13
        for line in lines[1:]:
            *values, trusted = line.split(",")
            k, re, im, res = (float(v) for v in values)
            assert abs(re**2 - (1.0 + k**2)) < 1e-8
            assert abs(im) < 1e-10
            assert res < 1e-10
            assert trusted == "true"

    def test_roots_beyond_the_trusted_continuation_are_marked(self, capsys):
        # At T = T_F the damping passes half the frequency between K = 1.7
        # and K = 2.0.
        rc = cli.main(["dispersion", "--model", "vlasov", "--equilibrium",
                       "fd3d_projected", "--t-over-tf", "1", "--kmin", "1.7",
                       "--kmax", "2.0", "--nk", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[-1] for line in lines] == [
            "trusted", "true", "false"]
        for line in lines[1:]:
            re_omega, im_omega = (float(v) for v in line.split(",")[1:3])
            assert (abs(im_omega) <= 0.5 * abs(re_omega)) \
                == line.endswith(",true")

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

    @pytest.mark.parametrize("flag, value, expected", [
        ("--h", "inf", "H must be nonnegative and finite, got inf"),
        ("--kmin", "nan", "k must be positive and finite, got nan")])
    def test_a_non_finite_input_is_an_error_line(self, capsys, flag, value,
                                                 expected):
        # Each ran 100 Newton steps on NaN and reported a root that did not
        # converge.
        rc = cli.main(["dispersion", "--model", "wigner", "--equilibrium",
                       "waterbag1d", flag, value]
                      + ([] if flag == "--h" else ["--h", "1"]))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {expected}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag, value", [
        ("--kmax", "inf"), ("--kmin", "-inf"), ("--kmax", "nan")])
    def test_a_non_finite_scan_end_is_refused_before_the_grid(
            self, capsys, flag, value):
        # --kmax inf printed numpy's linspace RuntimeWarning before its
        # error line; the suite turns that warning into an error.
        rc = cli.main(["dispersion", "--model", "vlasov", f"{flag}={value}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: k must be positive and finite, "
                                f"got {float(value)}\n")
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


# A fluid config whose k read as infinite: validate then raised the grid's
# "length must be positive" ValueError as a traceback.
FLUID_INFINITE_K = "model = fluid\nh = 1\nk = inf\nn_x = 32\ndt = 0.01\n"
INFINITE_K_ERROR = "config error: line 3: bad value for 'k': 'inf'\n"


# The config of the strict xfail in test_simulate.py: it parses, then stops
# mid-run with a non-neutral box (ROADMAP item 3).
COARSE_VLASOV = "model = vlasov\nn_x = 32\nn_v = 32\nt_end = 0.5\n"


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

    def test_a_non_finite_value_is_one_config_error_line(self, tmp_path,
                                                          capsys):
        cfg_path = tmp_path / "fluid.cfg"
        cfg_path.write_text(FLUID_INFINITE_K)
        rc = cli.main(["run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == INFINITE_K_ERROR
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, reason", [
        ("missing.cfg", "No such file or directory"),
        ("", "Is a directory"),
        ("binary.cfg", "'utf-8' codec can't decode byte 0xff in position "
                       "15: invalid start byte")])
    def test_an_unreadable_config_is_an_error_line(self, tmp_path, capsys,
                                                   name, reason):
        path = tmp_path / name
        if name == "binary.cfg":
            path.write_bytes(b"model = vlasov\n\xff\xfe\n")
        rc = cli.main(["run", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {path}: {reason}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_a_run_that_stops_is_one_error_line(self, tmp_path, capsys):
        # The mass leaving the velocity box trips the neutrality check on
        # step 4.
        cfg_path = tmp_path / "coarse.cfg"
        cfg_path.write_text(COARSE_VLASOV)
        rc = cli.main(["run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"run error: {cfg_path}: non-neutral box: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error, reason", [
        (MemoryError(), "MemoryError"),
        (MemoryError("Unable to allocate 7.28 TiB"),
         "Unable to allocate 7.28 TiB")])
    def test_a_run_out_of_memory_is_one_error_line(self, tmp_path, capsys,
                                                   monkeypatch, error,
                                                   reason):
        # The run raises as an oversized config would, without allocating.
        def out_of_memory(cfg):
            raise error
        monkeypatch.setattr(cli.simulate, "run", out_of_memory)
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(BASE_CONFIG)
        rc = cli.main(["run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err == f"run error: {cfg_path}: {reason}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestCompareCommand:
    def write_pair(self, tmp_path):
        # dt small enough that the fluid half of the pair is clear of the
        # split-step resonance at this grid cutoff
        base = BASE_CONFIG.replace("dt = 0.1", "dt = 0.02")
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(base)
        fluid = [line for line in base.splitlines()
                 if line.split(" = ")[0] not in ("equilibrium", "t_over_tf",
                                                 "n_v")]
        b.write_text("\n".join(fluid).replace("model = vlasov", "model = fluid")
                     + "\nh = 1.0\n")
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
        b.write_text(b.read_text() + "gamma = 0.5\n")
        out = tmp_path / "cmp"
        rc = cli.main(["compare", str(a), str(b), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: line 9: gamma must be at least 1, "
                       "got 0.5"]
        assert not out.exists()

    def test_a_non_finite_value_is_one_config_error_line(self, tmp_path,
                                                          capsys):
        a, b = self.write_pair(tmp_path)
        b.write_text(FLUID_INFINITE_K)
        out = tmp_path / "cmp"
        rc = cli.main(["compare", str(a), str(b), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == INFINITE_K_ERROR
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_an_unreadable_config_is_an_error_line(self, tmp_path, capsys):
        a, _ = self.write_pair(tmp_path)
        missing = tmp_path / "missing.cfg"
        out = tmp_path / "cmp"
        rc = cli.main(["compare", str(a), str(missing), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: {missing}: "
                                "No such file or directory\n")
        assert not out.exists()

    def test_a_run_that_stops_is_one_error_line(self, tmp_path, capsys):
        # The Wigner run of the same grid runs; the Vlasov one stops.
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text(COARSE_VLASOV.replace("vlasov", "wigner") + "h = 1.0\n")
        b.write_text(COARSE_VLASOV)
        out = tmp_path / "cmp"
        rc = cli.main(["compare", str(a), str(b), "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"run error: {b}: non-neutral box: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_mismatched_grids_are_refused(self, tmp_path, capsys):
        # The finer grid goes on the vlasov side: at n_x = 64 the fluid
        # side would be rejected for the split-step resonance first.
        a, b = self.write_pair(tmp_path)
        a.write_text(a.read_text().replace("n_x = 32", "n_x = 64"))
        rc = cli.main(["compare", str(a), str(b), "--out", str(tmp_path)])
        assert rc == 2
        assert "n_x" in capsys.readouterr().err

    def test_velocity_grid_of_wavefunction_models_is_not_compared(
            self, tmp_path, capsys):
        # The vlasov side's n_v = 64 is off the default, which the hartree
        # side, having no velocity grid, keeps.
        a, b = self.write_pair(tmp_path)
        assert parse_config(a.read_text()).n_v != ScenarioConfig("hartree").n_v
        a.write_text(a.read_text().replace("t_end = 2.0", "t_end = 0.2"))
        b.write_text(b.read_text().replace("model = fluid", "model = hartree")
                     .replace("t_end = 2.0", "t_end = 0.2"))
        rc = cli.main(["compare", str(a), str(b), "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err

    def test_mismatched_velocity_grids_are_refused(self, tmp_path, capsys):
        a, b = self.write_pair(tmp_path)
        b.write_text(a.read_text().replace("model = vlasov", "model = wigner")
                     .replace("n_v = 64", "n_v = 32") + "h = 1.0\n")
        rc = cli.main(["compare", str(a), str(b), "--out", str(tmp_path)])
        assert rc == 2
        assert "['n_v']" in capsys.readouterr().err


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

    def test_diagio_import_loads_no_quadrature(self):
        # The file formats need no integrals: the snapshot container holds
        # named arrays and never sees a model's state.
        assert self.loaded_after_import(
            "qplasma.diagio", ["scipy.integrate"]) == "[]"

    def test_diagio_import_loads_no_solver(self):
        # What each model writes is its row of simulate.MODELS, so the
        # container module depends on no solver.
        assert self.loaded_after_import("qplasma.diagio", [
            "qplasma.vlasov", "qplasma.wigner", "qplasma.hartree",
            "qplasma.qfluid"]) == "[]"

    def test_simulate_import_loads_no_quadrature_or_root_finder(self):
        # The library path of `qplasma run` solves the chemical potential
        # with numpy alone.  (The CLI still loads scipy.integrate for the
        # dispersion integrals.)
        assert self.loaded_after_import(
            "qplasma.simulate", ["scipy.integrate", "scipy.optimize"]) == "[]"

    @pytest.mark.parametrize("module", ["qplasma.config", "qplasma.simulate"])
    def test_import_loads_no_ndimage(self, module):
        # scipy.ndimage serves only the Vlasov spline prefilter and the
        # vortex detector, each of which imports it when first called.
        assert self.loaded_after_import(module, ["scipy.ndimage"]) == "[]"
