"""The scenario driver for every model: run-time lookup of the solver's
step function, exact read-back of every file write_outputs produces and
byte-identical files from two runs of one config."""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from qplasma import diagio, hartree, qfluid, simulate, vlasov, wigner
from qplasma.config import (COMMON_KEYS, MODELS, ConfigError, ScenarioConfig,
                            parse_config)
from qplasma.equilibria import stream_lattice_spec

from dielectric_reference import use_numpy_profiles

N_STEPS = 10

SOLVERS = {"vlasov": vlasov, "wigner": wigner, "hartree": hartree,
           "fluid": qfluid}

CONFIGS = {
    "vlasov": ScenarioConfig(model="vlasov", n_x=32, n_v=64, dt=0.05,
                             t_end=0.5, snapshot_times=(0.25,),
                             save_final=True),
    "wigner": ScenarioConfig(model="wigner", h=1.0, n_x=32, n_v=64, dt=0.05,
                             t_end=0.5, snapshot_times=(0.25,),
                             save_final=True),
    "hartree": ScenarioConfig(model="hartree", h=1.0, n_x=32, dt=0.05,
                              t_end=0.5, snapshot_times=(0.25,),
                              save_final=True),
    "fluid": ScenarioConfig(model="fluid", h=1.0, n_x=32, dt=0.02,
                            t_end=0.2, snapshot_times=(0.1,),
                            save_final=True),
}

SERIES_COLUMNS = ("times", "field_energy", "kinetic_energy", "total_energy",
                  "mass", "momentum")


def state_array(state):
    return state.psi if hasattr(state, "psi") else state.f


def channel_array(channels):
    if "f" in channels:
        return channels["f"]
    if "f_plus" in channels:
        return channels["f_plus"] - channels["f_minus"]
    return channels["psi_re"] + 1j * channels["psi_im"]


def test_every_configurable_model_is_covered():
    assert sorted(CONFIGS) == sorted(MODELS)


def test_model_table_matches_the_config_names():
    assert sorted(simulate.MODELS) == sorted(MODELS)


# A valid value for each key some model does not read, off every default.
UNREAD_VALUES = {"equilibrium": "waterbag1d", "t_over_tf": 0.05, "h": 0.7,
                 "n_v": 128, "v_max": 4.0, "gamma": 2.0, "p0": 0.5,
                 "n_streams": 6}


@pytest.mark.parametrize("model", sorted(CONFIGS))
def test_keys_the_model_does_not_read_leave_the_run_unchanged(model):
    # The table in config.MODELS is what the model runs: changing any other
    # field changes no bit of the series or the final state.
    cfg = replace(CONFIGS[model], t_end=4 * CONFIGS[model].dt,
                  snapshot_times=())
    unread = [f.name for f in fields(ScenarioConfig)
              if f.name not in COMMON_KEYS + MODELS[model]]
    assert sorted(unread) == sorted(set(UNREAD_VALUES) - set(MODELS[model]))
    base = simulate.run(cfg)
    for key in unread:
        assert getattr(cfg, key) != UNREAD_VALUES[key], key
        other = simulate.run(replace(cfg, **{key: UNREAD_VALUES[key]}))
        for col in SERIES_COLUMNS:
            assert np.array_equal(getattr(other.series, col),
                                  getattr(base.series, col)), (key, col)
        assert np.array_equal(state_array(other.final_state),
                              state_array(base.final_state)), key


def test_fluid_snapshots_hold_one_stream_without_probabilities(tmp_path):
    cfg = CONFIGS["fluid"]
    paths = simulate.write_outputs(cfg, simulate.run(cfg), tmp_path)
    snapshots = [p for p in paths if Path(p).suffix == ".qpsn"]
    assert len(snapshots) == 2
    for path in snapshots:
        header, _ = diagio.read_snapshot(path)
        assert "probabilities" not in header
        assert header["shape"] == [1, cfg.n_x]


@pytest.mark.parametrize("model", sorted(CONFIGS))
def test_run_looks_up_the_solver_step_at_call_time(model, monkeypatch):
    module = SOLVERS[model]
    original = module.step
    calls = []

    def counting(state, dt):
        calls.append(dt)
        return original(state, dt)

    monkeypatch.setattr(module, "step", counting)
    cfg = CONFIGS[model]
    simulate.run(cfg)
    assert len(calls) == N_STEPS
    assert all(dt == cfg.dt for dt in calls)


@pytest.mark.parametrize("model", sorted(CONFIGS))
def test_written_files_read_back_equal_to_the_run(model, tmp_path):
    cfg = CONFIGS[model]
    result = simulate.run(cfg)
    paths = simulate.write_outputs(cfg, result, tmp_path)
    by_name = {Path(p).name: Path(p) for p in paths}
    h = cfg.config_hash()

    series = diagio.read_series_csv(by_name[f"series_{model}_{h}.csv"])
    assert series.times.size == N_STEPS + 1
    for col in SERIES_COLUMNS:
        assert np.array_equal(getattr(series, col),
                              getattr(result.series, col)), col

    (t_snap,) = cfg.snapshot_times
    states = {f"t{t_snap:g}": (t_snap, result.snapshots[t_snap]),
              "final": (cfg.t_end, state_array(result.final_state))}
    assert len(paths) == 2 + len(states)
    for tag, (t, payload) in states.items():
        header, channels = diagio.read_snapshot(
            by_name[f"snapshot_{model}_{h}_{tag}.qpsn"])
        assert header["time"] == t
        assert header["model"] == model
        assert np.array_equal(channel_array(channels),
                              np.atleast_2d(payload)), tag
        if model == "hartree":
            expected = stream_lattice_spec(cfg.n_streams, cfg.t_over_tf,
                                           cfg.h, cfg.length).probabilities
            assert header["probabilities"] == [float(p) for p in expected]


@pytest.mark.parametrize("model", sorted(CONFIGS))
def test_two_runs_of_one_config_write_identical_files(model, tmp_path):
    cfg = CONFIGS[model]
    written = [simulate.write_outputs(cfg, simulate.run(cfg), tmp_path / run)
               for run in ("a", "b")]
    names = [sorted(Path(p).name for p in paths) for paths in written]
    assert names[0] == names[1]
    assert len(names[0]) == 4  # series, config, mid-run and final snapshot
    for name in names[0]:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


@pytest.mark.parametrize("model", sorted(CONFIGS))
def test_files_unchanged_by_the_number_path_of_the_profiles(
        model, tmp_path, monkeypatch):
    # Runs sample their profiles on arrays, which still go through numpy:
    # every file equals, byte for byte, the run with the profiles evaluated
    # by the numpy bodies that the math/cmath number path replaced.
    cfg = CONFIGS[model]
    new = simulate.write_outputs(cfg, simulate.run(cfg), tmp_path / "new")
    use_numpy_profiles(monkeypatch)
    old = simulate.write_outputs(cfg, simulate.run(cfg), tmp_path / "old")
    assert [Path(p).name for p in new] == [Path(p).name for p in old]
    for a, b in zip(new, old):
        assert Path(a).read_bytes() == Path(b).read_bytes(), Path(a).name


@pytest.mark.xfail(strict=True, raises=ValueError, reason="ROADMAP item 3")
def test_coarse_velocity_grid_is_rejected_or_runs():
    # Today this config passes validation, then the mass drift through the
    # v-box edge trips poisson_periodic's neutrality check on step 3.
    text = "model = vlasov\nn_x = 32\nn_v = 32\nt_end = 0.5\n"
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    simulate.run(cfg)
