"""The scenario driver for every model: run-time lookup of the solver's
step function and exact read-back of every file write_outputs produces."""

from pathlib import Path

import numpy as np
import pytest

from qplasma import diagio, hartree, qfluid, simulate, vlasov, wigner
from qplasma.config import MODELS, ConfigError, ScenarioConfig, parse_config
from qplasma.fields import SpatialGrid

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
            spatial = SpatialGrid(cfg.length, cfg.n_x)
            expected = simulate.stream_lattice_spec(cfg, spatial).probabilities
            assert header["probabilities"] == [float(p) for p in expected]


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
