"""The scenario driver for every model: run-time lookup of the solver's
step function, exact read-back of every file write_outputs produces and
byte-identical files from two runs of one config."""

import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from qplasma import diagio, hartree, qfluid, simulate, vlasov, wigner
from qplasma.config import (COMMON_KEYS, EQUILIBRIA, ConfigError,
                            ScenarioConfig, parse_config, read_keys)
from qplasma.equilibria import stream_lattice_spec
from qplasma.simulate import MODELS

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


# A valid value for each key some model does not read, off every default.
UNREAD_VALUES = {"equilibrium": "waterbag1d", "t_over_tf": 0.05, "h": 0.7,
                 "n_v": 128, "v_max": 4.0, "gamma": 2.0, "p0": 0.5,
                 "n_streams": 6}


@pytest.mark.parametrize("model", sorted(CONFIGS))
def test_keys_the_model_does_not_read_leave_the_run_unchanged(model):
    # The keys in the model's row are what the model runs: changing any other
    # field changes no bit of the series or the final state.
    cfg = replace(CONFIGS[model], t_end=4 * CONFIGS[model].dt,
                  snapshot_times=())
    unread = [f.name for f in fields(ScenarioConfig)
              if f.name not in COMMON_KEYS + MODELS[model].keys]
    assert sorted(unread) == sorted(set(UNREAD_VALUES)
                                    - set(MODELS[model].keys))
    base = simulate.run(cfg)
    for key in unread:
        assert getattr(cfg, key) != UNREAD_VALUES[key], key
        other = simulate.run(replace(cfg, **{key: UNREAD_VALUES[key]}))
        for col in SERIES_COLUMNS:
            assert np.array_equal(getattr(other.series, col),
                                  getattr(base.series, col)), (key, col)
        assert np.array_equal(state_array(other.final_state),
                              state_array(base.final_state)), key


@pytest.mark.parametrize("model", sorted(CONFIGS))
def test_snapshot_header_holds_exactly_the_model_fields(model, tmp_path):
    # Phase space records its velocity grid, a classical f has H = 0, only a
    # Hartree mixture has occupations and the fluid is one stream.
    cfg = CONFIGS[model]
    simulate.write_outputs(cfg, simulate.run(cfg), tmp_path)
    grid = {"length": cfg.length, "n_x": cfg.n_x}
    wave = {"initial_data": "wavefunction", "channels": ["psi_re", "psi_im"],
            "grid": grid, "H": cfg.h}
    phase_space = {"initial_data": "perturbed_equilibrium",
                   "shape": [cfg.n_v, cfg.n_x],
                   "grid": {**grid, "v_max": cfg.v_max, "n_v": cfg.n_v}}
    expected = {
        "vlasov": {**phase_space, "channels": ["f"], "H": 0.0},
        "wigner": {**phase_space, "channels": ["f_plus", "f_minus"],
                   "H": cfg.h},
        "hartree": {**wave, "shape": [cfg.n_streams, cfg.n_x]},
        "fluid": {**wave, "shape": [1, cfg.n_x]},
    }[model]
    if model == "hartree":
        expected["probabilities"] = [float(p) for p in stream_lattice_spec(
            cfg.n_streams, cfg.t_over_tf, cfg.h, cfg.length).probabilities]
    h = cfg.config_hash()
    (t_snap,) = cfg.snapshot_times
    for tag, t in ((f"t{t_snap:g}", t_snap), ("final", cfg.t_end)):
        header, _ = diagio.read_snapshot(
            tmp_path / f"snapshot_{model}_{h}_{tag}.qpsn")
        assert isinstance(header.pop("payload_crc32"), int)
        assert header == {**expected, "time": t, "model": model,
                          "config_hash": h}, tag


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
def test_non_finite_diagnostics_stop_the_run(model, monkeypatch):
    # The diagnostics of a finite state can still overflow; the run must
    # stop at the record that holds them, not write them.
    module = SOLVERS[model]
    original = module.diagnostics
    calls = []

    def nan_on_the_third(state):
        calls.append(state)
        values = original(state)
        return values if len(calls) < 3 else (np.nan, *values[1:])

    monkeypatch.setattr(module, "diagnostics", nan_on_the_third)
    cfg = CONFIGS[model]
    with pytest.raises(FloatingPointError,
                       match=rf"non-finite diagnostics at t={2 * cfg.dt:.3f}"):
        simulate.run(cfg)


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
def test_a_longer_run_repeats_the_shorter_one_bit_for_bit(model):
    # A run's rows and snapshots up to a time do not depend on its t_end, so
    # a t = 100 run serves checks of what happens up to t = 50.
    cfg = CONFIGS[model]
    short = simulate.run(cfg)
    long = simulate.run(replace(cfg, t_end=2 * cfg.t_end))
    rows = short.series.times.size
    assert long.series.times.size == 2 * rows - 1
    for col in SERIES_COLUMNS:
        assert np.array_equal(getattr(long.series, col)[:rows],
                              getattr(short.series, col)), col
    assert sorted(long.snapshots) == sorted(short.snapshots) == list(
        cfg.snapshot_times)
    for t, snapshot in short.snapshots.items():
        assert np.array_equal(long.snapshots[t], snapshot), t


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


@pytest.mark.parametrize("model", ["vlasov", "wigner"])
def test_building_a_phase_space_state_takes_no_fft(model, monkeypatch):
    # The state keeps the f it is built from; its x-spectrum is formed at
    # the first step or diagnostic, so the set-up costs no transform.
    def refuse(*args, **kwargs):
        raise AssertionError("FFT while building the initial state")

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    cfg = CONFIGS[model]
    assert simulate.build_initial(cfg).f.shape == (cfg.n_v, cfg.n_x)


# A fresh interpreter: glibc's trim and mmap thresholds depend on what the
# process allocated and freed before, and the test process has imported
# much more than a run does.
WARM_STEP_FAULTS = """
import resource
from qplasma import simulate
from qplasma.config import ScenarioConfig
cfg = ScenarioConfig(model={model!r}, h=1.0, n_x=256, n_v=256)
solver = simulate.MODELS[cfg.model].solver
state = simulate.build_initial(cfg)
for i in range(105):
    if i == 5:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    state = solver.step(state, cfg.dt)
    solver.diagnostics(state)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.parametrize("model", ["vlasov", "wigner"])
def test_warm_steps_take_no_page_faults(model):
    # The work arrays keep the step loop's heap steady: 100 warm 256x256
    # steps with their diagnostics read 0-1 minor faults (about 117 per
    # step when each step's intermediates were new arrays).
    pytest.importorskip("resource")
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", WARM_STEP_FAULTS.format(model=model)],
        env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) <= 10


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


# The run half of the accepted-config sweep (ROADMAP item 12); the parse
# half is TestParseSweep in test_config_cli.py.
SWEEP_SEED = 12
SWEEP_DRAWS = 200
# The guard warnings a run may raise, by a phrase of their text.
GUARDS = ("kick phase", "split-step resonance")


def log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def draw_config_text(rng, model):
    """The text of a `model` config drawn over every range validate accepts,
    at small sizes: n_x <= 64, n_v <= 128 and at most 40 steps.  A range
    without an upper end is drawn log-uniform over several decades; alpha
    and gamma also take their end points."""
    steps = int(rng.integers(1, 41))
    dt = log_uniform(rng, 1e-3, 10.0)
    snaps = rng.integers(0, steps + 1, size=rng.integers(0, 3))
    values = {
        "model": model,
        "equilibrium": EQUILIBRIA[rng.integers(len(EQUILIBRIA))],
        "t_over_tf": log_uniform(rng, 1e-4, 1.0),
        "alpha": float(rng.choice([0.0, 1.0, rng.uniform()])),
        "k": log_uniform(rng, 1e-2, 1e2),
        "h": log_uniform(rng, 1e-3, 1e2),
        "n_x": int(rng.integers(8, 65)),
        "n_v": 2 * int(rng.integers(4, 65)),
        "v_max": log_uniform(rng, 0.1, 100.0),
        "dt": dt,
        "t_end": steps * dt,
        "output_every": int(rng.integers(1, 51)),
        "snapshot_times": ",".join(repr(int(j) * dt) for j in snaps),
        "save_final": bool(rng.integers(2)),
        "gamma": float(rng.choice([1.0, 1.0 + log_uniform(rng, 1e-2, 10.0)])),
        "p0": log_uniform(rng, 1e-2, 1e2),
        "n_streams": int(rng.integers(1, 17)),
    }
    keys = read_keys(model, values["equilibrium"])
    return "".join(f"{key} = {v}\n" for key, v in values.items() if key in keys)


class TestRunSweep:
    """Every accepted config runs to t_end.  Guard warnings are outcomes,
    not errors: each is caught and counted, and only the guards' own may
    appear."""

    @pytest.mark.parametrize("model", [
        "wigner", "hartree", "fluid",
        # About half the accepted vlasov configs lose mass through the
        # velocity-box edge and stop in the neutrality check.
        pytest.param("vlasov", marks=pytest.mark.xfail(
            strict=True, raises=ValueError, reason="ROADMAP item 3"))])
    def test_every_accepted_config_runs_to_t_end(self, model):
        rng = np.random.default_rng(SWEEP_SEED)
        ran, fired = 0, Counter()
        for _ in range(SWEEP_DRAWS):
            try:
                cfg = parse_config(draw_config_text(rng, model))
            except ConfigError:
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                series = simulate.run(cfg).series
            assert series.times[-1] == pytest.approx(cfg.t_end, rel=1e-9)
            ran += 1
            fired.update(next((g for g in GUARDS if g in str(w.message)),
                              str(w.message)) for w in caught)
        assert ran >= SWEEP_DRAWS // 4
        assert set(fired) <= set(GUARDS), fired
        # The draws reach a kick phase past pi.
        assert (fired["kick phase"] > 0) == (model == "wigner")
