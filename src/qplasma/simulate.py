"""Scenario driver: build the initial state for any model, advance it,
collect the diagnostic series and write the output files.  `MODELS` is the
one table of what each model is; `diagio` writes only the container.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple

import numpy as np

from . import diagio, hartree, qfluid, vlasov, wigner
from .equilibria import (Perturbation, make_equilibrium, plane_wave_mixture,
                         stream_lattice_spec)
from .fields import PhaseSpaceGrid, SpatialGrid


@dataclass
class RunResult:
    series: diagio.DiagnosticSeries
    final_state: object
    snapshots: dict  # time -> copy of the state's array (f or psi)


def _kinetic_setup(cfg, spatial: SpatialGrid):
    return (PhaseSpaceGrid(spatial, cfg.v_max, cfg.n_v),
            make_equilibrium(cfg.equilibrium, cfg.t_over_tf))


def _streams(cfg, spatial: SpatialGrid, pert):
    streams = plane_wave_mixture(stream_lattice_spec(
        cfg.n_streams, cfg.t_over_tf, cfg.h, spatial.length), spatial, cfg.h)
    return streams if pert is None else hartree.perturb_streams(streams, pert)


def _phase_space(state, **channels):
    grid, sp = state.grid, state.grid.spatial
    return channels, {"grid": {"length": sp.length, "n_x": sp.n_x,
                               "v_max": grid.v_max, "n_v": grid.n_v},
                      "initial_data": "perturbed_equilibrium"}


def _wavefunctions(state, psi, **header):
    """A stream set's (N, n_x) psi as channels psi_re and psi_im."""
    return ({"psi_re": psi.real, "psi_im": psi.imag},
            {"grid": {"length": state.grid.length, "n_x": state.grid.n_x},
             "initial_data": "wavefunction", **header})


class _Model(NamedTuple):
    keys: tuple         # the config keys it reads beyond config.COMMON_KEYS
    solver: ModuleType  # step(state, dt) and diagnostics(state)
    build: Callable     # (cfg, spatial grid, perturbation or None) -> state
    array: str          # f (phase-space models) or psi (wavefunctions)
    snapshot: Callable  # (state, its f or psi) -> (channels, header fields)


# Model name -> what it is.  A config sets only the keys its model reads, so
# its text and hash hold exactly what the run runs (config.read_keys).
# run() reads step and diagnostics off the solver module each time it runs,
# so a function swapped onto the module (as perfbench's step clock does) is
# the one called.  A snapshot takes the grid (and a mixture's occupations)
# from the state and the array from its second argument, so one final state
# serves every stored array.  The fluid's one stream has weight 1, so its
# header holds no probabilities.
MODELS = {
    "vlasov": _Model(
        ("equilibrium", "t_over_tf", "n_v", "v_max"), vlasov,
        lambda cfg, sp, pert: vlasov.initial_state(
            *_kinetic_setup(cfg, sp), pert),
        "f", lambda state, f: _phase_space(state, f=f)),
    "wigner": _Model(
        ("equilibrium", "t_over_tf", "n_v", "v_max", "h"), wigner,
        lambda cfg, sp, pert: wigner.initial_state(
            *_kinetic_setup(cfg, sp), cfg.h, pert),
        "f", lambda state, f: _phase_space(
            state, f_plus=np.maximum(f, 0.0), f_minus=np.maximum(-f, 0.0))),
    "hartree": _Model(
        ("t_over_tf", "h", "n_streams"), hartree, _streams,
        "psi", lambda state, psi: _wavefunctions(state, psi, probabilities=[
            float(p) for p in state.probabilities])),
    "fluid": _Model(
        ("h", "gamma", "p0"), qfluid,
        lambda cfg, sp, pert: qfluid.initial_state(
            sp, cfg.h, pert, cfg.gamma, cfg.p0),
        "psi", _wavefunctions),
}


def build_initial(cfg):
    pert = Perturbation(cfg.alpha, cfg.k) if cfg.alpha > 0 else None
    spatial = SpatialGrid(cfg.length, cfg.n_x)
    return MODELS[cfg.model].build(cfg, spatial, pert)


def run(cfg) -> RunResult:
    """Advance the configured scenario to t_end.

    Diagnostics are recorded at t=0 and then every `output_every` steps;
    state copies are kept at each requested snapshot time (validation puts
    these and t_end on the step grid).  Raises FloatingPointError on
    non-finite diagnostics.
    """
    model = MODELS[cfg.model]
    state = build_initial(cfg)
    recorder = diagio.SeriesRecorder(cfg.model, cfg.config_hash())
    n_steps = int(round(cfg.t_end / cfg.dt))
    snap_steps = {int(round(t / cfg.dt)): t for t in cfg.snapshot_times}
    snapshots = {}

    for i in range(n_steps + 1):
        if i > 0:
            state = model.solver.step(state, cfg.dt)
        if i % cfg.output_every == 0 or i == n_steps:
            vals = model.solver.diagnostics(state)
            if not all(np.isfinite(v) for v in vals):
                raise FloatingPointError(
                    f"non-finite diagnostics at t={i * cfg.dt:.3f}: {vals}")
            recorder.record(i * cfg.dt, *vals)
        if i in snap_steps:
            snapshots[snap_steps[i]] = getattr(state, model.array).copy()
    return RunResult(recorder.series(), state, snapshots)


def write_outputs(cfg, result: RunResult, out_dir) -> list:
    """Write the series CSV plus any snapshot/final-state files; returns
    the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = cfg.config_hash()
    paths = []
    series_path = out / f"series_{cfg.model}_{h}.csv"
    diagio.write_series_csv(result.series, series_path)
    paths.append(series_path)
    cfg_path = out / f"config_{h}.cfg"
    cfg_path.write_text(cfg.to_text())
    paths.append(cfg_path)

    model = MODELS[cfg.model]

    # A function, so that one snapshot's channels are freed before the next
    # one's are built.
    def write_state(tag, payload, time):
        channels, header = model.snapshot(result.final_state, payload)
        header.update(time=float(time), model=cfg.model, config_hash=h,
                      H=float(cfg.h) if "h" in model.keys else 0.0)
        path = out / f"snapshot_{cfg.model}_{h}_{tag}.qpsn"
        diagio.write_snapshot(path, channels, header)
        paths.append(path)

    for t, payload in sorted(result.snapshots.items()):
        write_state(f"t{t:g}", payload, t)
    if cfg.save_final:
        write_state("final", getattr(result.final_state, model.array), cfg.t_end)
    return paths
