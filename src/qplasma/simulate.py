"""Scenario driver: build the initial state for any model, advance it,
collect the diagnostic series and write the output files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple

import numpy as np

from . import diagio, hartree, qfluid, vlasov, wigner
from .config import ScenarioConfig
from .equilibria import (Perturbation, make_equilibrium, plane_wave_mixture,
                         stream_lattice_spec)
from .fields import PhaseSpaceGrid, SpatialGrid


@dataclass
class RunResult:
    series: diagio.DiagnosticSeries
    final_state: object
    snapshots: dict  # time -> copy of the state's array (f or psi)


def _kinetic_setup(cfg: ScenarioConfig, spatial: SpatialGrid):
    return (PhaseSpaceGrid(spatial, cfg.v_max, cfg.n_v),
            make_equilibrium(cfg.equilibrium, cfg.t_over_tf))


def _streams(cfg: ScenarioConfig, spatial: SpatialGrid, pert):
    streams = plane_wave_mixture(stream_lattice_spec(
        cfg.n_streams, cfg.t_over_tf, cfg.h, spatial.length), spatial, cfg.h)
    return streams if pert is None else hartree.perturb_streams(streams, pert)


class _Model(NamedTuple):
    solver: ModuleType  # step(state, dt) and diagnostics(state)
    build: Callable     # (cfg, spatial grid, perturbation or None) -> state
    array: str          # f (phase-space models) or psi (wavefunctions)


# Model name -> how simulate drives it.  run() reads step and diagnostics
# off the solver module each time it runs, so a function swapped onto the
# module (as perfbench's step clock does) is the one called.
MODELS = {
    "vlasov": _Model(vlasov, lambda cfg, sp, pert: vlasov.initial_state(
        *_kinetic_setup(cfg, sp), pert), "f"),
    "wigner": _Model(wigner, lambda cfg, sp, pert: wigner.initial_state(
        *_kinetic_setup(cfg, sp), cfg.h, pert), "f"),
    "hartree": _Model(hartree, _streams, "psi"),
    "fluid": _Model(qfluid, lambda cfg, sp, pert: qfluid.initial_state(
        sp, cfg.h, pert, cfg.gamma, cfg.p0), "psi"),
}


def build_initial(cfg: ScenarioConfig):
    pert = Perturbation(cfg.alpha, cfg.k) if cfg.alpha > 0 else None
    spatial = SpatialGrid(cfg.length, cfg.n_x)
    return MODELS[cfg.model].build(cfg, spatial, pert)


def run(cfg: ScenarioConfig) -> RunResult:
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


def write_outputs(cfg: ScenarioConfig, result: RunResult, out_dir) -> list:
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

    def write_state(tag, state, time):
        path = out / f"snapshot_{cfg.model}_{h}_{tag}.qpsn"
        diagio.write_snapshot(path, state, time, cfg.model, h)
        paths.append(path)

    array = MODELS[cfg.model].array
    for t, payload in sorted(result.snapshots.items()):
        write_state(f"t{t:g}", replace(result.final_state, **{array: payload}), t)
    if cfg.save_final:
        write_state("final", result.final_state, cfg.t_end)
    return paths
