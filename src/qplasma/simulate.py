"""Scenario driver: build the initial state for any model, advance it,
collect the diagnostic series and write the output files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagio, hartree, qfluid, vlasov, wigner
from .config import ScenarioConfig
from .equilibria import (Perturbation, StreamSpec, fd_stream_occupations,
                         hbar_eff, make_equilibrium, plane_wave_mixture)
from .fields import PhaseSpaceGrid, SpatialGrid


@dataclass
class RunResult:
    series: diagio.DiagnosticSeries
    final_state: object
    snapshots: dict  # time -> state copy
    metadata: dict


def stream_lattice_spec(cfg: ScenarioConfig, grid: SpatialGrid) -> StreamSpec:
    """Symmetric box-commensurate stream velocities with thermal-style
    occupations relative to the unit Fermi energy."""
    du = 2.0 * np.pi * hbar_eff(cfg.h) / grid.length
    n = cfg.n_streams
    if n % 2 == 0:
        js = [j for j in range(-n // 2, n // 2 + 1) if j != 0]
    else:
        js = list(range(-(n // 2), n // 2 + 1))
    velocities = tuple(du * j for j in js)
    return fd_stream_occupations(cfg.t_over_tf, 1.0, velocities)


def build_initial(cfg: ScenarioConfig):
    pert = Perturbation(cfg.alpha, cfg.k) if cfg.alpha > 0 else None
    spatial = SpatialGrid(cfg.length, cfg.n_x)
    if cfg.model in ("vlasov", "wigner"):
        grid = PhaseSpaceGrid(spatial, cfg.v_max, cfg.n_v)
        eq = make_equilibrium(cfg.equilibrium, cfg.t_over_tf)
        if cfg.model == "vlasov":
            return vlasov.initial_state(grid, eq, pert)
        return wigner.initial_state(grid, eq, cfg.h, pert)
    if cfg.model == "hartree":
        spec = stream_lattice_spec(cfg, spatial)
        streams = plane_wave_mixture(spec, spatial, cfg.h)
        if pert is not None:
            streams = hartree.perturb_streams(streams, pert)
        return streams
    if cfg.model == "fluid":
        return qfluid.initial_state(spatial, cfg.h, pert, cfg.gamma, cfg.p0)
    raise ValueError(f"unknown model {cfg.model!r}")


def _stepper(cfg: ScenarioConfig):
    if cfg.model == "vlasov":
        return vlasov.step, vlasov.diagnostics
    if cfg.model == "wigner":
        return wigner.step, wigner.diagnostics
    if cfg.model == "hartree":
        return (lambda s, dt: hartree.step(s, dt)), hartree.diagnostics
    return qfluid.step, qfluid.diagnostics


def _copy_state(cfg: ScenarioConfig, state):
    if cfg.model == "hartree":
        return state.psi.copy()
    if cfg.model == "fluid":
        return state.psi.copy()
    return state.f.copy()


def run(cfg: ScenarioConfig) -> RunResult:
    """Advance the configured scenario to t_end.

    Diagnostics are recorded at t=0 and then every `output_every` steps;
    state copies are kept at each requested snapshot time (validation puts
    these and t_end on the step grid).  Raises FloatingPointError on
    non-finite diagnostics.
    """
    state = build_initial(cfg)
    step, diag = _stepper(cfg)
    recorder = diagio.SeriesRecorder(cfg.model, cfg.config_hash())
    n_steps = int(round(cfg.t_end / cfg.dt))
    snap_steps = {int(round(t / cfg.dt)): t for t in cfg.snapshot_times}
    snapshots = {}
    metadata = {"initial_data": ("perturbed_equilibrium"
                                 if cfg.model in ("vlasov", "wigner")
                                 else "wavefunction")}

    def record(i, s):
        t = i * cfg.dt
        vals = diag(s)
        if not all(np.isfinite(v) for v in vals):
            raise FloatingPointError(
                f"non-finite diagnostics at t={t:.3f}: {vals}")
        recorder.record(t, vals[0], vals[1], vals[2], vals[3])

    record(0, state)
    if 0 in snap_steps:
        snapshots[snap_steps[0]] = _copy_state(cfg, state)
    for i in range(1, n_steps + 1):
        state = step(state, cfg.dt)
        if i % cfg.output_every == 0 or i == n_steps:
            record(i, state)
        if i in snap_steps:
            snapshots[snap_steps[i]] = _copy_state(cfg, state)
    return RunResult(recorder.series(), state, snapshots, metadata)


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

    spatial = SpatialGrid(cfg.length, cfg.n_x)
    extra = dict(result.metadata)

    def write_state(tag, payload, time):
        path = out / f"snapshot_{cfg.model}_{h}_{tag}.qpsn"
        if cfg.model in ("vlasov", "wigner"):
            grid = PhaseSpaceGrid(spatial, cfg.v_max, cfg.n_v)
            diagio.write_snapshot(path, payload, grid, time, cfg.model,
                                  H=cfg.h, config_hash=h,
                                  split_sign_channels=(cfg.model == "wigner"),
                                  extra_header=extra)
        else:
            psi = np.atleast_2d(payload)
            probs = None
            if cfg.model == "hartree":
                probs = stream_lattice_spec(cfg, spatial).probabilities
            diagio.write_wavefunction_snapshot(path, psi, spatial, time,
                                               cfg.model, H=cfg.h,
                                               probabilities=probs,
                                               config_hash=h,
                                               extra_header=extra)
        paths.append(path)

    for t, payload in sorted(result.snapshots.items()):
        write_state(f"t{t:g}", payload, t)
    if cfg.save_final:
        write_state("final", _copy_state(cfg, result.final_state), cfg.t_end)
    return paths

