"""The four benchmark workloads and the checks on their outputs.

Each workload draws its inputs from a numpy generator seeded by the
benchmark's ``--seed``; qplasma only ever sees the generated inputs.  A
workload offers ``inputs(rng)``, ``setup(inputs)`` (config or inputs to
the first step or first root) and ``solve(inputs, ctx)`` (one complete
solution: config to written, checked outputs).  A run draws its inputs
once and solves them over and over, back to back in one process: a
closed loop with a single caller.

NOTES.md explains why each workload was chosen.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# qplasma functions are called through their modules, so that the
# attributes the tracer swaps are the ones called here too.
from qplasma import (diagio, dispersion, equilibria, fields, hartree, qfluid,
                     simulate, vlasov, wigner)
from qplasma.config import ScenarioConfig, parse_config

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Drift bounds of the criterion-9 conservation suite in
# tests/test_acceptance.py.
DRIFT_TOLERANCE = {
    "vlasov": {"mass": 1e-6, "energy_rel": 1e-3, "momentum": 1e-6},
    "wigner": {"mass": 1e-10, "energy_rel": 1e-3, "momentum": 1e-4},
    "hartree": {"mass": 1e-12, "momentum": 1e-6},
    "fluid": {"mass": 1e-12, "energy_abs": 1e-6, "momentum": 1e-10},
}

# Field-energy series must match the reference recorded at the seed commit
# to this share of the series maximum.  Re-running the scenarios with the
# initial state perturbed by 1e-12 relative noise moves the series by at
# most 1.5e-11 of its maximum (fluid; 1.1e-13 for vlasov), and a kernel
# that agrees with the old one to 5e-16 per call stays far below that.  A
# change of dt, grid or kernel accuracy moves it by 1e-4 or more.
REFERENCE_RTOL = 1e-9

# Criterion 8: Hartree and Wigner densities of the same mixture agree.
MIXTURE_DENSITY_TOL = 1e-3

# solve_root accepts |eps| < tol, or a stagnated Newton step with
# |eps| < 1e3 tol where adaptive quadrature limits the residual; the root
# check uses that documented acceptance with the default tol = 1e-10.
ROOT_TOL = 1e3 * 1e-10

# Errors qplasma raises for a failed step or root request.
OPERATION_ERRORS = (ArithmeticError, ValueError)


@dataclass
class Tally:
    """Everything one run measured and checked."""

    setup_spans: list = field(default_factory=list)   # cold (start, end)
    # One entry per solution that produced its outputs:
    solution_span: list = field(default_factory=list)  # its (start, end)
    solution_s: list = field(default_factory=list)     # its wall time
    solution_spans: list = field(default_factory=list)  # steps/requests
    solution_op_s: list = field(default_factory=list)  # time per iteration
    solution_ops: list = field(default_factory=list)   # steps or roots
    attempted: int = 0    # steps or root requests, plus checks
    failed: int = 0
    problems: list = field(default_factory=list)  # failed checks
    errors: list = field(default_factory=list)    # failed operations

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def solved(self, start, end, seconds, spans, ops, op_s=None):
        """Record a solution that produced its outputs: when it ran, its
        wall time less probe time, the (start, end, wall seconds) of each
        step or request in it, the steps taken or roots converged, and the
        wall time of each iteration when one holds several spans."""
        self.solution_span.append((start, end))
        self.solution_s.append(seconds)
        self.solution_spans.append(list(spans))
        self.solution_op_s.append(list(op_s if op_s is not None
                                       else (s for _, _, s in spans)))
        self.solution_ops.append(ops)

    def operation_failed(self, what):
        self.attempted += 1
        self.failed += 1
        self.errors.append(what)


@dataclass
class Context:
    """What a solution needs besides its inputs."""

    tally: Tally
    clock: object      # tracing.StepClock, patched onto the model's step
    out_dir: Path

    def start(self):
        """Perf counter and probe seconds at the start of a solution."""
        return perf_counter(), self.clock.spent()

    def solved(self, started, spans, ops, op_s=None):
        t0, spent0 = started
        end = perf_counter()
        self.tally.solved(t0, end, end - t0 - (self.clock.spent() - spent0),
                          spans, ops, op_s)


def _reference(name):
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        ref = json.load(fh)
    return np.array(ref["times"]), np.array(ref["field_energy"])


def _state_array(state):
    return state.psi if hasattr(state, "psi") else state.f


def _snapshot_array(channels):
    if "f" in channels:
        return channels["f"]
    if "f_plus" in channels:
        return channels["f_plus"] - channels["f_minus"]
    return channels["psi_re"] + 1j * channels["psi_im"]


def _check_series(label, series, reference, tally):
    """Conservation drift of model `label` and the field-energy reference."""
    tol = DRIFT_TOLERANCE[label]
    m, e, p = series.mass, series.total_energy, series.momentum
    tally.check(abs(m[-1] - m[0]) / abs(m[0]) < tol["mass"],
                f"{label}: mass drift")
    if "energy_rel" in tol:
        tally.check(abs(e[-1] - e[0]) / abs(e[0]) < tol["energy_rel"],
                    f"{label}: energy drift")
    if "energy_abs" in tol:
        tally.check(abs(e[-1] - e[0]) < tol["energy_abs"],
                    f"{label}: energy drift")
    tally.check(float(np.max(np.abs(p - p[0]))) < tol["momentum"],
                f"{label}: momentum drift")
    if reference is not None:
        times, energy = reference
        ok = (np.array_equal(series.times, times)
              and float(np.max(np.abs(series.field_energy - energy)))
              <= REFERENCE_RTOL * float(np.max(np.abs(energy))))
        tally.check(ok, f"{label}: field energy differs from the reference")


def _check_outputs(cfg, result, paths, tally):
    """Every written file reads back to what the run holds."""
    by_name = {Path(p).name: Path(p) for p in paths}
    h = cfg.config_hash()
    series = diagio.read_series_csv(by_name[f"series_{cfg.model}_{h}.csv"])
    ok = all(np.array_equal(getattr(series, col), getattr(result.series, col))
             for col in ("times", "field_energy", "kinetic_energy",
                         "total_energy", "mass", "momentum"))
    tally.check(ok, f"{cfg.model}: series file differs from the run")
    text = by_name[f"config_{h}.cfg"].read_text()
    tally.check(parse_config(text) == cfg,
                f"{cfg.model}: config file does not parse back")
    states = dict(result.snapshots)
    states[cfg.t_end] = _state_array(result.final_state)
    tags = {t: f"t{t:g}" for t in result.snapshots}
    tags[cfg.t_end] = "final"
    for t, payload in states.items():
        name = f"snapshot_{cfg.model}_{h}_{tags[t]}.qpsn"
        header, channels = diagio.read_snapshot(by_name[name])
        ok = (header["time"] == t and np.array_equal(
            _snapshot_array(channels), np.atleast_2d(payload)))
        tally.check(ok, f"{cfg.model}: snapshot {tags[t]} differs")


def run_scenario(cfg, ctx, reference):
    """simulate.run plus write_outputs plus checks.

    Returns the per-step (start, end, wall seconds), or None when a step
    raised.
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    ctx.clock.reset()
    try:
        result = simulate.run(cfg)
    except OPERATION_ERRORS as err:
        ctx.tally.attempted += len(ctx.clock.returns)
        ctx.tally.operation_failed(f"{cfg.model} step: {err}")
        return None
    intervals = ctx.clock.intervals(n_steps)
    ctx.tally.attempted += n_steps
    paths = simulate.write_outputs(cfg, result, ctx.out_dir)
    _check_series(cfg.model, result.series, reference, ctx.tally)
    _check_outputs(cfg, result, paths, ctx.tally)
    return intervals


class PhaseSpaceWorkload:
    """The acceptance scenario on a 256x256 grid, shortened to T_END."""

    def known_defects(self):
        return []

    T_END = 5.0
    DT = 0.05

    def __init__(self, model, h, output_every, trace_solutions):
        self.model = model
        self.h = h
        self.output_every = output_every
        self.trace_solutions = trace_solutions

    @functools.cached_property
    def reference(self):
        return _reference(self.model)

    def step_function(self):
        return (vlasov if self.model == "vlasov" else wigner).step

    def inputs(self, rng):
        # A mid-run snapshot on the step grid; the physics stays fixed so
        # the field-energy reference applies to every seed.
        n_steps = int(round(self.T_END / self.DT))
        t_snap = int(rng.integers(1, n_steps)) * self.DT
        return ScenarioConfig(model=self.model, equilibrium="fd3d_projected",
                              t_over_tf=0.01, alpha=0.1, k=1.0, h=self.h,
                              n_x=256, n_v=256, v_max=3.0, dt=self.DT,
                              t_end=self.T_END,
                              output_every=self.output_every,
                              snapshot_times=(t_snap,), save_final=True)

    def setup(self, cfg):
        return simulate.build_initial(cfg)

    def solve(self, cfg, ctx):
        started = ctx.start()
        steps = run_scenario(cfg, ctx, self.reference)
        if steps is None:
            return
        ctx.solved(started, steps, len(steps))


class MixtureWorkload:
    """Criterion-8 mixture in lockstep with a criterion-9 fluid run.

    One iteration is one Hartree step, one Wigner step and one fluid step,
    each followed by its diagnostics.
    """

    N_STEPS = 200
    MIX_DT = 0.05
    FLUID_DT = 0.01
    H = 1.0
    VELOCITIES = (-1.0, -0.5, 0.5, 1.0)
    trace_solutions = 5

    @functools.cached_property
    def reference(self):
        return _reference("fluid")

    def known_defects(self):
        return []

    def step_function(self):
        return qfluid.step

    def inputs(self, rng):
        alpha = float(rng.uniform(0.03, 0.07))
        t_snap = int(rng.integers(1, self.N_STEPS)) * self.FLUID_DT
        fluid = ScenarioConfig(model="fluid", alpha=0.05, k=1.0, h=self.H,
                               n_x=64, dt=self.FLUID_DT,
                               t_end=self.N_STEPS * self.FLUID_DT,
                               output_every=1, snapshot_times=(t_snap,),
                               save_final=True)
        return alpha, fluid

    def setup(self, inputs):
        alpha, _ = inputs
        spatial = fields.SpatialGrid(2.0 * math.pi, 64)
        spec = equilibria.fd_stream_occupations(0.01, 1.0, self.VELOCITIES)
        streams = hartree.perturb_streams(
            equilibria.plane_wave_mixture(spec, spatial, self.H),
            equilibria.Perturbation(alpha, 1.0))
        pgrid = fields.PhaseSpaceGrid(spatial, 3.2, 256)
        wstate = wigner.from_phase_space_field(
            equilibria.wigner_of_mixture(streams, pgrid), pgrid, self.H)
        return streams, wstate

    def solve(self, inputs, ctx):
        tally = ctx.tally
        started = ctx.start()
        probe = ctx.clock.probe
        streams, wstate = self.setup(inputs)
        h_diag = [hartree.diagnostics(streams)]
        w_diag = [wigner.diagnostics(wstate)]
        mix_s = []
        sup = 0.0
        try:
            for i in range(self.N_STEPS):
                if probe is not None:
                    probe.maybe()
                a = perf_counter()
                streams = hartree.step(streams, self.MIX_DT)
                wstate = wigner.step(wstate, self.MIX_DT)
                h_diag.append(hartree.diagnostics(streams))
                w_diag.append(wigner.diagnostics(wstate))
                if (i + 1) % 10 == 0:
                    n_w, _, _ = fields.moments(wstate.f, wstate.grid)
                    sup = max(sup, float(np.max(np.abs(streams.density()
                                                       - n_w))))
                b = perf_counter()
                mix_s.append((a, b, b - a))
        except OPERATION_ERRORS as err:
            tally.attempted += len(mix_s)
            tally.operation_failed(f"mixture step: {err}")
            return
        tally.attempted += self.N_STEPS
        finite = np.all(np.isfinite(h_diag)) and np.all(np.isfinite(w_diag))
        tally.check(finite, "mixture: non-finite diagnostics")
        tally.check(sup < MIXTURE_DENSITY_TOL,
                    f"mixture: density sup-norm {sup:.2e}")
        for model, rows in (("hartree", h_diag), ("wigner", w_diag)):
            series = diagio.SeriesRecorder(model)
            for k, row in enumerate(rows):
                series.record(k * self.MIX_DT, *row)
            _check_series(model, series.series(), None, tally)
        fluid_s = run_scenario(inputs[1], ctx, self.reference)
        if fluid_s is None:
            return
        steps = [m[2] + f[2] for m, f in zip(mix_s, fluid_s)]
        ctx.solved(started, mix_s + fluid_s, len(steps), steps)


class DispersionWorkload:
    """Root requests of the linear-theory layer; no grid solver."""

    SCAN_K = np.linspace(0.1, 2.0, 20)   # the `qplasma dispersion` default
    # At the seed, the wigner/fd3d_projected_T0 scan over SCAN_K raises at
    # K = 1.8.  A timed request must not fail, so the timed scan stops at
    # 1.7; `known_defects` runs the whole grid and reports whether it still
    # raises.
    WIGNER_T0_SCAN_K = SCAN_K[:17]
    # Seeded K ranges of the finite-T solve_root requests.  Wigner stops at
    # 1.0: from the default guess its Newton iteration fails to converge on
    # 1.005 <= K <= 1.045 and near K = 1.07, and each failure spends all
    # 100 iterations (about 27 s).  NOTES.md records this defect.
    K_RANGE = {"vlasov": (0.2, 1.2), "wigner": (0.2, 1.0)}
    STRATA = 2     # two seeded K per stratum and finite-T model
    SMALLK = dict(k_min=0.02, k_max=0.2, n_k=25)
    trace_solutions = 1

    def step_function(self):
        # k_scan and smallk_coefficients look solve_root up at run time too.
        return dispersion.solve_root

    def inputs(self, rng):
        # A finite-T vlasov root costs about twice as much near K = 1.2 as
        # near K = 0.2.  So each stratum of the K range gets an antithetic
        # pair, at u and 1 - u of its width: a cost that grows with K about
        # linearly then sums to nearly the same over a round for any seed.
        ks = {}
        for kind, (lo, hi) in self.K_RANGE.items():
            width = (hi - lo) / self.STRATA
            u = rng.uniform(size=self.STRATA)
            edges = lo + width * np.arange(self.STRATA)
            ks[kind] = [float(k) for k in
                        np.concatenate([edges + width * u,
                                        edges + width * (1.0 - u)])]
        return ks

    def setup(self, inputs):
        eq_t0 = equilibria.make_equilibrium("fd3d_projected_T0")
        eq_t = equilibria.make_equilibrium("fd3d_projected", 0.01)
        model = dispersion.DielectricModel
        return {
            "vlasov_T0": model(dispersion.VLASOV_KINETIC, equilibrium=eq_t0),
            "wigner_T0": model(dispersion.WIGNER_KINETIC, equilibrium=eq_t0,
                               H=1.0),
            "vlasov_T": model(dispersion.VLASOV_KINETIC, equilibrium=eq_t),
            "wigner_T": model(dispersion.WIGNER_KINETIC, equilibrium=eq_t,
                              H=1.0),
        }

    def requests(self, inputs, models):
        """(label, model, call, roots asked) for every root request."""
        out = [(f"k_scan {m}", models[m],
                lambda m=m, ks=ks: dispersion.k_scan(models[m], ks), len(ks))
               for m, ks in (("vlasov_T0", self.SCAN_K),
                             ("wigner_T0", self.WIGNER_T0_SCAN_K))]
        for kind in ("vlasov", "wigner"):
            m = f"{kind}_T"
            out += [(f"solve_root {m} K={k:.4f}", models[m],
                     lambda m=m, k=k: dispersion.solve_root(models[m], k), 1)
                    for k in inputs[kind]]
        m = "vlasov_T0"
        out.append((f"smallk_coefficients {m}", models[m],
                    lambda: dispersion.smallk_coefficients(models[m],
                                                           **self.SMALLK),
                    self.SMALLK["n_k"]))
        return out

    def solve(self, inputs, ctx):
        tally = ctx.tally
        started = ctx.start()
        models = self.setup(inputs)
        spans, roots = [], 0
        for label, model, call, n_roots in self.requests(inputs, models):
            spent0 = ctx.clock.spent()
            t0 = perf_counter()
            try:
                out = call()
                ok = True
            except OPERATION_ERRORS as err:
                ok = False
                tally.operation_failed(f"{label}: {err}")
            t1 = perf_counter()
            spans.append((t0, t1, t1 - t0 - (ctx.clock.spent() - spent0)))
            if ok:
                tally.attempted += 1
                roots += n_roots
                self._check(label, model, out, tally)
        ctx.solved(started, spans, roots)

    def known_defects(self):
        """Whether each cheap scan known to raise at the seed still raises.

        These requests stay out of the timed work, where no operation may
        fail.  The finite-T scans that also raise (NOTES.md) cost 10-30 s
        each and are not rerun here.
        """
        t0 = equilibria.make_equilibrium("fd3d_projected_T0")
        waterbag = equilibria.make_equilibrium("waterbag1d")
        cases = (("k_scan wigner/fd3d_projected_T0 H=1", t0),
                 ("k_scan wigner/waterbag1d H=1", waterbag))
        lines = []
        for label, eq in cases:
            model = dispersion.DielectricModel(dispersion.WIGNER_KINETIC,
                                               equilibrium=eq, H=1.0)
            try:
                dispersion.k_scan(model, self.SCAN_K)
            except OPERATION_ERRORS as err:
                lines.append(f"{label}: still raises "
                             f"{type(err).__name__}: {err}")
            else:
                lines.append(f"{label}: no longer raises")
        return lines

    @staticmethod
    def _check(label, model, out, tally):
        if label.startswith("smallk"):
            c2 = out[1]
            tally.check(abs(c2 - 0.6) < 0.02 * 0.6,
                        f"{label}: c2={c2:.5f}, want 0.6 within 2%")
            return
        roots = out if isinstance(out, list) else [out]
        for r in roots:
            residual = abs(model.eps(r.k, r.omega))
            tally.check(math.isfinite(residual) and residual < ROOT_TOL,
                        f"{label}: |eps| = {residual:.2e} at K={r.k:.4f}")


WORKLOADS = {
    "vlasov_trapping": lambda: PhaseSpaceWorkload(
        "vlasov", h=0.0, output_every=1, trace_solutions=1),
    "wigner_quantum": lambda: PhaseSpaceWorkload(
        "wigner", h=1.0, output_every=10, trace_solutions=3),
    "mixture_small": MixtureWorkload,
    "dispersion_scan": DispersionWorkload,
}
