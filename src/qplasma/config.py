"""Flat key=value scenario configuration: parsing with full error
collection, validation, canonical serialization and hashing.

The format is line-oriented ``key = value`` with ``#`` comments.  All
quantities are in normalized units.  The box length is one perturbation
wavelength, L = 2 pi / k, so the seeded mode is commensurate by
construction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields as dataclass_fields

from .equilibria import (PROJECTED_FD, PROJECTED_FD_T0, WATERBAG,
                         stream_lattice_spec)
from .fields import SpatialGrid
from .qfluid import check_splitstep_resonance
from .simulate import MODELS

# The keys every model reads; each row of simulate.MODELS lists the keys its
# model reads beyond them, and of the equilibria only PROJECTED_FD reads
# t_over_tf (read_keys).  A config sets no other key, so its text and hash
# hold exactly what its model runs; the keys it cannot set stay at their
# defaults.
COMMON_KEYS = ("model", "alpha", "k", "n_x", "dt", "t_end", "output_every",
               "snapshot_times", "save_final")
EQUILIBRIA = (WATERBAG, PROJECTED_FD_T0, PROJECTED_FD)
# Relative slack for times that are whole numbers of steps up to round-off,
# such as 3 * 0.05 = 0.15000000000000002.
STEP_GRID_RTOL = 1e-9


class ConfigError(ValueError):
    """Carries every validation problem found, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ScenarioConfig:
    model: str
    equilibrium: str = "fd3d_projected"
    t_over_tf: float = 0.01
    alpha: float = 0.1
    k: float = 1.0
    h: float = 0.0
    n_x: int = 256
    n_v: int = 256
    v_max: float = 3.0
    dt: float = 0.05
    t_end: float = 50.0
    output_every: int = 1
    snapshot_times: tuple = ()
    save_final: bool = False
    gamma: float = 3.0
    p0: float = 1.0 / 3.0
    n_streams: int = 4

    @property
    def length(self) -> float:
        return 2.0 * 3.141592653589793 / self.k

    def to_text(self) -> str:
        """Canonical text of the keys the run reads; parse_config
        round-trips it."""
        keys = read_keys(self.model, self.equilibrium)
        lines = []
        for name in [f.name for f in dataclass_fields(self) if f.name in keys]:
            v = getattr(self, name)
            if name == "snapshot_times":
                v = ",".join(repr(float(t)) for t in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{name} = {v}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]


def read_keys(model: str, equilibrium: str) -> tuple:
    """The keys a run of `model` on `equilibrium` reads."""
    keys = COMMON_KEYS + MODELS[model].keys
    if "equilibrium" in keys and equilibrium in (WATERBAG, PROJECTED_FD_T0):
        keys = tuple(key for key in keys if key != "t_over_tf")
    return keys


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _finite(s: str) -> float:
    if not math.isfinite(x := float(s)):
        raise ValueError(f"not a finite number: {s!r}")
    return x


# The parser of each key, by the field's annotation (a string under
# `from __future__ import annotations`).  Every number is finite.
_PARSERS = {f.name: {"str": str, "float": _finite, "int": int,
                     "bool": lambda s: _BOOL[s.strip().lower()],
                     "tuple": lambda s: tuple(map(_finite, s.split(",")))
                     if s.strip() else ()}[f.type]
            for f in dataclass_fields(ScenarioConfig)}

# Each key's own rule: a test of its value and the problem a failing value
# makes, formatted with the value `v` and the config `cfg`.  validate
# applies it only to the keys the config's model reads; the others stay at
# their defaults.
RULES = {
    "model": (lambda v: v in MODELS,
              f"model must be one of {tuple(MODELS)}, got {{v!r}}"),
    "equilibrium": (lambda v: v in EQUILIBRIA,
                    f"equilibrium must be one of {EQUILIBRIA}, got {{v!r}}"),
    "t_over_tf": (lambda v: v >= 0, "t_over_tf must be nonnegative, got {v!r}"),
    "alpha": (lambda v: 0 <= v <= 1, "alpha must be in [0, 1], got {v!r}"),
    "k": (lambda v: v > 0, "k must be positive, got {v!r}"),
    "h": (lambda v: v > 0, "model {cfg.model!r} requires h > 0"),
    "n_x": (lambda v: v >= 8, "n_x must be at least 8, got {v!r}"),
    "n_v": (lambda v: v >= 8 and v % 2 == 0,
            "n_v must be even and at least 8, got {v!r}"),
    "v_max": (lambda v: v > 0, "v_max must be positive, got {v!r}"),
    "dt": (lambda v: v > 0, "dt must be positive, got {v!r}"),
    "t_end": (lambda v: v > 0, "t_end must be positive, got {v!r}"),
    "output_every": (lambda v: v >= 1, "output_every must be at least 1, got {v!r}"),
    "snapshot_times": (lambda v: min(v, default=0) >= 0,
                       "snapshot_times must be nonnegative, got {v!r}"),
    "gamma": (lambda v: v >= 1, "gamma must be at least 1, got {v!r}"),
    "p0": (lambda v: v > 0, "p0 must be positive, got {v!r}"),
    "n_streams": (lambda v: v >= 1, "n_streams must be at least 1, got {v!r}"),
}


def _on_step_grid(t: float, dt: float) -> bool:
    """Whether time t is a whole number of steps of size dt."""
    n = t / dt
    return math.isfinite(n) and abs(round(n) * dt - t) <= STEP_GRID_RTOL * max(t, dt)


# (key, problem) of each rule across keys that the config breaks.  A rule
# runs only when every key it reads is in `passed`: the model reads the key
# and its value passed its own rule.  No two rules blame one key.
def _cross_problems(cfg: ScenarioConfig, passed: set):
    if {"dt", "t_end"} <= passed and not _on_step_grid(cfg.t_end, cfg.dt):
        yield "t_end", (f"t_end must be a whole number of steps of "
                        f"dt={cfg.dt}, got {cfg.t_end}")
    for t in cfg.snapshot_times if {"dt", "t_end", "snapshot_times"} <= passed else ():
        late = t > cfg.t_end * (1.0 + STEP_GRID_RTOL)
        if late or not _on_step_grid(t, cfg.dt):
            yield "snapshot_times", (
                f"snapshot_times must not be after t_end={cfg.t_end}, got {t}"
                if late else f"snapshot_times must be whole numbers of steps "
                f"of dt={cfg.dt}, got {t}")
            break  # one problem for the key
    # Of the equilibria only PROJECTED_FD reads t_over_tf (read_keys).
    if {"equilibrium", "t_over_tf"} <= passed and not 0.0 < cfg.t_over_tf <= 1.0:
        yield "t_over_tf", (f"t_over_tf must be in (0, 1] for equilibrium "
                            f"{cfg.equilibrium!r}, got {cfg.t_over_tf}")
    if {"k", "t_over_tf", "h", "n_streams"} <= passed:
        # Occupations fall with |u|, so the lattice leaves a stream below
        # the Fermi energy exactly when its innermost streams (of the same
        # parity) do; those are checked, not all n_streams.
        try:
            stream_lattice_spec(min(cfg.n_streams, 2 + cfg.n_streams % 2),
                                cfg.t_over_tf, cfg.h, cfg.length)
        except ValueError:
            yield "h", (f"h must leave a stream below the Fermi energy, got "
                        f"{cfg.h}: the stream spacing pi h / L = "
                        f"{math.pi * cfg.h / cfg.length:.3g} exceeds v_F")
    if {"alpha", "gamma"} <= passed and cfg.gamma == 1.0 and cfg.alpha >= 1.0:
        yield "alpha", (f"alpha must be below 1 for an isothermal fluid "
                        f"(gamma = 1), got {cfg.alpha}: its enthalpy p0 log n "
                        f"is infinite at zero density")
    # gamma marks the fluid, whose step (qfluid.step) has the resonance.
    if {"k", "n_x", "h", "dt", "gamma"} <= passed:
        try:
            phase = check_splitstep_resonance(SpatialGrid(cfg.length, cfg.n_x),
                                              cfg.h, cfg.dt)
        except OverflowError:  # past the float range
            phase = math.inf
        if not phase < 1.0:
            yield "dt", (f"dt must keep the kinetic phase per step at the grid "
                         f"cutoff below pi (split-step resonance), got "
                         f"{phase:.3g} pi at dt={cfg.dt}")


def validate(cfg: ScenarioConfig):
    """(key, problem) of each rule the config breaks, at most one per key:
    each key's own rule from RULES, then the rules across keys whose keys
    all passed theirs."""
    keys = read_keys(cfg.model, cfg.equilibrium) if cfg.model in MODELS else ("model",)
    problems = [(key, RULES[key][1].format(v=getattr(cfg, key), cfg=cfg))
                for key in keys
                if key in RULES and not RULES[key][0](getattr(cfg, key))]
    passed = set(keys).difference(key for key, _ in problems)
    return problems + list(_cross_problems(cfg, passed))


def parse_config(text: str, overrides=None) -> ScenarioConfig:
    """Parse and validate; raises ConfigError listing every problem with
    its source, ``line N`` of the text or ``override``.  `overrides` is an
    iterable of extra "key=value" lines applied after the text."""
    problems = []
    values = {}
    assigned = []  # (source, key) of every entry that parsed
    entries = [(f"line {lineno}", raw)
               for lineno, raw in enumerate(text.splitlines(), start=1)]
    entries += [("override", item) for item in overrides or ()]
    for source, raw in entries:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{source}: expected key = value, got {raw!r}")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            problems.append(f"{source}: unknown key {key!r}")
            continue
        try:
            values[key] = _PARSERS[key](val)
        except (ValueError, KeyError):  # KeyError: not a boolean
            problems.append(f"{source}: bad value for {key!r}: {val!r}")
            continue
        assigned.append((source, key))
    sources = {key: source for source, key in assigned}
    model = values.get("model")
    if model in MODELS:
        eq = values.get("equilibrium", ScenarioConfig.equilibrium)
        problems += [f"{source}: model {model!r} has no key {key!r}"
                     if key not in COMMON_KEYS + MODELS[model].keys else
                     f"{source}: equilibrium {eq!r} has no key {key!r}"
                     for source, key in assigned
                     if key not in read_keys(model, eq)]
    if model is None and not problems:
        problems.append("missing required key 'model'")
    if problems:
        raise ConfigError(problems)
    cfg = ScenarioConfig(**values)
    # A key left at its default is blamed on the entry that set the model.
    problems = [f"{sources.get(key, sources['model'])}: {p}"
                for key, p in validate(cfg)]
    if problems:
        raise ConfigError(problems)
    return cfg
