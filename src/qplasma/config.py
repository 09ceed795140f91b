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
            elif isinstance(v, float):
                v = repr(v)
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


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOL[s.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {s!r}")


def _parse_times(s: str) -> tuple:
    s = s.strip()
    if not s:
        return ()
    return tuple(float(tok) for tok in s.split(","))


# The parser of each key, by the field's annotation (a string under
# `from __future__ import annotations`).
_PARSERS = {f.name: {"str": str, "float": float, "int": int,
                     "tuple": _parse_times, "bool": _parse_bool}[f.type]
            for f in dataclass_fields(ScenarioConfig)}


def _on_step_grid(t: float, dt: float) -> bool:
    """Whether time t is a whole number of steps of size dt."""
    n = t / dt
    return math.isfinite(n) and abs(round(n) * dt - t) <= STEP_GRID_RTOL * max(t, dt)


def validate(cfg: ScenarioConfig):
    """All range/consistency violations as a list of messages."""
    problems = []
    keys = MODELS[cfg.model].keys if cfg.model in MODELS else ()

    def check(ok, msg):
        if not ok:
            problems.append(msg)

    check(cfg.model in MODELS,
          f"model must be one of {tuple(MODELS)}, got {cfg.model!r}")
    check(cfg.equilibrium in EQUILIBRIA,
          f"equilibrium must be one of {EQUILIBRIA}, got {cfg.equilibrium!r}")
    if "equilibrium" in keys and cfg.equilibrium == PROJECTED_FD:
        check(0.0 < cfg.t_over_tf <= 1.0,
              f"t_over_tf must be in (0, 1] for equilibrium "
              f"'fd3d_projected', got {cfg.t_over_tf}")
    check(0.0 <= cfg.alpha <= 1.0, f"alpha must be in [0, 1], got {cfg.alpha}")
    check(cfg.k > 0, f"k must be positive, got {cfg.k}")
    check(cfg.h >= 0, f"h must be nonnegative, got {cfg.h}")
    if "h" in keys:
        check(cfg.h > 0, f"model {cfg.model!r} requires h > 0")
    check(cfg.t_over_tf >= 0, f"t_over_tf must be nonnegative, got {cfg.t_over_tf}")
    check(cfg.n_x >= 8, f"n_x must be at least 8, got {cfg.n_x}")
    check(cfg.n_v >= 8 and cfg.n_v % 2 == 0,
          f"n_v must be even and at least 8, got {cfg.n_v}")
    check(cfg.v_max > 0, f"v_max must be positive, got {cfg.v_max}")
    check(cfg.dt > 0, f"dt must be positive, got {cfg.dt}")
    check(cfg.t_end > 0, f"t_end must be positive, got {cfg.t_end}")
    check(cfg.output_every >= 1,
          f"output_every must be at least 1, got {cfg.output_every}")
    check(all(t >= 0 for t in cfg.snapshot_times),
          "snapshot_times must be nonnegative")
    if cfg.dt > 0 and cfg.t_end > 0:
        check(_on_step_grid(cfg.t_end, cfg.dt),
              f"t_end must be a whole number of steps of dt={cfg.dt}, "
              f"got {cfg.t_end}")
        for t in cfg.snapshot_times:
            check(_on_step_grid(t, cfg.dt),
                  f"snapshot_times must be whole numbers of steps of "
                  f"dt={cfg.dt}, got {t}")
            check(t <= cfg.t_end * (1.0 + STEP_GRID_RTOL),
                  f"snapshot_times must not be after t_end={cfg.t_end}, "
                  f"got {t}")
    check(cfg.gamma >= 1.0, f"gamma must be at least 1, got {cfg.gamma}")
    check(cfg.p0 > 0, f"p0 must be positive, got {cfg.p0}")
    check(cfg.n_streams >= 1,
          f"n_streams must be at least 1, got {cfg.n_streams}")
    if ("n_streams" in keys and cfg.h > 0 and cfg.k > 0
            and cfg.n_streams >= 1 and cfg.t_over_tf >= 0):
        try:
            stream_lattice_spec(cfg.n_streams, cfg.t_over_tf, cfg.h, cfg.length)
        except ValueError:
            problems.append(f"h must leave a stream below the Fermi energy, got "
                            f"{cfg.h}: the stream spacing pi h / L = "
                            f"{math.pi * cfg.h / cfg.length:.3g} exceeds v_F")
    check(cfg.model != "fluid" or cfg.gamma != 1.0 or cfg.alpha < 1.0,
          f"alpha must be below 1 for an isothermal fluid (gamma = 1), got "
          f"{cfg.alpha}: its enthalpy p0 log n is infinite at zero density")
    if cfg.model == "fluid" and cfg.n_x >= 8 and cfg.k > 0 and cfg.h > 0 and cfg.dt > 0:
        phase = check_splitstep_resonance(SpatialGrid(cfg.length, cfg.n_x),
                                          cfg.h, cfg.dt)
        check(phase < 1.0,
              f"dt must keep the kinetic phase per step at the grid "
              f"cutoff below pi (split-step resonance), got "
              f"{phase:.3g} pi at dt={cfg.dt}")
    return problems


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
        except ValueError:
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
    # Each range problem names its key first; blame the entry that set it.
    for p in validate(cfg):
        key = p.split(" ", 1)[0]
        problems.append(f"{sources[key]}: {p}" if key in sources else p)
    if problems:
        raise ConfigError(problems)
    return cfg
