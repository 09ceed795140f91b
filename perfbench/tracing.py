"""Run-time instrumentation installed from the benchmark's own files.

Nothing under ``src/`` is edited.  Instead the benchmark swaps module
attributes while a workload runs and restores them afterwards.  qplasma
modules import functions by name (``vlasov`` holds its own reference to
``fields.poisson_periodic``), so a replacement is installed in every
qplasma module that holds the original object.

Two instruments use this:

* ``StepClock`` timestamps each call of a model's ``step`` function (or of
  ``dispersion.solve_root``).  It is the only hook in the untraced run; it
  costs two clock reads and three list appends per call, gives the
  per-iteration times of ``simulate.run`` and runs the host-speed probe
  between calls (``hostspeed``).
* ``Tracer`` records a span around every public function of the layer
  modules.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("simulate", "vlasov", "wigner", "hartree", "qfluid", "fields",
          "equilibria", "dispersion", "diagio")

# Per-call array bytes in plus out, reported as computed (not measured).
KERNELS = ("vlasov.advect_x", "vlasov.advect_v", "wigner.advect_x",
           "wigner.potential_kick")
# Writers whose first argument is the path written; bytes = file size.
WRITERS = ("diagio.write_snapshot", "diagio.write_wavefunction_snapshot")


def qplasma_modules():
    """Every imported qplasma module, the places a function can be held."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qplasma"
                                  or name.startswith("qplasma."))]


class Patcher:
    """Replaces objects held as module or class attributes; undoes it all."""

    def __init__(self):
        self._undo = []

    def replace(self, old, new):
        """Install `new` wherever a qplasma module holds `old`."""
        for mod in qplasma_modules():
            for name in [n for n, v in vars(mod).items() if v is old]:
                self.set(mod, name, new)

    def set(self, owner, name, new):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def restore(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class StepClock:
    """Call and return times of every call of a patched function.

    With a ``hostspeed.HostProbe``, it also runs the probe when one is due
    just before a call, and keeps the probe time out of the intervals.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.calls = []
        self.returns = []
        self.probed = []    # probe seconds spent up to each return

    def install(self, patcher, step_fn):
        calls, returns, probed = self.calls, self.returns, self.probed
        probe = self.probe

        @functools.wraps(step_fn)
        def timed(*args, **kwargs):
            if probe is not None:
                probe.maybe()
            calls.append(perf_counter())
            out = step_fn(*args, **kwargs)
            returns.append(perf_counter())
            probed.append(probe.spent if probe is not None else 0.0)
            return out

        patcher.replace(step_fn, timed)

    def reset(self):
        self.calls.clear()
        self.returns.clear()
        self.probed.clear()

    def spent(self):
        """Probe seconds spent so far."""
        return self.probe.spent if self.probe is not None else 0.0

    def intervals(self, n_steps):
        """Per-iteration (start, end, wall seconds) of one stepping loop.

        Iteration i > 0 spans from the return of step i-1 to the return of
        step i, so it holds the diagnostics and snapshot copy between them,
        less any probe run in between; iteration 0 is the first step alone.
        """
        if len(self.returns) != n_steps:
            raise RuntimeError(
                f"step clock saw {len(self.returns)} of {n_steps} steps: "
                "simulate.run no longer looks the model's step function up "
                "at run time, so the clock hook in perfbench/tracing.py "
                "must move")
        r, p = self.returns, self.probed
        return [(self.calls[0], r[0], r[0] - self.calls[0])] + [
            (r[i - 1], r[i], r[i] - r[i - 1] - (p[i] - p[i - 1]))
            for i in range(1, len(r))]


def _layer_functions(layer):
    """Public functions defined in `qplasma.<layer>`, by name."""
    mod = sys.modules[f"qplasma.{layer}"]
    return {name: fn for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == mod.__name__}


def _ndarray_bytes(values):
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    """Spans around every public layer function, plus a few named extras:

    * ``dispersion.eps`` is the method ``DielectricModel.eps``;
    * ``dispersion.quad`` is scipy's ``quad`` as called by the dispersion
      module.

    A span is [name, parent id, root id, start, end, tag, amount].  The tag
    is the equilibrium kind for ``solve_root``; the amount is Newton
    iterations for ``solve_root``, bytes in plus out for a kernel and file
    bytes for a snapshot writer.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def install(self, patcher):
        import qplasma.dispersion as dispersion

        for layer in LAYERS:
            for name, fn in _layer_functions(layer).items():
                patcher.replace(fn, self._wrap(f"{layer}.{name}", fn))
        patcher.set(dispersion.DielectricModel, "eps",
                    self._wrap("dispersion.eps",
                               dispersion.DielectricModel.eps))
        patcher.set(dispersion, "quad",
                    self._wrap("dispersion.quad", dispersion.quad))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        kernel = name in KERNELS
        writer = name in WRITERS
        solver = name == "dispersion.solve_root"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            root = spans[parent][2] if stack else sid
            span = [name, parent, root, perf_counter(), 0.0, "", 0]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if kernel:
                span[6] = _ndarray_bytes(args) + _ndarray_bytes((out,))
            elif writer:
                span[6] = os.path.getsize(args[0])
            elif solver:
                model = args[0]
                eq = getattr(model, "equilibrium", None)
                span[5] = eq.kind if eq is not None else model.kind
                span[6] = out.iterations
            return out

        return traced

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "root", "name", "start_s", "end_s",
                          "tag", "amount"))
            for sid, (name, parent, root, t0, t1, tag, amount) in enumerate(
                    self.spans):
                out.writerow((sid, parent, root, name, repr(t0), repr(t1),
                              tag, amount))

    def layer_metrics(self, names):
        """Values of the named per-layer metrics, and the names that refer
        to a layer function that does not exist.

        Names have the form ``<layer>.<function>.<stat>`` with stat one of
        ``ms`` (total span time), ``self_ms`` (span time minus the spans of
        direct children), ``calls``, ``bytes`` (file bytes written),
        ``bytes_computed`` (array bytes in plus out per call), plus
        ``dispersion.solve_root.ms.<equilibrium>`` and
        ``dispersion.solve_root.iterations``.
        """
        total, self_s, calls, amount, by_tag = {}, {}, {}, {}, {}
        child_s = [0.0] * len(self.spans)
        for name, parent, _, t0, t1, tag, n in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for sid, (name, _, _, t0, t1, tag, n) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_s[sid])
            calls[name] = calls.get(name, 0) + 1
            amount[name] = amount.get(name, 0) + n
            if tag:
                key = (name, tag)
                by_tag[key] = by_tag.get(key, 0.0) + (t1 - t0)

        values, absent = {}, []
        for metric in names:
            if metric.startswith("trace."):
                continue
            tag = None
            if metric.startswith("dispersion.solve_root.ms."):
                fn, stat = "dispersion.solve_root", "ms"
                tag = metric[len("dispersion.solve_root.ms."):]
            else:
                fn, _, stat = metric.rpartition(".")
            if not _exists(fn):
                absent.append(metric)
                values[metric] = 0
            elif tag is not None:
                values[metric] = 1e3 * by_tag.get((fn, tag), 0.0)
            elif stat == "ms":
                values[metric] = 1e3 * total.get(fn, 0.0)
            elif stat == "self_ms":
                values[metric] = 1e3 * self_s.get(fn, 0.0)
            elif stat == "calls":
                values[metric] = calls.get(fn, 0)
            elif stat in ("bytes", "iterations"):
                values[metric] = amount.get(fn, 0)
            elif stat == "bytes_computed":
                n = calls.get(fn, 0)
                values[metric] = amount.get(fn, 0) / n if n else 0
            else:
                raise ValueError(f"unknown per-layer metric {metric!r}")
        return values, absent


def _exists(fn_name):
    """Whether `<layer>.<function>` names something the tracer can wrap."""
    layer, _, name = fn_name.partition(".")
    if layer not in LAYERS:
        return False
    if fn_name == "dispersion.eps":
        mod = sys.modules["qplasma.dispersion"]
        return hasattr(getattr(mod, "DielectricModel", None), "eps")
    if fn_name == "dispersion.quad":
        return hasattr(sys.modules["qplasma.dispersion"], "quad")
    return name in _layer_functions(layer)
