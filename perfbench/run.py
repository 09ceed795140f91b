"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload vlasov_trapping --seed 1 \\
        --seconds 30 --trace 0

Run it from a checkout of the repository: qplasma is imported from the
checkout's ``src/`` directory, and the metric names and units come from its
``BENCHMARK.json``.  The run draws its inputs from the seed once and
solves them back to back (a closed loop with one caller) while one more
solution is expected to end within ``--seconds``; then it reports the
``end_to_end`` metrics.  ``--trace 1`` instead runs a fixed
number of solutions untraced, traced and untraced again, and reports the
``per_layer`` metrics, including the tracing overhead.

``--workload all`` runs every workload in turn, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the host, every metric with its unit and sample count, and every
failure.  Spans of a traced run and the full result are written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# Thread pools of BLAS/OpenMP builds and of the qplasma CLI.  Each is held
# at or below nproc (1 when unset) so that all load is this one process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS", "QPLASMA_THREADS")

# A cold set-up is timed before each solution, and more after the last one
# until there are at least this many.  A cold set-up of 0.1 s varies by
# about 10% from one sample to the next, so its median needs several.
SETUP_SAMPLES = 11

END_TO_END = ("setup_s", "solution_s", "ops_per_s", "peak_rss_mb")
# Printed beside them, with its unit, but not in BENCHMARK.json: the pooled
# per-iteration p99 is set by stalls of the shared host, and its median
# moved by 44% between two sets of ten runs of the same code (NOTES.md).
PRINTED_ONLY = {"op_ms.p99": "ms"}


def hold_threads():
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, "1"))
        except ValueError:
            n = 1
        os.environ[var] = str(min(max(n, 1), nproc))
    return nproc


def host_info(nproc):
    import numpy
    import scipy
    import qplasma

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "qplasma": getattr(qplasma, "__version__", "unknown"),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


class ColdSetup:
    """Times set-ups in processes that have imported qplasma and run nothing.

    A process that runs one config pays every first-call cost and fills
    every cache itself.  The solutions of a run repeat one config in one
    process, so a set-up timed there would credit a cache filled by an
    earlier solution.  Instead a zygote is forked before the run does any
    work, and for each sample it forks a child that sets up once from the
    run's inputs and reports when it started and ended.  Imports are done
    before the fork, so they are excluded.  perf_counter is the system's
    monotonic clock, so the runner can scale the set-up by the probes it
    times itself just before and after.
    """

    def __init__(self, workload, inputs):
        cmd_r, self._cmd_w = os.pipe()
        self._res_r, res_w = os.pipe()
        sys.stdout.flush()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._cmd_w)
            os.close(self._res_r)
            try:
                while os.read(cmd_r, 1):
                    child = os.fork()
                    if child == 0:
                        os.write(res_w, struct.pack(
                            "dd", *_setup_span(workload, inputs)))
                        os._exit(0)
                    if os.waitpid(child, 0)[1] != 0:
                        os.write(res_w, struct.pack("dd", math.nan, math.nan))
            finally:
                os._exit(0)
        os.close(cmd_r)
        os.close(res_w)

    def sample(self):
        """(start, end) of one cold set-up, or None when it raised."""
        os.write(self._cmd_w, b"s")
        data = os.read(self._res_r, 16)
        if len(data) != 16:
            return None
        values = struct.unpack("dd", data)
        return None if math.isnan(values[0]) else values

    def close(self):
        os.close(self._cmd_w)
        os.waitpid(self.pid, 0)
        os.close(self._res_r)


def _setup_span(workload, inputs):
    try:
        t0 = perf_counter()
        workload.setup(inputs)
        return t0, perf_counter()
    except BaseException:
        return math.nan, math.nan


def run_solutions(workload, inputs, seconds=None, solutions=None,
                  tracer=None, cold=None, probe=None):
    """Solve `inputs` over and over in a closed loop; returns the Tally.

    With `solutions` given, runs exactly that many, so that two runs with
    one seed do identical work.  With `cold` (a ColdSetup), times a cold
    set-up before each solution.  With `probe` (a hostspeed.HostProbe),
    times the probe between iterations.
    """
    import hostspeed
    from tracing import Patcher, StepClock
    from workloads import Context, Tally

    tally = Tally()
    clock = StepClock(probe)
    patcher = Patcher()
    work_dir = OUT / "solution"

    def time_setup():
        sample = cold.sample()
        tally.check(sample is not None, "set-up raised in a fresh process")
        if sample is not None:
            tally.setup_spans.append(sample)

    try:
        if tracer is not None:
            tracer.install(patcher)
        clock.install(patcher, workload.step_function())
        start = last = perf_counter()
        done = 0
        while more(done, solutions, perf_counter() - start, seconds,
                   perf_counter() - last):
            last = perf_counter()
            if cold is not None:
                time_setup()
            if probe is not None:
                probe.sample()
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True)
            workload.solve(inputs, Context(tally, clock, work_dir))
            done += 1
        for _ in range(SETUP_SAMPLES - done if cold is not None else 0):
            time_setup()
        if probe is not None:
            for _ in range(hostspeed.NEIGHBOURS):
                probe.sample()
    finally:
        patcher.restore()
        shutil.rmtree(work_dir, ignore_errors=True)
    return tally


def more(done, solutions, elapsed, seconds, last):
    """Whether to start another solution: a fixed count when `solutions`
    is given, else while one more, as long as the last, ends in time."""
    if solutions is not None:
        return done < solutions
    return done == 0 or elapsed + last <= seconds


def throughput(tally):
    """Steps or roots per second of busy time, over all solutions."""
    busy = sum(sum(op_s) for op_s in tally.solution_op_s)
    return float(sum(tally.solution_ops) / busy) if busy > 0 else 0.0


def end_to_end(tally, probe):
    """Values and sample notes of the end-to-end metrics.

    Every timing is in reference seconds (hostspeed): each step, request
    and the rest of a solution (set-up inside simulate.run, writing and
    checking outputs) is scaled by the probes timed around it.
    solution_s is the median over the run's solutions, ops_per_s the
    median of steps or roots of a solution over its scaled loop time, and
    setup_s the median of cold set-ups, each scaled by the runner's probes
    just before and after it.  op_ms.p99 is the 99th percentile
    of the wall time of every iteration of every solution, pooled.
    """
    import hostspeed
    import numpy as np

    if not tally.solution_s:
        return {m: 0.0 for m in (*END_TO_END, *PRINTED_ONLY)}, {}
    solution, rate = [], []
    for (start, end), wall, spans, ops in zip(
            tally.solution_span, tally.solution_s, tally.solution_spans,
            tally.solution_ops):
        loop = probe.scaled(spans)
        rest = (wall - sum(s for _, _, s in spans)) * probe.scale(start, end)
        solution.append(loop + rest)
        rate.append(ops / loop)
    setup_wall = [b - a for a, b in tally.setup_spans]
    setup = [(b - a) * probe.scale(a, b) for a, b in tally.setup_spans]
    pooled = [t for op_s in tally.solution_op_s for t in op_s]
    values = {
        "setup_s": statistics.median(setup),
        "solution_s": statistics.median(solution),
        "ops_per_s": statistics.median(rate),
        "op_ms.p99": 1e3 * float(np.quantile(pooled, 0.99)),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(solution)
    wall_rate = [ops / sum(op_s) for ops, op_s
                 in zip(tally.solution_ops, tally.solution_op_s)]
    speed = statistics.median(probe.times) / hostspeed.REFERENCE_S
    notes = {
        "setup_s": f"median of {len(setup)} cold set-ups; wall "
                   f"{statistics.median(setup_wall):.4g} s",
        "solution_s": f"median of {n} solutions; wall "
                      f"{statistics.median(tally.solution_s):.4g} s",
        "ops_per_s": f"median of {n} solutions; wall "
                     f"{statistics.median(wall_rate):.4g} 1/s",
        "op_ms.p99": f"wall, {len(pooled)} iterations of {n} solutions",
        "peak_rss_mb": "ru_maxrss of the process",
        "host": f"median probe {speed:.3f} x reference over "
                f"{len(probe.times)} probes",
    }
    return values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qplasma").is_dir():
        print(f"error: no qplasma sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        # Every workload, one after another, each in a process of its own.
        for name in names:
            print(f"== {name}", flush=True)
            code = subprocess.call(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)])
            if code:
                return code
        return 0
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2

    nproc = hold_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import hostspeed
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    inputs = workload.inputs(np.random.default_rng(args.seed))
    host = host_info(nproc)
    print("host " + json.dumps(host, sort_keys=True), flush=True)

    if args.trace:
        # Untraced passes before and after the traced one, so that warm-up
        # and drift of the host bias the overhead less.
        wanted = spec["per_layer"]
        n = workload.trace_solutions
        before = run_solutions(workload, inputs, solutions=n)
        tracer = Tracer()
        traced = run_solutions(workload, inputs, solutions=n, tracer=tracer)
        after = run_solutions(workload, inputs, solutions=n)
        values, absent = tracer.layer_metrics([m["name"] for m in wanted])
        plain = 0.5 * (throughput(before) + throughput(after))
        values["trace.ops_per_s.untraced"] = plain
        values["trace.ops_per_s.traced"] = throughput(traced)
        values["trace.overhead_pct"] = (
            100.0 * (plain - throughput(traced)) / plain if plain else 0.0)
        notes = {"trace.overhead_pct": f"{len(tracer.spans)} spans"}
        tallies = (before, traced, after)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.csv")
        # Requests known to fail at the seed stay out of the timed work; the
        # traced run reports whether they still fail.
        defects = workload.known_defects()
    else:
        wanted = spec["end_to_end"]
        probe = hostspeed.HostProbe()
        cold = ColdSetup(workload, inputs)
        try:
            tally = run_solutions(workload, inputs, seconds=args.seconds,
                                  cold=cold, probe=probe)
        finally:
            cold.close()
        tally.check(bool(tally.solution_s), "no solution produced outputs")
        values, notes = end_to_end(tally, probe)
        print(f"  host speed: {notes.pop('host')}")
        absent = []
        defects = []
        tallies = (tally,)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    errors = [e for t in tallies for e in t.errors]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        note = notes.get(name, "absent" if name in absent else "")
        print(f"  {name} = {m['value']!r} {m['unit']}"
              + (f"  ({note})" if note else ""))
    printed_only = {name: values[name] for name in PRINTED_ONLY
                    if name in values and name not in metrics}
    for name, value in printed_only.items():
        print(f"  {name} = {value!r} {PRINTED_ONLY[name]}  ({notes[name]}; "
              "not in BENCHMARK.json)")
    print(f"  failed_fraction = {failed / attempted!r}  "
          f"({failed} of {attempted} operations and checks)")
    for line in errors:
        print(f"  failed operation: {line}")
    for line in problems:
        print(f"  failed check: {line}")
    for line in defects:
        print(f"  known defect, not timed: {line}")

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "host": host, "absent": absent,
                   "errors": errors, "problems": problems, "notes": notes,
                   "known_defects": defects,
                   "printed_only": printed_only, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
