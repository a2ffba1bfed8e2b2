#!/usr/bin/env python3
"""tricklesim benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload cell_large --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports ``tricklesim`` from its
``src`` directory; nothing is installed or built.  One process, one
thread, closed loop: each operation starts when the previous one ends.

``--trace 0`` reports the end-to-end metrics of the workload:

* ``setup_s`` -- the median of three imports of tricklesim, each in a
  fresh interpreter, plus the median of five rounds of building the inputs
  and running one untimed warm-up operation;
* ``wall_s`` -- median over passes of the time to finish the workload's
  fixed list of operations (whole passes are run until the operation time
  is within half a pass of ``--seconds``);
* ``op_p50_s`` -- median time of one operation over all passes;
* ``peak_mem_mb`` -- peak resident memory added by the operations, in
  10^6 bytes: the process's high-water mark after the warm-up operations
  and the first pass, less its resident size once tricklesim is imported
  and the inputs are built.  Until the mark is read no output is kept and
  no check runs (each output is reduced to a digest at once), so the mark
  is set by the library's calls alone.  Both figures are read from /proc
  between operations, so nothing tracks allocations while one runs.

``--trace 1`` reports the per-layer metrics.  It runs one traced pass of
every workload, so every layer is measured whichever workload is named.
Each traced operation of the named workload follows the same operation run
untraced, and the traced minus the untraced time of that pass is
``trace.overhead_s``.  Every operation of the traced run starts with the
normalisation-constant cache empty.  Spans are written to
``perfbench/_out/trace-<workload>-s<seed>.json``.

Every operation's output is checked off the clock; a failed check or an
exception counts the operation as failed.  Progress goes to stderr; the
last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from spans import NULL, Tracer, rebound

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
MODULES = ("tricklesim.analytics", "tricklesim.cli", "tricklesim.engine", "tricklesim.residual")
IMPORT_ROUNDS = 3  # fresh interpreters whose import time is the median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Verifier:
    """Times operations and checks their outputs.

    The first output of each input key is checked in full and its digest
    kept; every later output of that key must have the same digest.  While
    ``holding`` (set-up and the first pass, before the peak-memory mark is
    read) no check runs and no output is kept, only its digest.  ``settle``
    then checks those outputs by the checked output of the same key from a
    later pass or, where no later pass ran that input, by running the
    operation again off the clock.  An operation whose output is on disk
    keeps it, as that costs no memory, and is checked from there instead.
    """

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}  # key -> digest of a checked output
        # key -> (op, output if on disk, digests of the outputs not yet checked)
        self.pending: dict[str, tuple] = {}
        self.holding = False
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        if self.failed <= 5:
            log(f"FAILED {what}: {'; '.join(problems)}")

    def time(self, op, tracer=NULL):
        """Run one operation on the clock; (seconds, output), or (None, None)
        if it raised."""
        gc.collect()
        self.attempted += 1
        try:
            t0 = perf_counter()
            out = op.call(tracer)
            return perf_counter() - t0, out
        except Exception:  # an operation that raises is a failed operation
            self.fail(repr(op.key), [traceback.format_exc()])
            return None, None

    def _check(self, key: str, op, out) -> list[str]:
        problems = op.check(out)
        if not problems:
            self.digests[key] = op.digest(out)
        return problems

    def record(self, op, out) -> None:
        """Check one output, or hold its digest for ``settle``."""
        key = repr(op.key)
        if key in self.digests:
            if op.digest(out) != self.digests[key]:
                self.fail(key, ["output differs from the checked one"])
        elif self.holding:
            _, _, held = self.pending.get(key, (None, None, []))
            self.pending[key] = (op, out if op.on_disk else None, held + [op.digest(out)])
        else:
            problems = self._check(key, op, out)
            if problems:
                self.fail(key, problems)

    def settle(self) -> None:
        """Check the outputs held while ``holding``."""
        for key, (op, out, held) in self.pending.items():
            problems = []
            if key not in self.digests:
                try:
                    if out is None:
                        gc.collect()
                        out = op.call(NULL)
                    problems = self._check(key, op, out)
                except Exception:
                    problems = [traceback.format_exc()]
            for d in held:
                if self.digests.get(key) != d:
                    self.fail(key, problems or ["output differs from the checked one"])
        self.pending.clear()

    def run(self, op, tracer=NULL):
        """Time one operation and check its output at once."""
        dt, out = self.time(op, tracer)
        if dt is not None:
            self.record(op, out)
        return dt, out


def import_tricklesim() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    for name in MODULES:
        importlib.import_module(name)
    import tricklesim

    if Path(tricklesim.__file__).resolve().parent != SRC / "tricklesim":
        raise ImportError(f"tricklesim was imported from {tricklesim.__file__}, not {SRC}")


def fresh_import_s() -> float:
    """Seconds to import tricklesim in a fresh interpreter (same thread
    settings, same source tree)."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t0 = time.perf_counter(); "
            f"import {', '.join(MODULES)}; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def vm_status(field: str) -> int:
    """A memory figure of this process from /proc/self/status, in bytes."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"{field} not in /proc/self/status")


def timed(args, work_dir: Path) -> tuple[Verifier, dict]:
    import workloads

    import_s = statistics.median(fresh_import_s() for _ in range(IMPORT_ROUNDS))
    ver = Verifier()
    ver.holding = True  # until the peak-memory mark is read
    setups = []
    for rnd in range(workloads.SETUP_ROUNDS):
        gc.collect()
        t0 = perf_counter()
        wl = workloads.build(args.workload, args.seed, work_dir)
        build_s = perf_counter() - t0
        if rnd == 0:
            gc.collect()
            base_rss = vm_status("VmRSS")
        op = wl.warmup_op(rnd)
        warm_s, out = ver.time(op)
        setups.append(build_s + (warm_s or 0.0))
        if warm_s is not None:
            ver.record(op, out)
        del out

    op_times, pass_times = [], []
    p = 0
    # whole passes until the operation time is within half a pass of --seconds
    while not pass_times or sum(pass_times) + statistics.mean(pass_times) / 2 < args.seconds:
        total = 0.0
        for op in wl.pass_ops(p):
            dt, out = ver.time(op)
            if dt is not None:
                ver.record(op, out)
                op_times.append(dt)
                total += dt
            del out
        if p == 0:
            peak = (vm_status("VmHWM") - base_rss) / 1e6
            ver.holding = False
        pass_times.append(total)
        p += 1
    ver.settle()
    log(f"{args.workload}: import {import_s:.3f} s, set-up rounds "
        f"{', '.join(f'{t:.3f}' for t in setups)} s; {p} passes, {len(op_times)} timed operations")
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "wall_s": (statistics.median(pass_times), "s"),
        "op_p50_s": (statistics.median(op_times) if op_times else float("nan"), "s"),
        "peak_mem_mb": (peak, "MB"),
    }
    return ver, metrics


def traced(args, work_dir: Path) -> tuple[Verifier, dict]:
    import workloads

    ver = Verifier()
    wls = {name: workloads.build(name, args.seed, work_dir) for name in workloads.WORKLOADS}
    for wl in wls.values():
        ver.run(wl.warmup_op(0))

    tracer = Tracer()
    counters: dict[str, int] = defaultdict(int)
    untraced = traced_wall = 0.0
    for name, wl in wls.items():
        for op in wl.pass_ops(1):
            if name == args.workload:
                # the same operation untraced, just before: the overhead is
                # taken from neighbouring runs of equal work
                workloads.cold_norm_const()
                untraced += ver.run(op)[0] or 0.0
            workloads.cold_norm_const()
            with rebound(tracer, counters):
                dt, out = ver.time(op, tracer)
            if dt is not None:
                ver.record(op, out)
                if name == args.workload:
                    traced_wall += dt
                if op.key[0] in ("cell", "grid"):
                    counters["transmissions"] += out.total_transmissions
            workloads.layer_work(op, tracer, counters)
            del out

    summary = tracer.summary()
    tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.json")

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def count(name):
        return summary.get(name, {}).get("count", 0)

    run_s = total("engine.run")
    chain_steps = count("residual.sample_chain") * workloads.Analytic.CHAIN_STEPS
    replications = count("cli.main") * workloads.CellSweep.REPLICATIONS
    metrics = {
        "engine.run_s": (run_s, "s"),
        "engine.node_schedule_s": (total("engine.node_schedule"), "s"),
        "engine.host_ns_per_attempt": (run_s / max(counters["attempts"], 1) * 1e9, "ns"),
        "engine.attempts": (counters["attempts"], "count"),
        "engine.transmissions": (counters["transmissions"], "count"),
        "engine.runs": (count("engine.run"), "count"),
        "topology.neighbor_table_s": (total("topology.neighbor_table"), "s"),
        "topology.neighbors_per_node": (
            counters["neighbors"] / max(counters["grid_nodes"], 1), "count"),
        "analytics.cdf_T_grid_s": (total("analytics.cdf_T_grid"), "s"),
        "analytics.pdf_T_s": (total("analytics.pdf_T"), "s"),
        "analytics.norm_const_cold_s": (total("analytics.norm_const_cold"), "s"),
        "analytics.limiting_pdf_eta0_s": (total("analytics.limiting_pdf_eta0"), "s"),
        "residual.stationary_cdf_s": (total("residual.stationary_cdf"), "s"),
        "residual.sample_chain_steps_per_s": (
            chain_steps / max(total("residual.sample_chain"), 1e-12), "1/s"),
        "residual.laplace_verify_s": (total("residual.laplace_verify"), "s"),
        "quadrature.calls": (count("quadrature.quad"), "count"),
        "quadrature.self_s": (summary.get("quadrature.quad", {}).get("self_s", 0.0), "s"),
        "csvio.write_csv_s": (total("csvio.write_csv"), "s"),
        "csvio.rows_written": (counters["rows"], "count"),
        "csvio.bytes_written": (counters["bytes"], "bytes"),
        "cli.command_s": (total("cli.main"), "s"),
        "cli.replications_per_s": (replications / max(total("cli.main"), 1e-12), "1/s"),
        "trace.overhead_s": (traced_wall - untraced, "s"),
    }
    return ver, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cell_large", "cell_sweep", "grid_torus", "analytic"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tricklesim" / "__init__.py").is_file():
        log(f"no tricklesim sources under {SRC}; run from a source checkout")
        return 2
    import_tricklesim()

    work_dir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            ver, metrics = traced(args, work_dir)
        else:
            ver, metrics = timed(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "correct": ver.failed == 0,
        "attempted": ver.attempted,
        "failed": ver.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
