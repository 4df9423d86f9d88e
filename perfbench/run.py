"""Closed-loop benchmark of skewpencil.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 40 --trace 0

Run from the repository root.  One process and one caller: each operation
is issued after the previous one returns.  The first pass over the
workload's fixed operation list always completes; after it the operations
run again in the same order while the next one's last time still fits in
``--seconds``.  Every answer is checked after its clock stops.  While the
timed phase runs, ``speed.SpeedProbe`` samples the machine's speed, and
the end-to-end times are reported in its reference seconds.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one plain
pass and one pass with every layer function wrapped by the span recorder,
and prints the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last stdout line is the JSON result.  Results, the
environment and (traced) spans are written under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("verify-ladder", "reduce-ladder", "corpus-sweep")
#: set-ups measured in fresh child processes, besides the run's own
SETUP_PROBES = 2
#: one record per executed operation: (index in the op list, label, input
#: size, seconds)
OpTimes = list[tuple[int, str, int, float]]


def blas_threads(workload: str) -> int:
    """BLAS threads for a workload.

    Only reduce-ladder's least-squares problems, up to 1980 x 2025, are
    large enough to split over the usable CPUs.  The other workloads solve
    small problems or none, so a second OpenBLAS thread there finds no work,
    spins, and doubles the CPU time used.
    """
    return len(os.sched_getaffinity(0)) if workload == "reduce-ladder" else 1


def setup(workload: str, seed: int, workdir: Path):
    """Import the library, generate the seeded inputs, write input files.

    Returns (seconds, operations).  Nothing before this imports numpy or
    skewpencil, so the import is inside the measured time.
    """
    t0 = perf_counter()
    for p in (str(SRC), str(ROOT)):
        if p not in sys.path:
            sys.path.insert(0, p)
    from perfbench import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(workload, str(workdir), seed)
    return perf_counter() - t0, ops


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_pass(ops, recorder=None, probe=None, fits=None) -> tuple[OpTimes, OpTimes, int, int]:
    """One closed-loop pass: (op times, raw op times, attempted, failed).

    ``fits(k)``, when given, is asked before operation k; the pass ends at
    the first operation that does not fit.  With a running speed probe the
    op times are reference seconds and the raw ones exclude the probe's
    samples; without one both are plain wall time.
    """
    raw, spans, attempted, failed = [], [], 0, 0
    for k, op in enumerate(ops):
        if fits is not None and not fits(k):
            break
        paused = probe.paused if probe is not None else 0.0
        if recorder is not None:
            recorder.op, recorder.active = k, True
        t0 = perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # one failed operation must not end the run
            out, err = None, exc
        t1 = perf_counter()
        dt = t1 - t0 - (probe.paused - paused if probe is not None else 0.0)
        if recorder is not None:
            recorder.active = False
        if err is not None:
            traceback.print_exception(err, file=sys.stderr)
            a, f = 1, 1
        else:
            a, f = op.check(out)
        attempted, failed = attempted + a, failed + f
        spans.append((t0, t1))
        raw.append((k, op.label, op.size, dt))
    if probe is None:
        return raw, raw, attempted, failed
    times = [(k, label, size, dt * probe.scale(*span))
             for (k, label, size, dt), span in zip(raw, spans)]
    return times, raw, attempted, failed


def timed_phase(ops, seconds: float, probe=None):
    """The closed loop for ``seconds``: one whole pass, then the operations
    again in the same order while the next one's last time still fits.

    Returns op times, raw op times, attempted and failed.
    """
    deadline = perf_counter() + seconds
    times, raw, attempted, failed = run_pass(ops, probe=probe)
    last = {k: dt for k, _, _, dt in raw}
    while perf_counter() < deadline:
        t, r, a, f = run_pass(ops, probe=probe,
                              fits=lambda k: perf_counter() + last[k] <= deadline)
        times, raw = times + t, raw + r
        attempted, failed = attempted + a, failed + f
        last.update((k, dt) for k, _, _, dt in r)
        if len(r) < len(ops):
            break
    return times, raw, attempted, failed


def pass_seconds(times: OpTimes) -> float:
    """Time of one pass: the sum over the operations of each one's median."""
    per_op: dict[int, list[float]] = {}
    for k, _, _, dt in times:
        per_op.setdefault(k, []).append(dt)
    return sum(statistics.median(ts) for ts in per_op.values())


def end_to_end(workload: str, setups: list[float], times: OpTimes) -> dict:
    from perfbench.workloads import TYPICAL

    typical = [t for _, label, _, t in times if TYPICAL[workload] in (None, label)]
    largest = max(size for _, _, size, _ in times)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (pass_seconds(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "typical_op_ms": (1e3 * statistics.median(typical), "ms"),
        "largest_op_s": (statistics.median(t for _, _, s, t in times if s == largest), "s"),
    }


def details(workload: str, times: OpTimes, attempted: int, failed: int) -> dict:
    """Workload-specific figures, printed beside the gated metrics."""
    out: dict = {"fail_frac": failed / attempted}
    if workload == "corpus-sweep":
        ms = [1e3 * t for _, _, _, t in times]
        # p98 is the highest percentile with at least ten samples beyond it
        out["struct_p50_ms"] = statistics.median(ms)
        out["struct_p98_ms"] = statistics.quantiles(ms, n=100)[97]
        out["struct_samples"] = len(ms)
    else:
        verb = workload.split("-")[0]
        for _, label in sorted({(size, label) for _, label, size, _ in times}):
            ts = [t for _, lab, _, t in times if lab == label]
            out[f"{verb}_{label}_s"] = statistics.median(ts)
            out[f"{verb}_{label}_samples"] = len(ts)
    return out


def openblas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "skewpencil").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    inputs = WORK / f"inputs-{os.getpid()}"
    try:
        setups = [probe_setup(workload, seed) for _ in range(probes)]
        t_setup, ops = setup(workload, seed, inputs)
        setups.append(t_setup)
        if not trace:
            from perfbench.speed import SpeedProbe

            with SpeedProbe() as probe:
                times, raw, attempted, failed = timed_phase(ops, seconds, probe=probe)
            metrics = end_to_end(workload, setups, times)
            speed = {"wall_raw_s": pass_seconds(raw),
                     "kernel_median_s": statistics.median(probe.seconds),
                     "kernel_samples": len(probe.seconds)}
            spans = None
        else:
            from perfbench.spans import SpanRecorder, metric_names

            times, _, attempted, failed = run_pass(ops)
            recorder = SpanRecorder()
            recorder.install()
            try:
                traced, _, a, f = run_pass(ops, recorder)
            finally:
                recorder.uninstall()
            attempted, failed = attempted + a, failed + f
            units = dict(metric_names())
            metrics = {name: (value, units[name])
                       for name, value in recorder.summary(passes=1).items()}
            untraced, traced = pass_seconds(times), pass_seconds(traced)
            metrics["trace.wall_untraced_s"] = (untraced, "s")
            metrics["trace.wall_traced_s"] = (traced, "s")
            metrics["trace.overhead_share"] = (traced / untraced - 1.0, "ratio")
            spans = recorder
            speed = {}
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "operations": len(times),
        "environment": environment(seed),
        "details": details(workload, times, attempted, failed),
        "speed": speed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "skewpencil" / "__init__.py").is_file():
        print(f"perfbench: no skewpencil sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads this when numpy is first imported, in this process and its children
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads(args.workload))

    if args.setup_probe:
        probe_dir = WORK / f"probe-{os.getpid()}"
        try:
            print(repr(setup(args.workload, args.seed, probe_dir)[0]))
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        return 0

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    stem = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorder = result.pop("spans")
    if recorder is not None:
        recorder.write(f"{stem}-spans.json")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print("details " + json.dumps(result["details"]))
    print("speed " + json.dumps(result["speed"]))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
