"""Closed-loop benchmark of blindprep's user-facing jobs.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22 --trace 1

Workloads (see workloads.py): ``certify`` (one op = one branch of the
default verify-gates suite), ``encode`` (one encoded-state preparation),
``syndrome`` (one case of the single-error correction matrix) and ``sweep``
(one 2 001-row resources sweep through the CLI). ``all`` runs the four in
turn, each in its own process.

One process, one thread, closed loop: each op starts when the previous one
has finished and been checked against the benchmark's own oracle. A failed
op is counted, never raised. BLAS and OpenMP are held to one thread.

``--trace 0`` reports the end-to-end metrics:
- ``setup_s``: median over seven fresh interpreters, run one after another
  and never beside the timed loop, of the wall time from start to the end
  of the first op (import, building the inputs, one op with cold caches);
- ``units_per_s``: verified work units per second of op time;
- ``op_p50_ms`` / ``op_p90_ms``: median and 90th-percentile op time;
- ``peak_rss_mb``: peak resident memory of this process.
The loop runs for ``--seconds`` and at least 100 ops, then finishes its
cycle, so every run has the same mix of op kinds. The first op of the
process warms caches and is not timed.

The three timing metrics are taken over every op of the loop, in
milliseconds at reference speed (see probe.py): a small shared machine
runs one core at full or about half speed, switching within tens of
milliseconds and in a share that differs from run to run, so each op is
bracketed by a fixed speed probe and its time rescaled by the probe's.
Raw wall-clock figures are kept in the record under ``bench/out/``.

``fail_frac`` is printed with the metrics and carried by ``failed`` /
``attempted``; it is left out of ``metrics`` because it reads 0 on a
correct program.

``--trace 1`` reports per-layer metrics: the untraced loop runs as above,
then a fixed number of whole cycles, seeded alike, runs with every public
function of ``spans.LAYERS`` wrapped. Counts therefore repeat exactly for
a given seed. Spans go to ``bench/out/`` when the run ends.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a copy with the run environment
goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
NAMES = ("certify", "encode", "syndrome", "sweep")
SETUP_RUNS = 7
MIN_OPS = 100  # leaves ten ops beyond p90
CHILD_TIMEOUT_S = 170
MAX_REPORTED_ERRORS = 3


def use_checkout() -> None:
    """Import blindprep from this checkout's src/, single-threaded."""
    if not (SRC / "blindprep" / "__init__.py").is_file():
        sys.exit(f"error: no blindprep package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


class Runner:
    """Runs and checks ops of one workload, reporting the first few errors."""

    def __init__(self, workload):
        self.w = workload
        self.errors = 0

    def _report(self, what: str, ex: Exception) -> None:
        self.errors += 1
        if self.errors <= MAX_REPORTED_ERRORS:
            print(f"{self.w.name}: {what} raised {type(ex).__name__}: {ex}", file=sys.stderr)

    def attempt(self, op, tracer=None, op_id=0) -> tuple[bool, float]:
        """Run and check one op; returns (passed, op wall time in ms)."""
        start = perf_counter()
        try:
            if tracer is None:
                result = self.w.run(op)
            else:
                result = tracer.run_op(op_id, self.w.run, op)
        except Exception as ex:  # a failing op is counted, not raised
            self._report("op", ex)
            return False, (perf_counter() - start) * 1e3
        ms = (perf_counter() - start) * 1e3
        try:
            return bool(self.w.check(op, result)), ms
        except Exception as ex:
            self._report("check", ex)
            return False, ms

    def loop(self, seconds: float, min_ops: int, tracer=None, probe=None) -> "Loop":
        """Closed loop until both limits are met, ending on a cycle boundary.

        With a ``probe``, it runs before the first op and after every op,
        and each op's time is also rescaled to the probe's reference speed."""
        ops = self.w.ops()
        run = Loop([], [], [], self.w.units_per_op)
        before = probe() if probe is not None else 0.0
        start = perf_counter()
        deadline = start + seconds
        while True:
            ok, ms = self.attempt(next(ops), tracer, len(run.op_ms))
            if probe is not None:
                after = probe()
                run.ref_ms.append(ms * probe.ref_ms * 2 / (before + after))
                run.probe_ms.append(after)
                before = after
            end = perf_counter()
            run.op_ms.append(ms)
            run.ends.append(end - start)
            run.passed.append(ok)
            n = len(run.op_ms)
            if n % self.w.cycle == 0 and n >= min_ops and end >= deadline:
                return run


@dataclass
class Loop:
    """Per-op record of one closed loop."""

    op_ms: list  # wall time of each op
    ends: list  # seconds from the loop's start to the end of each op's check and probe
    passed: list
    units_per_op: int
    ref_ms: list = field(default_factory=list)  # op time at the probe's reference speed
    probe_ms: list = field(default_factory=list)  # wall time of the probe after each op

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    def rate(self) -> float:
        """Verified units per second of wall time over the whole loop."""
        return (len(self.passed) - self.failed) * self.units_per_op / self.ends[-1]

    def ref_rate(self) -> float:
        """Verified units per second of op time at reference speed."""
        return (len(self.passed) - self.failed) * self.units_per_op * 1e3 / sum(self.ref_ms)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def cpu_model() -> str:
    info = Path("/proc/cpuinfo")
    if info.is_file():
        for line in info.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def os_threads() -> int:
    task = Path("/proc/self/task")
    return len(list(task.iterdir())) if task.is_dir() else threading.active_count()


def setup_times(name: str, seed: int) -> tuple[list, int]:
    """Fresh-interpreter set-up runs, one at a time; returns (seconds, failed)."""
    times, failed = [], 0
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-run",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        # perf_counter is the system-wide monotonic clock, shared with the child
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(child["end"] - start)
        failed += not child["ok"]
    return times, failed


def setup_run(name: str, seed: int) -> None:
    """Body of one fresh interpreter: build the inputs and run the first op."""
    from workloads import WORKLOADS

    w = WORKLOADS[name](seed)
    ok, _ = Runner(w).attempt(next(w.ops()))
    end = perf_counter()
    print(json.dumps({"end": end, "ok": ok}))


def measure(name: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    from probe import Probe
    from workloads import WORKLOADS

    setups, setup_failed = setup_times(name, seed)
    w = WORKLOADS[name](seed)
    runner = Runner(w)
    warm_ok, _ = runner.attempt(next(w.ops()))
    probe = Probe(w.probe_reps)
    run = runner.loop(seconds, MIN_OPS, probe=probe)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (run.ref_rate(), "1/s"),
        "op_p50_ms": (statistics.median(run.ref_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(run.ref_ms, n=10)[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    attempted = len(run.op_ms) + 1 + SETUP_RUNS
    failed = run.failed + (not warm_ok) + setup_failed
    detail = {
        "ops": len(run.op_ms),
        "wall_clock": {
            "units_per_s": run.rate(),
            "op_p50_ms": statistics.median(run.op_ms),
            "op_p90_ms": statistics.quantiles(run.op_ms, n=10)[-1],
            "probe_p50_ms": statistics.median(run.probe_ms),
        },
        "probe": {"reps": probe.reps, "ref_ms": probe.ref_ms},
        "setup_s": setups,
        "op_ms": run.op_ms,
        "ref_ms": run.ref_ms,
        "probe_ms": run.probe_ms,
        "ends": run.ends,
    }
    return metrics, attempted, failed, detail


def traced(name: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    from spans import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    w = cls(seed)
    runner = Runner(w)
    warm_ok, _ = runner.attempt(next(w.ops()))
    plain = runner.loop(seconds, MIN_OPS)

    fixed = cls(seed)  # the traced ops depend on the seed alone
    tracer = Tracer()
    tracer.install()
    try:
        n = fixed.trace_cycles * fixed.cycle
        run = Runner(fixed).loop(0.0, n, tracer)
    finally:
        tracer.uninstall()
    ops = len(run.op_ms)

    metrics = tracer.metrics(ops)
    metrics["trace.units_per_s_untraced"] = (plain.rate(), "1/s")
    metrics["trace.units_per_s"] = (run.rate(), "1/s")
    metrics["trace.overhead"] = (plain.rate() / run.rate() if run.rate() else 0.0, "ratio")

    missed = [fn for fn in cls.reaches if tracer.calls[fn] == 0]
    if missed:
        print(f"{name}: traced functions never called: {missed}", file=sys.stderr)
    if tracer.unaccounted_ops:
        print(f"{name}: {tracer.unaccounted_ops} ops whose self times miss their wall time", file=sys.stderr)
    consistent = not missed and not tracer.unaccounted_ops

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-seed{seed}.json.gz")
    attempted = len(plain.op_ms) + ops + 1
    # a trace that missed a layer or lost time makes the run incorrect
    failed = run.failed + plain.failed + (not warm_ok) + (not consistent)
    detail = {"ops": ops, "untraced_ops": len(plain.op_ms), "spans": len(tracer.spans)}
    return metrics, attempted, failed, detail


def one_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    body = traced if trace else measure
    metrics, attempted, failed, detail = body(name, seed, seconds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env["os_threads_end"] = os_threads()
    for key, (value, unit) in metrics.items():
        print(f"{name:<9} {key:<40} {value:.6g} {unit}")
    print(f"{name:<9} {'fail_frac':<40} {failed / attempted:.6g} fraction ({failed}/{attempted})")
    print(f"{name:<9} env {json.dumps(env)}")
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace, env=env, detail=detail)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return result


def all_workloads(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for key, value in part["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_checkout()
    if args.setup_run:
        setup_run(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = all_workloads(args.seed, args.seconds, bool(args.trace))
    else:
        result = one_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
