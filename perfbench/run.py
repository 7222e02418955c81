"""The rbfbench benchmark: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rbfbench is imported from its ``src``.
One caller runs one op at a time; the next op starts when the previous one
has ended.  The last line of stdout is the JSON result; the lines before it
are run notes.  With --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics of ``spans.PER_LAYER``.

Only the benchmark's own processes are measured: no system-wide tracing,
cache drops, or kernel and cgroup changes.  Each child process gets an
address-space cap through resource.setrlimit, so an op that outgrows it
fails with its name recorded instead of pressing on the machine's memory.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time

import ops
from cli_child import SPANS_TAG
from spans import PER_LAYER, TARGETS, derive

SETUPS = 3              # set-ups per run; setup_s is their median
CAP_MB = 3072           # address-space cap of every child process
DEADLINE_S = 170        # children still running this long after start are killed


def cap_memory() -> None:
    limit = CAP_MB * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class Run:
    """Op outcomes and timings of one benchmark run."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.op_times: dict[str, list[float]] = {}
        self.passes: list[dict] = []
        self.setups: list[float] = []
        self.peak_rss_mb = 0.0
        self.probes: list[dict] = []
        self.absent: set[str] = set()
        self.notes: dict = {}

    def op(self, config: str, seconds: float | None, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{config}: {'; '.join(problems)}")
        elif seconds is not None:
            self.op_times.setdefault(config, []).append(seconds)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ops.ROOT / "src")
    return env


def spawn(run: Run, argv, **kw) -> subprocess.Popen:
    proc = subprocess.Popen(argv, cwd=ops.ROOT, env=child_env(), preexec_fn=cap_memory,
                            **kw)
    timer = threading.Timer(max(0.0, run.deadline - time.monotonic()), proc.kill)
    timer.daemon = True
    timer.start()
    proc.timer = timer
    return proc


def finish(proc: subprocess.Popen, **kw):
    try:
        return proc.communicate(**kw)
    finally:
        proc.timer.cancel()


def exit_text(code: int) -> str:
    return f"killed by signal {-code}" if code < 0 else f"exit code {code}"


# ----------------------------------------------------------------------------
# In-process workloads: witness_2d, rates_1d, scan_2d
# ----------------------------------------------------------------------------

def run_workers(workload: str, seed: int, seconds: float, trace: bool, run: Run) -> None:
    """Worker 0 sets up and runs every timed pass; the others only set up."""
    configs = ops.WORKLOADS[workload]
    for worker in range(SETUPS):
        t_spawn = time.perf_counter()
        budget = seconds if worker == 0 else 0
        proc = spawn(run, [sys.executable, str(ops.HERE / "worker.py"), workload, str(seed),
                      str(worker), repr(budget), "1" if trace else "0"],
                     stdout=subprocess.PIPE, text=True)
        ops_seen, ready = 0, False
        for line in proc.stdout:
            event = json.loads(line)
            kind = event.pop("event")
            if kind == "ready":
                run.setups.append(time.perf_counter() - t_spawn)
                ready = True
            elif kind == "op":
                ops_seen += 1
                run.op(event["config"], event["seconds"], event["problems"])
            elif kind == "pass":
                run.passes.append(event)
            elif kind == "probe":
                run.probes.append(event)
            elif kind == "done":
                run.peak_rss_mb = max(run.peak_rss_mb, event["peak_rss_mb"])
                run.absent.update(event["absent"])
        finish(proc)
        if proc.returncode != 0:
            # The op in flight when the process ended is the next one of its pass.
            config = configs[ops_seen % len(configs)] if ready else "setup"
            run.op(f"worker {worker} {config}", None, [exit_text(proc.returncode)])


# ----------------------------------------------------------------------------
# cli_cold: every op is a fresh process
# ----------------------------------------------------------------------------

def timed_child(run: Run, argv):
    t0 = time.perf_counter()
    proc = spawn(run, argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = finish(proc)
    return time.perf_counter() - t0, proc.returncode, out, err


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cli_op(config: str, seed: int, traced: bool, refs: dict, run: Run, want=None):
    """Run one cli_cold op; return (payload or None, span counters or None).

    A traced op passes the untraced op's payload as ``want``; its own
    payload must equal it.
    """
    seconds, code, out, err = timed_child(run, ops.cli_argv(config, seed, traced))
    stats = None
    if traced and err.rstrip().rsplit("\n", 1)[-1].startswith(SPANS_TAG):
        head, _, tail = err.rstrip().rpartition("\n")
        spans = json.loads(tail[len(SPANS_TAG):])
        stats, err = spans["stats"], head
        run.absent.update(spans["absent"])
    if code != 0:
        last = err.strip().splitlines()[-1:] or [""]
        run.op(config, None, [f"{exit_text(code)}: {last[0]}"])
        return None, stats
    try:
        payload = json.loads(out)
        problems = ops.check_cli(config, payload, refs.get(config))
    except (ValueError, KeyError, TypeError) as exc:
        payload, problems = None, [f"unreadable output: {exc!r}"]
    if want is not None and payload != want:
        problems.append("traced output differs from untraced output")
    run.op(config, seconds, problems)
    return payload, stats


def import_times(run: Run) -> dict:
    """Seconds of `import rbfbench` by package, from `python -X importtime`."""
    argv = [sys.executable, "-X", "importtime", "-c", "import rbfbench"]
    _, code, _, err = timed_child(run, argv)
    if code != 0:
        return {}
    self_us: dict[str, int] = {}
    total_us = 0
    for line in err.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
        if not m:
            continue
        name = m.group(3)
        top = name.split(".")[0]
        self_us[top] = self_us.get(top, 0) + int(m.group(1))
        if name == "rbfbench":
            total_us = int(m.group(2))
    return {"cli.import.s": total_us / 1e6,
            **{f"cli.import.{pkg}_s": self_us.get(pkg, 0) / 1e6
               for pkg in ("sympy", "scipy", "mpmath")}}


def run_cli(seed: int, seconds: float, trace: bool, run: Run) -> None:
    refs = json.loads((ops.HERE / "reference.json").read_text())["cli_cold"]
    configs = ops.WORKLOADS["cli_cold"]
    for _ in range(SETUPS):
        took, code, _, err = timed_child(run, [sys.executable, "-c", "import rbfbench"])
        if code != 0:
            raise SystemExit(f"import rbfbench failed ({exit_text(code)}): {err.strip()}")
        run.setups.append(took)
    for config, _ in ops.PROBES["cli_cold"] if trace else ():
        probe = Run()
        probe.deadline = run.deadline
        cli_op(config, 0, False, refs, probe)
        run.probes.append({"op": config, "problems": probe.failures})
    seeds = ops.pass_seeds("cli_cold", seed, 0)
    start = time.perf_counter()
    while True:
        op_seed = next(seeds)
        cpu0, t0 = children_cpu(), time.perf_counter()
        plain = [cli_op(c, op_seed, False, refs, run)[0] for c in configs]
        wall = time.perf_counter() - t0
        event = {"seed": op_seed, "wall_s": wall, "cpu_s": children_cpu() - cpu0,
                 "layers": None, "traced_wall_s": None}
        if trace:
            t1 = time.perf_counter()
            layers: dict[str, float] = {}
            for config, want in zip(configs, plain):
                stats = cli_op(config, op_seed, True, refs, run, want)[1]
                for key, value in (stats or {}).items():
                    layers[key] = (max(layers.get(key, 0.0), value) if key.endswith("max_mb")
                                   else layers.get(key, 0.0) + value)
            event["traced_wall_s"] = time.perf_counter() - t1
            layers.update(import_times(run))
            event["layers"] = layers
        run.passes.append(event)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(run.passes) > seconds:
            break
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------------
# Metrics and notes
# ----------------------------------------------------------------------------

def end_to_end(run: Run) -> dict:
    # Ops of one pass differ in size, so the median of one pooled list would
    # jump between configs; op_p50_s averages the per-config medians instead.
    per_config = [statistics.median(ts) for ts in run.op_times.values()]
    return {
        "setup_s": (statistics.median(run.setups), "s"),
        "wall_s": (statistics.fmean(p["wall_s"] for p in run.passes), "s"),
        "op_p50_s": (statistics.fmean(per_config), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(run: Run) -> dict:
    traced = [p for p in run.passes if p["layers"] is not None]
    rows = [derive(p["layers"]) for p in traced]
    values = {name: statistics.median(r.get(name, 0.0) for r in rows)
              for name, _ in PER_LAYER}
    values["process.cpu_s"] = statistics.median(p["cpu_s"] for p in run.passes)
    values["trace.overhead_s"] = (statistics.median(p["traced_wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in traced))
    values["trace.passes"] = len(traced)
    values["trace.absent"] = len(run.absent)
    values["ops.failed_frac"] = len(run.failures) / run.attempted
    values["probe.failed"] = sum(1 for p in run.probes if p["problems"])
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def blas_notes() -> list[dict]:
    """OpenBLAS libraries numpy and scipy load, with their thread counts."""
    import ctypes
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    notes = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                entry["threads"] = fn()
                break
        notes.append(entry)
    return notes


def machine_notes() -> dict:
    import numpy
    import scipy
    mem = open("/proc/meminfo").readline().split()
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (open(f"{index}/{f}").read().strip()
                             for f in ("level", "type", "size"))
        caches[f"L{level}{kind[0].lower()}"] = size
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": blas_notes(),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                     if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)), "ram": f"{mem[1]} {mem[2]}",
        "caches": caches, "cpu": platform.processor() or platform.machine(),
        "measured": "only this benchmark's own processes; no system-wide tracing, "
                    "cache drops or cgroup changes",
        "memory_cap_mb": CAP_MB,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ops.ROOT / "src" / "rbfbench" / "__init__.py",
                   ops.HERE / "reference.json"):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2

    run = Run()
    if args.workload == "cli_cold":
        run_cli(args.seed, args.seconds, bool(args.trace), run)
    else:
        run_workers(args.workload, args.seed, args.seconds, bool(args.trace), run)
    if not run.passes or not run.setups or not run.op_times:
        print("perfbench: no op completed; failures: " + "; ".join(run.failures),
              file=sys.stderr)
        return 1

    metrics = per_layer(run) if args.trace else end_to_end(run)
    run.notes.update(machine_notes(), workload=args.workload, seed=args.seed,
                     seconds=args.seconds, trace=args.trace, passes=len(run.passes),
                     op_counts={c: len(t) for c, t in run.op_times.items()},
                     setups=len(run.setups), failures=run.failures, probes=run.probes,
                     absent=sorted(run.absent), wrapped=len(TARGETS))
    print("notes: " + json.dumps(run.notes))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
