"""One benchmark process for an in-process workload.

    python3 perfbench/worker.py WORKLOAD SEED WORKER SECONDS TRACE

Imports rbfbench from the checkout's ``src``, runs one warm-up op (the
workload's first config), prints ``{"event": "ready"}`` just before the
first timed op, then runs passes until SECONDS would be exceeded (always at
least one; SECONDS = 0 stops after set-up).  Every op result is printed as
one JSON line as soon as it ends, so the parent can name the op that was
running if this process dies.  With TRACE = 1 each pass runs twice on the
same op seed, untraced and then traced, the traced outputs must equal the
untraced ones bit for bit, and the workload's probes run at the end.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import ops
from spans import Tracer


def emit(**event) -> None:
    print(json.dumps(event), flush=True)


def run_op(config: str, seed: int, refs: dict, want=None):
    """(seconds, summary or None, problems) of one op; never raises.

    ``want`` is the untraced output that a traced op must equal.
    """
    t0 = time.perf_counter()
    try:
        summary = ops.run_op(config, seed)
    except Exception as exc:          # an op that raises is a failed op
        traceback.print_exc()
        return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t0
    problems = ops.check_op(config, summary, refs[config][str(seed)])
    if want is not None and summary != want:
        problems.append("traced output differs from untraced output")
    return seconds, summary, problems


def timed_pass(configs, seed: int, refs: dict, want=None):
    """Run one pass, reporting each op as it ends; (wall seconds, outputs)."""
    t0 = time.perf_counter()
    outputs = []
    for i, config in enumerate(configs):
        seconds, summary, problems = run_op(config, seed, refs,
                                            want[i] if want else None)
        emit(event="op", config=config, seconds=seconds, problems=problems)
        outputs.append(summary)
    return time.perf_counter() - t0, outputs


def main(argv) -> int:
    workload, seed, worker, budget, trace = (argv[0], int(argv[1]), int(argv[2]),
                                             float(argv[3]), argv[4] == "1")
    import rbfbench
    expected = ops.ROOT / "src" / "rbfbench"
    if os.path.dirname(os.path.abspath(rbfbench.__file__)) != str(expected):
        print(f"rbfbench imported from {rbfbench.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    refs = json.loads((ops.HERE / "reference.json").read_text())[workload]
    configs = ops.WORKLOADS[workload]
    seeds = ops.pass_seeds(workload, seed, worker)
    tracer = Tracer() if trace else None

    run_op(configs[0], next(seeds), refs)         # warm-up: caches, allocator, BLAS
    emit(event="ready")
    if budget == 0:
        return 0
    start = time.perf_counter()
    passes = 0
    while True:
        op_seed = next(seeds)
        cpu0 = time.process_time()
        wall, plain = timed_pass(configs, op_seed, refs)
        cpu = time.process_time() - cpu0
        layers = traced_wall = None
        if tracer is not None:
            tracer.install()
            try:
                traced_wall, _ = timed_pass(configs, op_seed, refs, want=plain)
            finally:
                tracer.uninstall()
            layers = tracer.take()
        emit(event="pass", seed=op_seed, wall_s=wall, cpu_s=cpu, layers=layers,
             traced_wall_s=traced_wall)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > budget:
            break
    if tracer is not None:
        for config, probe_seed in ops.PROBES[workload]:
            problems = run_op(config, probe_seed, refs)[2]
            emit(event="probe", op=f"{config} seed {probe_seed}", problems=problems)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit(event="done", peak_rss_mb=rss_kb / 1024.0,
         absent=sorted(tracer.absent) if tracer else [])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
