"""Record the reference outputs that every benchmark op is checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference, and only there: the point of the file is that later commits are
compared with it.  It runs every in-process op on every pool seed and every
CLI op once, writes ``perfbench/reference.json``, and prints each output
that already fails its own gate, so that such a case is seen, not stored.
"""

from __future__ import annotations

import json
import subprocess
import sys

import ops


def main() -> int:
    ref: dict = {}
    bad = []
    for workload, configs in ops.WORKLOADS.items():
        if workload == "cli_cold":
            continue
        ref[workload] = {}
        for config in configs:
            ref[workload][config] = {}
            for seed in range(ops.POOL):
                summary = ops.run_op(config, seed)
                ref[workload][config][str(seed)] = summary
                problems = ops.check_op(config, summary, summary)
                if problems:
                    bad.append(f"{workload} {config} seed {seed}: {problems}")
                print(workload, config, seed, flush=True)
    ref["cli_cold"] = {}
    for config in ops.WORKLOADS["cli_cold"]:
        argv = ops.cli_argv(config, 0, traced=False)
        proc = subprocess.run(argv, cwd=ops.ROOT, capture_output=True, text=True,
                              check=True)
        payload = json.loads(proc.stdout)
        view = ops.cli_reference_view(config, payload)
        if view is not None:
            ref["cli_cold"][config] = view
        problems = ops.check_cli(config, payload, view)
        if problems:
            bad.append(f"cli_cold {config}: {problems}")
    for seed in range(ops.POOL):
        problems = ops.check_cli("young_k2", ops.young_op(seed), None)
        if problems:
            bad.append(f"cli_cold young_k2 seed {seed}: {problems}")
    (ops.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    for line in bad:
        print("FAILS ITS GATE:", line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
