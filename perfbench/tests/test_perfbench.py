"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import ops
import run
import spans
from spans import Target, Tracer


def test_traced_and_untraced_ops_give_identical_outputs():
    plain = ops.run_op("sobolev_g2_quasi", 3)
    tracer = Tracer()
    tracer.install()
    try:
        traced = ops.run_op("sobolev_g2_quasi", 3)
    finally:
        tracer.uninstall()
    assert traced == plain
    stats = spans.derive(tracer.take())
    assert stats["experiments.levels"] == 5
    assert stats["geometry.make_quasi_uniform.calls"] == 5
    assert stats["polyrep.cube_map.calls"] >= stats["polyrep.cube_map.builds"] > 0
    assert stats["kernels.profile.nonzero_frac"] == 1.0
    assert not tracer.absent
    assert ops.run_op("sobolev_g2_quasi", 3) == plain      # originals restored


def test_traced_cli_output_is_byte_identical():
    env = run.child_env()
    argv = ops.CLI_OPS["spectral_d1_k4"]
    plain = subprocess.run([sys.executable, "-m", "rbfbench.cli", *argv], env=env,
                           cwd=ops.ROOT, capture_output=True, text=True)
    traced = subprocess.run(ops.cli_argv("spectral_d1_k4", 0, traced=True), env=env,
                            cwd=ops.ROOT, capture_output=True, text=True)
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    tail = traced.stderr.strip().splitlines()[-1]
    stats = json.loads(tail[len("perfbench-spans "):])["stats"]
    assert stats["cli.main.calls"] == 1
    assert stats["spectral.hankel_oracle.calls"] > 0


def test_removed_names_are_reported_absent_not_raised():
    targets = (
        Target("approx.gone", "rbfbench.approx", "no_such_function"),
        Target("gone.module", "rbfbench.no_such_module", "f"),
        Target("geometry.gone", "rbfbench.geometry", "PointSet.no_such_method"),
        Target("approx.lstsq", "rbfbench.approx", "lstsq",
               hook=lambda tr, args, result: result.no_such_field),
    )
    tracer = Tracer(targets)
    tracer.install()
    try:
        summary = ops.run_op("wendland_k2_ls", 1)
    finally:
        tracer.uninstall()
    assert len(tracer.absent) == 4
    assert summary == ops.run_op("wendland_k2_ls", 1)
    stats = spans.derive(tracer.take())
    assert stats["approx.lstsq.calls"] == 5
    assert "approx.gone.calls" not in stats


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = Tracer(targets=(), clock=lambda: next(ticks))
    with tracer.span("outer"):              # 0 .. 10
        with tracer.span("inner"):          # 1 .. 4, of which 2 .. 3 is a child
            with tracer.span("leaf"):
                pass
        with tracer.span("inner"):          # 5 .. 6
            pass
    stats = tracer.take()
    assert stats["outer.s"] == 10.0
    assert stats["outer.self_s"] == 10.0 - 3.0 - 1.0
    assert stats["inner.calls"] == 2
    assert stats["inner.s"] == 4.0
    assert stats["inner.self_s"] == (3.0 - 1.0) + 1.0
    assert stats["leaf.self_s"] == 1.0


def test_hook_time_is_excluded_from_spans():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(targets=(), clock=lambda: next(ticks))
    target = Target("inner", "m", "f", hook=lambda tr, args, result: None)
    inner = tracer._wrap(target, lambda: None)
    with tracer.span("outer"):              # 0 .. 5; inner 1 .. 2; hook 3 .. 4
        inner()
    stats = tracer.take()
    assert stats["outer.s"] == 5.0
    assert stats["outer.self_s"] == 5.0 - 1.0 - 1.0


def test_same_seed_gives_same_inputs():
    def inputs(seed):
        seeds = [list(itertools.islice(ops.pass_seeds("rates_1d", seed, w), 12))
                 for w in range(run.SETUPS)]
        argv = [ops.cli_argv(c, s[0], False) for c in ops.WORKLOADS["cli_cold"]
                for s in seeds]
        return seeds, argv

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)
    assert set(inputs(11)[0][0]) <= set(ops.pool("rates_1d"))
    assert 10 not in ops.pool("rates_1d")


def test_checks_catch_nan_and_broken_solve():
    ref = {"error_p2": {"errors": [2.75e-2, 6e-3], "fitted_rate": None,
                        "theory_rate": 2.0, "passed": True}}

    def with_errors(errors):
        return {"error_p2": dict(ref["error_p2"], errors=errors,
                                 passed=errors[-1] < errors[0])}

    assert ops.check_rate(with_errors([3.12e-2, 6.5e-3]), ref) == []
    assert ops.check_rate(with_errors([math.nan, 6e-3]), ref)
    assert ops.check_rate(with_errors([0.2, 0.1]), ref)           # solve gave ~f
    assert ops.check_scan({"c_emp": math.inf, "samples": 10},
                          {"c_emp": 20.0, "samples": 10})


def test_benchmark_json_names_match_reported_metrics():
    spec = json.loads((ops.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    fake = run.Run()
    fake.setups, fake.op_times, fake.peak_rss_mb = [1.0], {"a": [1.0]}, 100.0
    fake.passes = [{"wall_s": 1.0}]
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == {k: unit for k, (_, unit) in run.end_to_end(fake).items()})
    assert {w["name"] for w in spec["workloads"]} <= set(ops.WORKLOADS)


def test_refuses_without_the_library(tmp_path):
    shutil.copytree(ops.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ops.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rates_1d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("config", [*ops.RATE_OPS, *ops.SCAN_OPS])
def test_reference_has_every_pool_seed(config):
    ref = json.loads((ops.HERE / "reference.json").read_text())
    workload = next(w for w, cs in ops.WORKLOADS.items() if config in cs)
    assert sorted(ref[workload][config], key=int) == [str(s) for s in range(ops.POOL)]
