"""The package root resolves its names lazily, and loads only what is used."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rbfbench

SUBMODULES = ("approx", "experiments", "geometry", "kernels", "polyrep", "spectral")
HEAVY = ("scipy", "sympy", "mpmath")
SRC = str(Path(rbfbench.__file__).resolve().parent.parent)


def _run_fresh(code: str, tmp_path):
    """Run code in a new interpreter; its last stdout line, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_roots(code: str, tmp_path) -> list[str]:
    """Top-level heavy packages in sys.modules after running code afresh."""
    return _run_fresh(f"{code}\nprint(json.dumps(sorted("
                      f"{{m.split('.')[0] for m in sys.modules}} & {set(HEAVY)!r})))",
                      tmp_path)


def test_every_exported_name_is_its_submodule_object():
    assert len(rbfbench.__all__) == 42
    for name in rbfbench.__all__:
        obj = getattr(rbfbench, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("rbfbench.")
        assert getattr(module, name) is obj


def test_submodule_attributes_resolve(tmp_path):
    # A fresh process: here every submodule is already imported, which
    # binds it on the package whether or not the root resolves it.
    code = ("import rbfbench\n"
            f"names = [getattr(rbfbench, n).__name__ for n in {SUBMODULES!r}]\n"
            "print(json.dumps(names))")
    assert _run_fresh(code, tmp_path) == [f"rbfbench.{n}" for n in SUBMODULES]


def test_dir_lists_exports_and_submodules():
    listed = dir(rbfbench)
    for name in (*rbfbench.__all__, *SUBMODULES, "__version__"):
        assert name in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rbfbench.no_such_name
    assert not hasattr(rbfbench, "no_such_name")


def test_star_import():
    namespace = {}
    exec("from rbfbench import *", namespace)
    for name in rbfbench.__all__:
        assert namespace[name] is getattr(rbfbench, name)


def test_import_loads_no_heavy_dependency(tmp_path):
    assert _loaded_roots("import rbfbench", tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["kernels", "table", "--d", "3", "--k", "1"],
    ["spectral", "check", "--d", "1", "--k", "1"],
    ["measure", "check", "--k", "1", "--grid", "11"],
    ["ratio-diag", "--d", "1", "--k", "1"],
])
def test_transform_commands_load_no_scipy_or_sympy(argv, tmp_path):
    out = str(tmp_path / "out.json")
    code = ("from rbfbench.cli import main\n"
            f"assert main({argv + ['--out', out]!r}) == 0")
    loaded = _loaded_roots(code, tmp_path)
    assert "scipy" not in loaded and "sympy" not in loaded
    assert "mpmath" not in loaded


def _loaded_scipy(code: str, tmp_path) -> list[str]:
    """The scipy subpackages in sys.modules after running code afresh."""
    return _run_fresh(f"{code}\nprint(json.dumps(sorted("
                      "{m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))",
                      tmp_path)


def test_ls_rate_run_loads_scipy_linalg_and_no_neighbour_search(tmp_path):
    code = ("from rbfbench.experiments import ExperimentConfig, run_rate_experiment\n"
            "run_rate_experiment(ExperimentConfig(family='wendland', d=1, k=1, levels=4, "
            "h0=0.25))")
    loaded = _loaded_scipy(code, tmp_path)
    assert "linalg" in loaded and "spatial" not in loaded


@pytest.mark.parametrize("code", [
    "from rbfbench.cli import main\n"
    "assert main(['property2', '--kernel', 'wendland', '--d', '2', '--k', '1', '--h', '0.25',"
    " '--budget', '64', '--out', 'p.json']) == 0",
    "from rbfbench.experiments import ExperimentConfig, run_rate_experiment\n"
    "run_rate_experiment(ExperimentConfig(family='sobolev', d=1, gamma=2, levels=4, "
    "h0=0.25, witness='quasi'))",
], ids=["property2_wendland", "rates_quasi"])
def test_scan_and_quasi_runs_load_no_scipy(code, tmp_path):
    assert "scipy" not in _loaded_roots(code, tmp_path)


def test_kernel_derivative_loads_no_sympy(tmp_path):
    code = ("from rbfbench.kernels import (kernel_derivative, "
            "sobolev_spline_construct, wendland_construct)\n"
            "kernel_derivative(wendland_construct(3, 2), [0.3, 0.1, -0.2], (2, 1, 0))\n"
            "kernel_derivative(sobolev_spline_construct(4, 1), [0.4], (3,))\n"
            "kernel_derivative(sobolev_spline_construct(4, 2), [0.4, 0.1], (1, 1))")
    assert "sympy" not in _loaded_roots(code, tmp_path)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_imports_match_declared_dependencies():
    import tomllib

    found = set()
    for path in Path(SRC, "rbfbench").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    third_party = found - set(sys.stdlib_module_names) - {"rbfbench"}
    project = tomllib.loads(Path(SRC).parent.joinpath("pyproject.toml").read_text())
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in
                project["project"]["dependencies"]}
    assert sorted(third_party) == sorted(declared)
