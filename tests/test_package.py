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


# The public surface, name by name: a change that adds or drops a name
# edits this set.
PUBLIC = {
    "Box", "ExperimentConfig", "ExperimentReport", "FiniteMeasure", "Level",
    "LocalPolyBuilder", "PartialFractionTable", "PiecewisePolyRadial", "PointSet",
    "SmoothBump", "SobolevSpline", "TestFunction", "amplitude_from_moments",
    "build_measure_1d", "evaluate_combination", "f_m_eval", "fill_distance",
    "fit_rate", "hankel_oracle", "kernel_K", "lp_error", "ls_witness",
    "make_quasi_uniform", "measure_convolve", "measure_ft", "partial_fractions",
    "property2_scan", "quasi_interpolant", "rate_levels", "ratio_diagnostic",
    "run_rate_experiment", "separation_radius", "sobolev_spline_construct",
    "synth_test_function", "wendland_construct", "wendland_hat",
}


def test_every_exported_name_is_its_submodule_object():
    assert set(rbfbench.__all__) == PUBLIC
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
    ["measure", "check", "--k", "1"],
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
    """The scipy modules in sys.modules after running code afresh."""
    return _run_fresh(f"{code}\nprint(json.dumps(sorted("
                      "m for m in sys.modules if m.split('.')[0] == 'scipy')))",
                      tmp_path)


def test_ls_rate_run_loads_only_scipy_lapack_module(tmp_path):
    code = ("from rbfbench.experiments import ExperimentConfig, run_rate_experiment\n"
            "run_rate_experiment(ExperimentConfig(family='wendland', d=1, k=1, levels=4, "
            "h0=0.25))")
    assert _loaded_scipy(code, tmp_path) == ["scipy.linalg._flapack"]


# Records the threads that import numpy starts (its BLAS workers), runs a
# warm-up ls rate run and a second one, and prints how many workers there
# are and the CPU ticks (utime + stime) they gained during the second run.
_NUMPY_WORKER_TICKS = """
import os

def ticks():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        out[tid] = int(fields[11]) + int(fields[12])
    return out

before = set(os.listdir("/proc/self/task"))
import numpy
workers = set(os.listdir("/proc/self/task")) - before
from rbfbench.experiments import ExperimentConfig, run_rate_experiment

def run(seed):
    run_rate_experiment(ExperimentConfig(family="wendland", d=1, k=2, levels=5, seed=seed))

run(3)
start = ticks()
run(7)
end = ticks()
print(json.dumps([len(workers), sum(end[w] - start[w] for w in workers)]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_ls_rate_run_leaves_numpy_blas_workers_idle(tmp_path):
    # numpy and scipy each load their own OpenBLAS.  The witness is
    # evaluated without BLAS, so during an ls run only scipy's solve
    # threads work, and numpy's idle workers do not spin against them.
    # The first run in a process may wake them, hence the warm-up run.
    n_workers, gained = _run_fresh(_NUMPY_WORKER_TICKS, tmp_path)
    if n_workers == 0:
        pytest.skip("import numpy started no BLAS worker threads")
    assert gained == 0


# Solves an overdetermined rank-deficient system (60 x 20 of rank 12) and
# an underdetermined one (15 x 40) with approx.lstsq, then compares each
# with scipy.linalg.lstsq by gelsd: x bit for bit, and the rank.
_SOLVES = """
import numpy as np
from rbfbench import approx

EPS = float(np.finfo(float).eps)
rng = np.random.default_rng(5)
systems = [rng.standard_normal((60, 12)) @ rng.standard_normal((12, 20)),
           rng.standard_normal((15, 40))]
systems = [(A, rng.standard_normal(len(A))) for A in systems]

def solve_all():
    return [approx.lstsq(np.array(A, order="F"), b) for A, b in systems]

def same_as_scipy(solved):
    import scipy.linalg
    expected = [scipy.linalg.lstsq(A, b, cond=EPS, lapack_driver="gelsd")
                for A, b in systems]
    return [x.tobytes() == xs.tobytes() and rank == rs and rank == rank_wanted
            for (x, rank), (xs, _, rs, _), rank_wanted in zip(solved, expected, (12, 15))]
"""


def test_lapack_module_is_shared_with_a_later_scipy_linalg(tmp_path):
    code = (_SOLVES +
            "solved = solve_all()\n"
            "direct = 'scipy' not in sys.modules\n"
            "import scipy.linalg\n"
            "A = systems[0][0]\n"
            "shared = (scipy.linalg.get_lapack_funcs(('gelsd',), (A,))[0]\n"
            "          is sys.modules['scipy.linalg._flapack'].dgelsd)\n"
            "print(json.dumps([direct, shared, same_as_scipy(solved)]))")
    assert _run_fresh(code, tmp_path) == [True, True, [True, True]]


def test_lapack_module_is_scipy_linalgs_when_imported_first(tmp_path):
    code = ("import scipy.linalg\n" + _SOLVES +
            "shared = approx._flapack() is sys.modules['scipy.linalg._flapack']\n"
            "print(json.dumps([shared, same_as_scipy(solve_all())]))")
    assert _run_fresh(code, tmp_path) == [True, [True, True]]


def _fail_exec_once(error: str) -> str:
    """Code that makes the first run of the LAPACK module raise error."""
    return ("exec_module = importlib.machinery.ExtensionFileLoader.exec_module\n"
            "failed = []\n"
            "def fail_once(self, module):\n"
            "    if module.__name__ == 'scipy.linalg._flapack' and not failed:\n"
            "        failed.append(module)\n"
            f"        raise {error}('refused')\n"
            "    return exec_module(self, module)\n"
            "importlib.machinery.ExtensionFileLoader.exec_module = fail_once\n")


@pytest.mark.parametrize("miss", [
    # No extension suffix to look for: the file lookup finds nothing.
    "importlib.machinery.EXTENSION_SUFFIXES = []\n",
    # scipy's folder holds an empty file in place of the extension, so
    # creating the module raises ImportError.
    "import importlib.util, pathlib\n"
    "fake = pathlib.Path('fake', 'linalg').resolve()\n"
    "fake.mkdir(parents=True)\n"
    "fake.joinpath('_flapack' + importlib.machinery.EXTENSION_SUFFIXES[0]).touch()\n"
    "find_spec = importlib.util.find_spec\n"
    "def fake_spec(name, package=None):\n"
    "    if name != 'scipy':\n"
    "        return find_spec(name, package)\n"
    "    spec = importlib.machinery.ModuleSpec('scipy', None, is_package=True)\n"
    "    spec.submodule_search_locations = [str(fake.parent)]\n"
    "    return spec\n"
    "importlib.util.find_spec = fake_spec\n",
    # The module is created and registered, and then running it raises
    # ImportError, once.
    _fail_exec_once("ImportError"),
], ids=["no_file", "unloadable_file", "exec_fails"])
def test_lapack_module_falls_back_to_the_ordinary_import(miss, tmp_path):
    code = ("import importlib.machinery\n" + miss + _SOLVES +
            "solved = solve_all()\n"
            "ordinary = 'scipy.linalg' in sys.modules\n"
            "module = sys.modules['scipy.linalg._flapack']\n"
            "import scipy.linalg.lapack\n"
            "lost = globals().get('failed', [])\n"
            "print(json.dumps([ordinary, scipy.linalg.lapack._flapack is module,\n"
            "                  all(m is not module for m in lost), approx._flapack() is module,\n"
            "                  same_as_scipy(solved)]))")
    assert _run_fresh(code, tmp_path) == [True, True, True, True, [True, True]]


def test_lapack_module_load_that_fails_otherwise_leaves_no_entry(tmp_path):
    code = ("import importlib.machinery\n" + _fail_exec_once("RuntimeError") + _SOLVES +
            "try:\n"
            "    approx._flapack()\n"
            "except RuntimeError:\n"
            "    left = 'scipy.linalg._flapack' in sys.modules\n"
            "solved = solve_all()\n"
            "print(json.dumps([left, 'scipy' in sys.modules, failed[0] is approx._flapack(),\n"
            "                  same_as_scipy(solved)]))")
    assert _run_fresh(code, tmp_path) == [False, False, False, [True, True]]


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


def test_no_module_imports_a_name_it_never_uses():
    # Moved code leaves unused imports behind.  A name counts as used where
    # it is read, or where a string holds it (__all__, a quoted annotation).
    unused = []
    for path in sorted(Path(SRC, "rbfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []
