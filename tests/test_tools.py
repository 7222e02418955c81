"""tools/output_digests.py: its command list, and its compare step on tiny saved
outputs; tools/convolve_accuracy.py: the accuracy it reports."""

import importlib.util
import shlex
from pathlib import Path

import pytest

from rbfbench.cli import build_parser

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digests():
    return _load("output_digests")


def _save(digests, root, outputs):
    root.mkdir()
    for args, (stdout, csv) in outputs.items():
        Path(root, digests._stem(args) + ".stdout").write_text(stdout)
        if csv is not None:
            Path(root, digests._stem(args) + ".csv").write_text(csv)


def test_compare_reports_identical_moved_and_changed_text(digests, tmp_path):
    same, moved, text = (args for args, _ in digests.COMMANDS[12:15])
    _save(digests, tmp_path / "a", {
        same: ('{"h": 0.125, "C_emp": 56.5}\n', "x,abs_E\n0.5,1e-3\n"),
        moved: ('{"h": 0.0078125, "C_emp": 3442.0}\n', "x,abs_E\n0.25,2.0e-4\n"),
        text: ('{"kernel": "sobolev", "C_emp": 1374}\n', None),
    })
    _save(digests, tmp_path / "b", {
        same: ('{"h": 0.125, "C_emp": 56.5}\n', "x,abs_E\n0.5,1e-3\n"),
        moved: ('{"h": 0.0078125, "C_emp": 3442.0}\n', "x,abs_E\n0.25,2.002e-4\n"),
        text: ('{"kernel": "wendland", "C_emp": 1374}\n', None),
    })
    lines = dict(line.split("  ", 1)[::-1]
                 for line in digests.compare(tmp_path / "a", tmp_path / "b"))
    assert len(lines) == len(digests.COMMANDS)
    assert lines[same] == "identical"
    assert lines[moved] == "max rel change 0.001"
    assert lines[text] == "text differs"


def test_compare_exits_1_unless_every_line_is_identical(digests, tmp_path, capsys):
    args = digests.COMMANDS[12][0]
    _save(digests, tmp_path / "a", {args: ('{"C_emp": 56.5}\n', "x\n0.5\n")})
    _save(digests, tmp_path / "b", {args: ('{"C_emp": 56.5}\n', "x\n0.5\n")})
    _save(digests, tmp_path / "c", {args: ('{"C_emp": 56.5}\n', "x\n0.505\n")})
    a, b, c = (str(tmp_path / name) for name in "abc")
    assert digests.main(["--compare", a, b]) == 0
    assert capsys.readouterr().out.count("identical  ") == len(digests.COMMANDS)
    assert digests.main(["--compare", a, c]) == 1
    assert f"max rel change 0.01  {args}" in capsys.readouterr().out


def test_relative_change_pairs_numbers_in_order(digests):
    assert digests.relative_change("a 1.0 b 2", "a 1.0 b 2") == 0.0
    assert digests.relative_change("1.0, 2.0", "1.0, 2.002") == pytest.approx(1e-3)
    assert digests.relative_change("-4e-3 inf nan", "-4.0e-3 inf nan") == 0.0
    assert digests.relative_change("0.0", "1e-300") == float("inf")
    assert digests.relative_change("[1, 2]", "[1, 2, 3]") is None
    assert digests.relative_change("p 2", "q 2") is None


def test_every_digest_command_parses(digests):
    # A digest line cannot tell argparse's exit 2 from a refusal's exit 2,
    # so a flag removed from the CLI must fail here, not in the digests.
    parser = build_parser()
    for args, csv in digests.COMMANDS:
        argv = shlex.split(args)
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"rbfbench {args!r} does not parse")
        if csv is not None:
            assert "--csv" in argv and argv[argv.index("--csv") + 1] == csv, args


def test_convolve_accuracy_reports_the_fixed_rule_within_its_stated_error(capsys):
    # measure_convolve's docstring states what this measures: rounding
    # level for a smooth f, below 3e-4 for the piecewise-linear trials.
    _load("convolve_accuracy").main(["--k", "1", "--seeds", "2"])
    lines = capsys.readouterr().out.splitlines()[1:]
    errors = {line.split("  ", 1)[1].rsplit(" ", 1)[0].strip(): float(line.rsplit(" ", 1)[1])
              for line in lines}
    assert list(errors) == ["gaussian", "piecewise-linear seed 0", "piecewise-linear seed 1"]
    assert errors["gaussian"] < 1e-12
    assert all(1e-7 < errors[f"piecewise-linear seed {seed}"] < 3e-4 for seed in (0, 1))
