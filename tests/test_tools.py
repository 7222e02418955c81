"""tools/output_digests.py: its command list, and its compare step on tiny saved outputs."""

import importlib.util
import shlex
from pathlib import Path

import pytest

from rbfbench.cli import build_parser

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
