"""Print the exit code and output digests of a fixed list of CLI commands.

Each command runs as ``python -m rbfbench.cli ...`` against the ``src``
tree of the checkout this script sits in, in a fresh temporary directory,
with one OpenBLAS thread: the least-squares solves, and so the ``rates``
reports, depend on the BLAS thread count.  A header line names that
setting; then one line is printed per command:

    <exit code>  <sha256 of stdout>  <sha256 of the csv, or ->  <command>

Run it in two checkouts and diff the outputs to see which reports moved:

    python tools/output_digests.py > digests.txt

To see how far they moved, save the outputs in each checkout and compare:

    python tools/output_digests.py --save old    # in the first checkout
    python tools/output_digests.py --save new    # in the second
    python tools/output_digests.py --compare old new

``--save DIR`` prints the same lines and also writes each command's stdout
(``<name>.stdout``) and CSV (``<name>.csv``) to DIR.  ``--compare A B``
prints one line per command: ``identical`` when the saved files match
byte for byte, ``missing`` when only one directory holds a file,
``text differs`` when the files differ outside their numbers or in how
many numbers they hold, and otherwise the largest relative change
|b - a| / |a| of any number, the numbers paired in the order they appear.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = "1"   # OPENBLAS_NUM_THREADS of every command

# (arguments, csv file the command writes or None)
COMMANDS = (
    ("kernels table --d 3 --k 3", None),
    ("kernels table --d 9 --k 5", None),
    ("spectral check --d 1 --k 4", None),
    ("spectral check --d 3 --k 3", None),
    ("spectral check --d 3 --k 5", None),
    ("spectral check --d 5 --k 1", None),
    ("spectral check --d 9 --k 5", None),
    ("measure check --k 2", None),
    ("measure check --k 3", None),
    ("measure check --k 5", None),
    ("ratio-diag --d 3 --k 2", None),
    ("ratio-diag --d 5 --k 1", None),
    ("property2 --kernel wendland --d 2 --k 1 --h 0.125 --csv w.csv", "w.csv"),
    # The d = 1 Wendland scan with the most far-field cancellation in |E|.
    ("property2 --kernel wendland --d 1 --k 2 --h 0.0078125 --csv w1.csv", "w1.csv"),
    ("property2 --kernel sobolev --d 1 --gamma 4 --h 0.0625 --csv s.csv", "s.csv"),
    ("property2 --kernel sobolev --d 2 --gamma 4 --h 0.125 --csv s2.csv", "s2.csv"),
    # The largest scan here: its samples of t fall in hundreds of cubes.
    ("property2 --kernel sobolev --d 2 --gamma 4 --h 0.0625 --csv s3.csv", "s3.csv"),
    ("property2 --kernel wendland --d 3 --k 1 --h 0.25 --budget 240", None),
    ("rates --kernel sobolev --gamma 2 --d 1 --p 2 --levels 4 --seed 7", None),
    ("rates --kernel wendland --k 2 --d 1 --p 2 inf --levels 5 --seed 7", None),
    ("rates --kernel sobolev --gamma 4 --d 1 --levels 5 --seed 7", None),
    ("rates --kernel sobolev --gamma 2 --d 1 --witness quasi --levels 5 --seed 7", None),
    ("rates --kernel sobolev --gamma 4 --d 1 --witness quasi --p 1 2 inf --levels 5 --seed 7",
     None),
    ("rates --kernel wendland --k 1 --d 2 --p 2 inf --levels 2 --h0 0.25 --seed 0", None),
    # The float64-floor report (exit 1), the one most sensitive to the
    # rounding of the witness evaluation.
    ("rates --kernel wendland --k 3 --d 1 --p 1 2 inf --levels 5 --seed 7", None),
    # Refused with exit 2: a cross-family order parameter (rates and
    # property2), a Wendland order k = 0 (theory rate 0), a sample budget
    # below 8 per stratum, a config file that cannot be read, and an output
    # file that cannot be written.
    ("rates --kernel wendland --d 1 --k 1 --gamma 4 --levels 2 --h0 0.25", None),
    ("rates --kernel wendland --d 1 --k 0 --levels 4", None),
    ("property2 --kernel wendland --d 1 --k 1 --gamma 4", None),
    ("property2 --kernel wendland --d 1 --k 1 --budget 0", None),
    ("rates --config missing.json", None),
    ("kernels table --d 1 --k 1 --out missing/k.json", None),
    ("rates --kernel wendland --k 1 --d 1 --levels 4 --out missing/r.json", None),
    ("property2 --kernel wendland --d 1 --k 1 --csv missing/p.csv", None),
    # Refused with exit 2: one level, which can show no decrease of the error.
    ("rates --kernel wendland --k 1 --d 1 --levels 1", None),
    # Refused with exit 2 by rate_problem: a constructive witness with no
    # synthesized source (Wendland), and a Sobolev run outside d = 1.
    ("rates --kernel wendland --k 1 --d 1 --witness quasi --levels 4", None),
    ("rates --kernel sobolev --gamma 4 --d 2 --levels 4", None),
)


# A number token: a decimal with optional exponent, or inf/nan as Python
# and JSON print them.
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN)")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stem(args: str) -> str:
    """File name stem of a command's saved outputs."""
    return re.sub(r"[^A-Za-z0-9.]+", "_", args).strip("_")


def relative_change(a: str, b: str) -> float | None:
    """Largest |y - x| / |x| over the numbers x of a and y of b, in order.

    None when the texts differ outside their numbers or hold different
    counts of numbers.  A change from 0 is infinite; NaN to NaN is none.
    """
    if _NUMBER.split(a) != _NUMBER.split(b):
        return None
    worst = 0.0
    for x, y in zip(map(float, _NUMBER.findall(a)), map(float, _NUMBER.findall(b))):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        worst = max(worst, abs(y - x) / abs(x) if x else float("inf"))
    return worst


def _verdict(args: str, dir_a: Path, dir_b: Path) -> str:
    worst = None
    for suffix in (".stdout", ".csv"):
        a, b = (Path(d, _stem(args) + suffix) for d in (dir_a, dir_b))
        if a.exists() != b.exists():
            return "missing"
        if not a.exists() or a.read_bytes() == b.read_bytes():
            continue
        change = relative_change(a.read_text(), b.read_text())
        if change is None:
            return "text differs"
        worst = max(worst or 0.0, change)
    return "identical" if worst is None else f"max rel change {worst:.3g}"


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """One line per command: how its saved outputs moved from dir_a to dir_b."""
    return [f"{_verdict(args, dir_a, dir_b)}  {args}" for args, _ in COMMANDS]


def digests(save: Path | None) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    print(f"OPENBLAS_NUM_THREADS={BLAS_THREADS}", flush=True)
    for args, csv_name in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([sys.executable, "-m", "rbfbench.cli", *args.split()],
                                  capture_output=True, cwd=tmp, env=env)
            csv_path = Path(tmp, csv_name) if csv_name else None
            csv_bytes = (csv_path.read_bytes()
                         if csv_path is not None and csv_path.exists() else None)
        csv_digest = _sha256(csv_bytes) if csv_bytes is not None else "-"
        if save is not None:
            Path(save, _stem(args) + ".stdout").write_bytes(proc.stdout)
            if csv_bytes is not None:
                Path(save, _stem(args) + ".csv").write_bytes(csv_bytes)
        print(f"{proc.returncode}  {_sha256(proc.stdout)}  {csv_digest}  {args}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--save", type=Path, metavar="DIR",
                      help="also write each command's stdout and CSV to DIR")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                      help="compare the outputs saved in A and B")
    args = parser.parse_args()
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    digests(args.save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
