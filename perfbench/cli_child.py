"""A fresh process for one cli_cold op that is not a plain CLI call.

    python3 perfbench/cli_child.py [--trace] cli ARGS...   traced `rbfbench ARGS`
    python3 perfbench/cli_child.py [--trace] young SEED    Young-inequality trials

With --trace, spans are installed before the command runs and their
counters are written to stderr as one final line starting with SPANS_TAG.
The command's own stdout and exit code are left as they are.
"""

from __future__ import annotations

import json
import sys

SPANS_TAG = "perfbench-spans "


def main(argv) -> int:
    traced = argv[0] == "--trace"
    if traced:
        argv = argv[1:]
    tracer = None
    if traced:
        import rbfbench  # noqa: F401  (load every module before wrapping)
        import rbfbench.cli  # noqa: F401
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        if argv[0] == "young":
            import ops
            print(json.dumps(ops.young_op(int(argv[1]))))
            code = 0
        else:
            from rbfbench import cli
            code = cli.main(argv[1:])
    finally:
        if tracer is not None:
            tracer.uninstall()
            sys.stdout.flush()
            print(SPANS_TAG + json.dumps({"stats": tracer.take(),
                                          "absent": sorted(tracer.absent)}),
                  file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
