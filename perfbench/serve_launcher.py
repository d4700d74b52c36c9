"""Traced daemon launcher: install the benchmark's span wrappers, then run
the CLI's ``serve`` entry point unchanged.

    python3 perfbench/serve_launcher.py --trace-out PATH -- serve ARGS...

When the daemon drains and returns (SIGTERM), the span tape is written
to ``PATH`` together with the time the program's import took.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="arguments for 'python -m repro' after --")
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    t0 = time.perf_counter()
    from repro.cli import main as cli_main
    import_s = time.perf_counter() - t0

    import probes
    from spans import Tracer

    tracer = Tracer()
    probes.install(tracer)
    try:
        return cli_main(cli_args)
    finally:
        tracer.write(args.trace_out, import_s=import_s)


if __name__ == "__main__":
    raise SystemExit(main())
