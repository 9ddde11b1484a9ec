"""Launch ``repro-service`` for the benchmark, traced or not.

Usage::

    python perfbench/serve.py [--cpu N] [--trace-out FILE] serve --store DIR ...

Everything after the launcher's own options goes to
``repro.service.cli.main`` unchanged, so traced and untraced servers
start the same way. ``--cpu`` pins the process to one CPU before the
service imports anything. With ``--trace-out`` the span wrappers of
:mod:`spans` are installed first and the recorded spans are written to
FILE after the service returns from its SIGTERM drain.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(prog="perfbench/serve.py", allow_abbrev=False)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    args, service_argv = parser.parse_known_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    recorder = None
    if args.trace_out is not None:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder, "server")
    from repro.service.cli import main as service_main

    code = service_main(service_argv)
    if recorder is not None:
        recorder.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
