"""Start ``repro serve`` for the `serve` workload.

Usage: ``python perfbench/serve_launcher.py [--trace-out PATH] -- <repro args>``

With ``--trace-out`` the launcher installs the same layer wrappers as
the traced child processes before it calls ``repro.cli.main``, and
writes their spans and the registry readings once the server has
drained.  Without it the server runs exactly as the CLI would start it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import layers  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args
    if repro_args[:1] == ["--"]:
        repro_args = repro_args[1:]
    recorder = layers.Recorder().install() if args.trace_out else None
    from repro.cli import main as repro_main

    code = repro_main(repro_args)
    if recorder is not None:
        recorder.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
