"""Run one entkit CLI command with the benchmark's tracer installed.

Usage: python perfbench/trace_cli.py SPANS_FILE ARG...   (with src/ on PYTHONPATH)

Imports the package, wraps its layers, calls `cli.main(ARG...)`, writes the
spans to SPANS_FILE and exits with the command's exit code.
"""
import sys

import entkit.cli

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return entkit.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write_jsonl(spans_path, {"argv": argv})


if __name__ == "__main__":
    sys.exit(main())
