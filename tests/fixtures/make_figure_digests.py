"""Write figure_digests.json: pinned SHA-256 digests of every `entkit figure`.

For each figure id the fixture pins two outputs of `cli.main`: the CSV at the
figure's default number of points, and `--format json` at `--points 7`.  The
figure bytes are the CLI's output contract, so regenerate the fixture only
when a change of figure data is intended:

    PYTHONPATH=src python tests/fixtures/make_figure_digests.py

With --check the script writes nothing: it lists the figures whose digest
moved and exits 1 if any did.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys

from entkit import cli

# (label, extra figure arguments) of each pinned output
VARIANTS = (("csv", ()), ("json_points7", ("--points", "7", "--format", "json")))


def figure_bytes(figure_id: str, extra=()) -> bytes:
    """Stdout of `entkit figure FIGURE_ID EXTRA...`; raises if the command fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["figure", figure_id, *extra])
    if code != 0:
        raise RuntimeError(f"figure {figure_id} {' '.join(extra)} exited {code}")
    return out.getvalue().encode()


def digests() -> dict:
    return {fid: {label: hashlib.sha256(figure_bytes(fid, extra)).hexdigest()
                  for label, extra in VARIANTS}
            for fid in sorted(cli.FIGURES)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute the digests, print each id whose digest moved and "
                             "exit 1 if any did; write nothing")
    args = parser.parse_args(argv)
    table = digests()
    path = pathlib.Path(__file__).with_name("figure_digests.json")
    if args.check:
        pinned = json.loads(path.read_text())
        moved = sorted(key for key in pinned.keys() | table.keys()
                       if pinned.get(key) != table.get(key))
        print("\n".join(moved + [f"{len(moved)} of {len(table)} figures moved"]))
        return 1 if moved else 0
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} figures to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
