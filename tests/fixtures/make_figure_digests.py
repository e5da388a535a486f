"""figure_digests.json: pinned SHA-256 digests of every `entkit figure`.

For each figure id the fixture pins two outputs of `cli.main`: the CSV at the
figure's default number of points, and `--format json` at `--points 7`.  The
figure bytes are the CLI's output contract.  `pin.py` writes and checks the
file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io

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
