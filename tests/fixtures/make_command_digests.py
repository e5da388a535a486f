"""command_digests.json: pinned SHA-256 digests of `entkit measure` and
`entkit protocol` commands.

Each digest covers the exit code, stdout and stderr of one `cli.main` call:
every measure kind on a fixed set of state specs (named families, Bell
states and seeded random matrices written to a temporary directory), the
usage errors of `measure --restarts` and `measure --seed`, every CDC
family with and without `--montecarlo`, and secret-share runs at several
c^2.  These bytes are the CLI's output contract.  `pin.py` writes and
checks the file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import numpy as np

import util  # tests/util.py: the Ginibre state generator
from entkit import cli

# name -> (dims, seed, rank) of each random matrix file, drawn from default_rng(seed)
MATRICES = {
    "pure_2x2": ((2, 2), 1, 1),
    "pure_2x3": ((2, 3), 2, 1),
    "mixed_2x2": ((2, 2), 3, 4),
    "rank2_2x2": ((2, 2), 4, 2),
    "mixed_3x3": ((3, 3), 5, 9),
}

STATES = (
    "werner:F=0.75", "werner:F=0.3", "mjwk:C=0.5", "mjwk:C=0.8",
    "wei:x=0.1,y=0.1,a=0.2,b=0.2,gamma=0.4", "werner_derivative:F=0.8,a=0.7",
    "nmems:p=0.2", "ih_mems:p1=0.4,p2=0.3,p3=0.2,p4=0.1", "cloned_mems:c2=0.3",
    "cloned_mems:c2=0.9", "bell:1", "bell:4", "gme:n=3", "pati:l=0.5",
    *(f"matrix:{{dir}}/{name}.json" for name in MATRICES),
)

THETA = "0.6"
CDC = (
    ("--family", "ghz", "--theta", THETA),
    ("--family", "ghz", "--theta", "1.1", "--outcome", "-", "--aux", "1"),
    *(("--family", "ghz_class", "--class-index", str(k), "--theta", THETA)
      for k in range(1, 8)),
    ("--family", "pati", "--l", "0.5"),
    ("--family", "pati", "--l", "2", "--theta", THETA, "--outcome", "-"),
    ("--family", "ghz4", "--theta", THETA, "--epsilon", "0.5", "--outcome", "+-"),
    ("--family", "ghz4", "--theta", "0", "--epsilon", "0", "--outcome", "+-"),
    ("--family", "w3", "--theta", THETA),
    ("--family", "w4", "--theta", "1.0", "--epsilon", "1.0", "--outcome=-+"),
    ("--family", "liqiu_w", "--n", "3", "--outcome", "1"),
    ("--family", "qutrit_ghz", "--theta", "0.9"),
    ("--family", "qutrit_ghz", "--theta", "1.2", "--outcome", "down"),
    ("--family", "qutrit_ghz", "--theta", "1.2", "--outcome", "down", "--aux", "1"),
    ("--family", "qutrit_ghz", "--theta", "1.2", "--outcome", "side"),
)


def _write_matrices(directory: pathlib.Path) -> None:
    for name, (dims, seed, rank) in MATRICES.items():
        m = util.random_density(np.random.default_rng(seed), dims, rank=rank).matrix
        entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
        (directory / f"{name}.json").write_text(json.dumps({"dims": dims, "entries": entries}))


def commands() -> list:
    """The argument list of every pinned command; {dir} marks the matrix directory."""
    out = []
    for state in STATES:
        for kind in cli.MEASURES:
            out.append(("measure", "--state", state, "--kind", kind))
    # measure reads no seed or restarts: both are usage errors (exit 2)
    for option in (("--restarts", "0"), ("--seed", "1")):
        out.append(("measure", "--state", "gme:n=3", "--kind", "singlet_fraction", *option))
    out.append(("measure", "--state", "matrix:{dir}/mixed_3x3.json", "--kind", "entropy_vn",
                "--base", "3"))
    for args in CDC:
        out.append(("protocol", "cdc", *args))
        out.append(("protocol", "cdc", *args, "--montecarlo", "1000", "--seed", "7"))
    for c2 in ("0.5", "0.6666666666666666", "0.8", "0.95", "1", "0.3"):
        for bit, outcome in (("0", "+"), ("1", "-")):
            out.append(("protocol", "secret-share", "--c2", c2, "--charlie-bit", bit,
                        "--alice-outcome", outcome))
        out.append(("protocol", "secret-share", "--c2", c2, "--montecarlo", "1000",
                    "--seed", "7"))
    return out


def command_bytes(argv, directory: pathlib.Path) -> bytes:
    """Exit code, stdout and stderr of `entkit ARGV` as one byte string."""
    argv = [a.replace("{dir}", str(directory)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()


def digests() -> dict:
    """Digest of every command, keyed by its argument list joined with spaces."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        _write_matrices(directory)
        return {" ".join(argv): hashlib.sha256(command_bytes(argv, directory)).hexdigest()
                for argv in commands()}
