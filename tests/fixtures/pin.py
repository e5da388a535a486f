"""Write, or with --check compare, the six pinned output fixtures.

Each pin is a JSON file in this directory and the function of a `make_*`
module that computes it.  Every file has one layout, `dump`'s, and stores a
float as a JSON number: the shortest repr that reads back to the same float,
so a move of one ulp shows.  Rewrite the files only when a change of output
is intended, and list every moved value:

    PYTHONPATH=src python tests/fixtures/pin.py

With --check the tool writes nothing.  It prints each value that moved, by
its path, with new - old where both sides are floats, then one count line
per pin, and for fef_values.json the largest fall (min new - old) and the
number of values that fell by more than make_fef_values.FLOOR_GATE, which a
re-pin needs to be 0.  It exits 1 if any value moved.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # tests/: util and the fixtures modules

from fixtures import (make_cdc_reports, make_channel_reports, make_command_digests,  # noqa: E402
                      make_fef_values, make_figure_digests, make_secret_share_reports)

# file -> the function that computes its contents
PINS = {
    "cdc_reports.json": make_cdc_reports.table,
    "channel_reports.json": make_channel_reports.table,
    "command_digests.json": make_command_digests.digests,
    "fef_values.json": make_fef_values.table,
    "figure_digests.json": make_figure_digests.digests,
    "secret_share_reports.json": make_secret_share_reports.table,
}

ABSENT = object()


def dump(tree) -> str:
    """The text of a pin file that holds the JSON tree `tree`."""
    return json.dumps(tree, indent=1, sort_keys=True) + "\n"


def computed(name: str):
    """The JSON tree that the pin file `name` should hold, as its text reads back."""
    return json.loads(json.dumps(PINS[name](), default=float))


def _leaves(tree, path=()) -> dict:
    """path -> leaf of a JSON tree; an empty list or dict is a leaf.  A list
    entry is named by its index, and by its call and kwargs where it has them."""
    if isinstance(tree, dict) and tree:
        children = tree.items()
    elif isinstance(tree, list) and tree:
        children = ((f"[{i}]" + (f" {v['call']} {json.dumps(v['kwargs'], sort_keys=True)}"
                                 if isinstance(v, dict) and "call" in v else ""), v)
                    for i, v in enumerate(tree))
    else:
        return {path: tree}
    leaves = {}
    for key, child in children:
        leaves.update(_leaves(child, path + (key,)))
    return leaves


def _text(leaf) -> str:
    return "absent" if leaf is ABSENT else json.dumps(leaf)


def _changes(old, new) -> list:
    """(path, old leaf, new leaf) of each leaf whose JSON text differs, with
    ABSENT for the side that lacks it."""
    a, b = _leaves(old), _leaves(new)
    pairs = ((path, a.get(path, ABSENT), b.get(path, ABSENT)) for path in {**a, **b})
    return [(path, x, y) for path, x, y in pairs if _text(x) != _text(y)]


def moved(old, new) -> list:
    """One line per leaf of `old` or `new` that differs: its path, old -> new,
    and new - old where both are floats."""
    lines = []
    for path, a, b in _changes(old, new):
        change = f" (new - old = {b - a:+.3g})" if type(a) is float and type(b) is float else ""
        lines.append(f"{' / '.join(path)}: {_text(a)} -> {_text(b)}{change}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute every pin, print each value that moved and exit 1 if "
                             "any did; write nothing")
    args = parser.parse_args(argv)
    count = 0
    for name in PINS:
        new, path = computed(name), HERE / name
        if not args.check:
            path.write_text(dump(new))
            print(f"wrote {len(_leaves(new))} values to {path}")
            continue
        old = json.loads(path.read_text())
        lines = moved(old, new)
        count += len(lines)
        print("\n".join(lines + [f"{name}: {len(lines)} of {len(_leaves(new))} values moved"]))
        if name == "fef_values.json":
            falls = [b - a for _, a, b in _changes(old, new)
                     if type(a) is float and type(b) is float]
            gate = make_fef_values.FLOOR_GATE
            print(f"{name}: largest fall (min new - old) {min(falls, default=0.0):+.3g}; "
                  f"{sum(f < -gate for f in falls)} fell by more than {gate:g}")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
