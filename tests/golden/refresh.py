#!/usr/bin/env python3
"""Regenerate the golden CSV/JSON fixtures from the checked-in configs.

Run from anywhere: python tests/golden/refresh.py [--check]
Each ``configs/<name>.cfg`` runs the command named by the part of
``<name>`` before its first ``_`` (``survival_regimes.cfg`` runs
``survival``) and writes ``expected/<name>.csv`` and ``<name>.json``.
Only refresh on purpose; the regression test compares bytes.  For every
fixture it prints whether the file changed and, if it did, the largest
absolute deviation between numbers at the same place in the old and the
new file, where it sits (a JSON path, or a CSV row and column, the
header being row 0) and its size relative to the old value, then the
largest deviation relative to the old value and where that sits (an old
value 0 has none), plus the places that appeared, disappeared or changed
in something other than a number.

With --check the fixtures are regenerated into a temporary directory and
only the report is printed: ``expected/`` is left as it is, and the exit
code is 1 when any fixture would change.
"""

import argparse
import csv
import json
import tempfile
from pathlib import Path

from gamow_thermo.cli import main as cli_main

HERE = Path(__file__).resolve().parent


def _leaves(path: Path, text: str) -> dict:
    """Leaf values keyed by place: JSON paths, or (row, column) of a CSV,
    the column named by the header's cell."""
    if path.suffix != ".json":
        rows = list(csv.reader(text.splitlines()))
        return {(i, name): cell for i, row in enumerate(rows)
                for name, cell in zip(rows[0], row)}
    out = {}

    def walk(node, key):
        items = (node.items() if isinstance(node, dict) else
                 enumerate(node) if isinstance(node, list) else None)
        if items is None:
            out[key] = node
            return
        for k, v in items:
            walk(v, key + (k,))

    walk(json.loads(text), ())
    return out


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def compare(path: Path, old: str | None, new: str) -> str:
    """One line on how ``new`` differs from ``old`` (None: no old file)."""
    if old is None:
        return "new"
    if old == new:
        return "unchanged"
    before, after = _leaves(path, old), _leaves(path, new)
    # (size, place, old value) of the largest absolute and relative moves
    absolute = relative = (0.0, (), 0.0)
    other = 0
    for key, value in before.items():
        if key not in after:
            continue
        x, y = _number(value), _number(after[key])
        if x is None or y is None:
            if value != after[key]:
                other += 1
            continue
        if abs(x - y) > absolute[0]:
            absolute = (abs(x - y), key, x)
        if x and abs(x - y) / abs(x) > relative[0]:
            relative = (abs(x - y) / abs(x), key, x)

    def at(key):
        return " at " + ("/".join(map(str, key)) if path.suffix == ".json"
                         else f"row {key[0]}, column {key[1]}")

    deviation, key, x = absolute
    where = (f"{at(key)} (old value {x:.3g}, relative "
             f"{deviation / abs(x):.2g})" if x else
             f"{at(key)} (old value 0)") if deviation else ""
    share, key, x = relative
    where_rel = f"{at(key)} (old value {x:.3g})" if share else ""
    return (f"changed: largest numeric deviation {deviation:.3g}{where}, "
            f"largest relative deviation {share:.2g}{where_rel}, "
            f"{len(after.keys() - before.keys())} places added, "
            f"{len(before.keys() - after.keys())} removed, "
            f"{other} other values changed")


def regenerate(target: Path) -> int:
    """Run every golden config, writing its fixtures into ``target``;
    returns the first nonzero exit code, else 0."""
    for cfg in sorted((HERE / "configs").glob("*.cfg")):
        command = cfg.stem.split("_")[0]
        out = target / f"{cfg.stem}.csv"
        code = cli_main([command, "--config", str(cfg), "--out", str(out),
                         "--quiet"])
        if code != 0:
            print(f"[x] {cfg.name} exited {code}")
            return code
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="report against expected/ without writing it; "
                             "exit 1 if any fixture would change")
    args = parser.parse_args(argv)
    expected = HERE / "expected"
    expected.mkdir(exist_ok=True)
    old = {p.name: p.read_text() for p in expected.iterdir() if p.is_file()}
    with tempfile.TemporaryDirectory() as scratch:
        target = Path(scratch) if args.check else expected
        code = regenerate(target)
        if code != 0:
            return code
        new = {p.name: p.read_text() for p in target.iterdir()
               if p.is_file()}
    changed = False
    for name in sorted(old.keys() | new.keys()):
        report = ("removed" if name not in new else
                  compare(Path(name), old.get(name), new[name]))
        changed |= report != "unchanged"
        print(f"{name}: {report}")
    if args.check:
        print(f"[{'x' if changed else 'ok'}] fixtures under {expected} "
              f"{'would change' if changed else 'are current'}")
        return int(changed)
    print(f"[ok] fixtures refreshed under {expected}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
