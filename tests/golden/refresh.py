#!/usr/bin/env python3
"""Regenerate the golden CSV/JSON fixtures from the checked-in configs.

Run from anywhere: python tests/golden/refresh.py
Only refresh on purpose; the regression test compares bytes.  For every
fixture it prints whether the file changed and, if it did, the largest
absolute deviation between numbers at the same place (JSON path or CSV
cell) in the old and the new file, plus the places that appeared,
disappeared or changed in something other than a number.
"""

import json
from pathlib import Path

from gamow_thermo.cli import main as cli_main

HERE = Path(__file__).resolve().parent
COMMANDS = ["pole", "survival", "entropy", "evolve", "scan"]


def _leaves(path: Path, text: str) -> dict:
    """Leaf values keyed by place: JSON paths, or (row, column) of a CSV."""
    if path.suffix != ".json":
        return {(i, j): cell for i, line in enumerate(text.splitlines())
                for j, cell in enumerate(line.split(","))}
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
    deviation, other = 0.0, 0
    for key in before.keys() & after.keys():
        x, y = _number(before[key]), _number(after[key])
        if x is not None and y is not None:
            deviation = max(deviation, abs(x - y))
        elif before[key] != after[key]:
            other += 1
    return (f"changed: largest numeric deviation {deviation:.3g}, "
            f"{len(after.keys() - before.keys())} places added, "
            f"{len(before.keys() - after.keys())} removed, "
            f"{other} other values changed")


def main() -> int:
    expected = HERE / "expected"
    expected.mkdir(exist_ok=True)
    old = {p.name: p.read_text() for p in expected.iterdir() if p.is_file()}
    for command in COMMANDS:
        cfg = HERE / "configs" / f"{command}.cfg"
        out = expected / f"{command}.csv"
        code = cli_main([command, "--config", str(cfg), "--out", str(out),
                         "--quiet"])
        if code != 0:
            print(f"[x] {command} exited {code}")
            return code
    for path in sorted(p for p in expected.iterdir() if p.is_file()):
        report = compare(path, old.get(path.name), path.read_text())
        print(f"{path.name}: {report}")
    print(f"[ok] fixtures refreshed under {expected}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
