"""The package's public names, and the names the benchmark reads from it."""

import ast
import importlib
from pathlib import Path

import gamow_thermo as gt

# the modules whose public names the package re-exports, in order
MODULES = ("numerics", "friedrichs", "decay", "thermo", "evolution")

_WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _module(name):
    return importlib.import_module(f"gamow_thermo.{name}")


def test_package_all_is_the_modules_all():
    modules = [_module(name) for name in MODULES]
    assert gt.__all__ == [name for module in modules
                          for name in module.__all__]
    assert len(set(gt.__all__)) == len(gt.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(gt, name) is getattr(module, name), name


def test_benchmark_worker_reads_existing_names():
    """Every attribute the benchmark worker reads from a package module
    exists there, so a moved or renamed function fails here first."""
    read = {(node.value.id, node.attr)
            for node in ast.walk(ast.parse(_WORKER.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("friedrichs", "decay", "evolution", "cli")}
    assert ("friedrichs", "discretize") in read and ("cli", "main") in read
    missing = [f"{module}.{name}" for module, name in sorted(read)
               if not hasattr(_module(module), name)]
    assert missing == []
