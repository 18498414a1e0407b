"""Rewrite the reference outputs that ``tests/test_reference.py`` compares with.

    PYTHONPATH=src python tests/reference/regenerate.py

Each output is a CSV with its ``.meta.json`` sidecar, written exactly as the
installed ``hetcache`` script writes it. Rewrite them only for a change that
moves seeded numbers on purpose, and commit them with its reason.
"""
import sys
from pathlib import Path

from hetcache.cli import main
from hetcache.experiments import PRESET_NAMES

HERE = Path(__file__).resolve().parent
# Each output's arguments to the ``hetcache`` script, without ``--out``.
OUTPUTS = {
    **{name: ("preset", name, "--snapshots", "64") for name in PRESET_NAMES},
    "run": ("run", "--engine", "both", "--snapshots", "64"),
}


def write(name: str, directory) -> int:
    """Write output ``name`` into ``directory`` as ``<name>.csv``; the exit code."""
    return main([*OUTPUTS[name], "--out", str(Path(directory) / f"{name}.csv")])


if __name__ == "__main__":
    sys.exit(max(write(name, HERE) for name in OUTPUTS))
