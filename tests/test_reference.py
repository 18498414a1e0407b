"""Committed reference outputs, regenerated and compared cell by cell.

``tests/reference/`` holds every preset and a two-engine run, each written
by ``tests/reference/regenerate.py``. Under the numpy version its sidecar
records, every output must come back byte for byte. Under another, the
layout and every non-number cell must still match and analytic numbers
must agree to 1e-12 relative (BLAS and libm differ across hosts), while
Monte Carlo numbers are not compared: numpy does not promise the same
``Generator`` streams across versions (NEP 19).
"""
import json
import math
import runpy
from pathlib import Path

import pytest

REFERENCE = Path(__file__).resolve().parent / "reference"
_SCRIPT = runpy.run_path(str(REFERENCE / "regenerate.py"))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _matches(want: str, got: str, engine: str, same_numpy: bool) -> bool:
    """Whether cell ``got`` passes for reference cell ``want`` of an ``engine`` row."""
    if want == got:
        return True
    a, b = _number(want), _number(got)
    if same_numpy or a is None or b is None:
        return False
    return engine == "mc" or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("name", sorted(_SCRIPT["OUTPUTS"]))
def test_output_matches_its_committed_reference(name, tmp_path):
    assert _SCRIPT["write"](name, tmp_path) == 0
    meta, new_meta = (json.loads((d / f"{name}.csv.meta.json").read_text())
                      for d in (REFERENCE, tmp_path))
    same_numpy = meta.pop("numpy_version") == new_meta.pop("numpy_version")
    assert new_meta == meta
    texts = [(d / f"{name}.csv").read_text() for d in (REFERENCE, tmp_path)]
    expected, actual = ([line.split(",") for line in text.splitlines()] for text in texts)
    header = expected[0]
    assert actual[0] == header and len(actual) == len(expected)
    engine = header.index("engine")
    for line, (want, got) in enumerate(zip(expected[1:], actual[1:]), start=2):
        assert len(got) == len(want), f"{name}.csv line {line}: cell count"
        for column, a, b in zip(header, want, got):
            assert _matches(a, b, want[engine], same_numpy), \
                f"{name}.csv line {line}, {column}: {b} where the reference has {a}"
    assert texts[1] == texts[0] or not same_numpy
