"""README's "Library sketch" runs as written against the package."""

import re
from pathlib import Path

import numpy as np

from pathdensity.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs_and_gives_a_grid_mask(tmp_path, monkeypatch):
    assert main(["simulate", "--model", "pentagon", "--n", "150", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    monkeypatch.chdir(tmp_path)
    ns = {}
    exec(compile(sketch(), str(README), "exec"), ns)
    spec = ns["field"].spec
    assert isinstance(ns["mask"], np.ndarray)
    assert ns["mask"].dtype == bool
    assert ns["mask"].shape == (spec.nx, spec.ny)
