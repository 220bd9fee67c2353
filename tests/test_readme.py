"""README's "Library sketch" runs as written against the package, and the
names its oracle paragraph gives exist."""

import inspect
import re
from pathlib import Path

import numpy as np

from pathdensity import model, oracle
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
    assert ns["first"].n_paths == 1
    spec = ns["field"].spec
    assert isinstance(ns["mask"], np.ndarray)
    assert ns["mask"].dtype == bool
    assert ns["mask"].shape == (spec.nx, spec.ny)


def test_oracle_paragraph_names_resolve():
    # each backticked name is one of the two modules, a member of one, or a
    # parameter of a member the paragraph names
    text = README.read_text(encoding="utf-8")
    para = next(p for p in text.split("\n\n") if p.startswith("The mixture model"))
    names = set(re.findall(r"`([^`]+)`", para))
    modules = {"pathdensity.model": model, "pathdensity.oracle": oracle}
    members = {n: getattr(m, n) for n in names for m in modules.values()
               if hasattr(m, n)}
    params = {p for f in members.values() if callable(f)
              for p in inspect.signature(f).parameters}
    assert "sample_and_trace" in members
    assert names - set(modules) - set(members) - params == set()
