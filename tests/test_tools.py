import importlib.util
import json
from pathlib import Path

import numpy as np

from lognls.grid import ComplexField, Grid
from lognls.model import Family, ModelParams
from lognls.snapshots import write_csv, write_snapshot

_SPEC = importlib.util.spec_from_file_location(
    "artifact_diff", Path(__file__).resolve().parent.parent / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_diff)


def _tree(root: Path, energy: float, scale: float, extra: bool) -> Path:
    root.mkdir()
    write_csv(root / "points.csv", ["config"], ["rho", "energy", "error"],
              [[1.0, energy, "none"], [2.0, 2.0 * energy, "none"]])
    metrics = {"energy_min": energy, "iterations": 12}
    if extra:
        metrics["line_search_trials"] = 13
    summary = {"metrics": metrics, "assertions": [{"name": "residual", "value": energy}]}
    (root / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    g = Grid(1, 8, 4.0)
    write_snapshot(root / "field.nlsf", ComplexField(g, scale * np.arange(1.0, 9.0)),
                   ModelParams(Family.QUINTIC_LOG_1D, 1.0))
    (root / "same.txt").write_text("unchanged", encoding="utf-8")
    return root


def test_largest_relative_change_per_column_key_and_field(tmp_path):
    a = _tree(tmp_path / "a", -1.0, 1.0, extra=False)
    b = _tree(tmp_path / "b", -1.0 - 1e-9, 1.0 + 1e-6, extra=True)
    (b / "new.csv").write_text("x\n1\n", encoding="utf-8")
    lines = artifact_diff.diff(a, b)
    assert lines == [
        "1.000e-06  field.nlsf",
        "only in B  new.csv",
        "1.000e-09  points.csv:energy",
        "1.000e-09  summary.json:assertions.0.value",
        "1.000e-09  summary.json:metrics.energy_min",
        "only in B  summary.json:metrics.line_search_trials",
    ]
    assert artifact_diff.diff(a, a) == []
