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
        "1.000e-09  summary.json:assertions.residual.value",
        "1.000e-09  summary.json:metrics.energy_min",
        "only in B  summary.json:metrics.line_search_trials",
    ]
    assert artifact_diff.diff(a, a) == []


def test_a_zero_whose_sign_changed_is_reported(tmp_path):
    for name, value in (("a", -0.0), ("b", 0.0)):
        (tmp_path / name).mkdir()
        summary = {"metrics": {"pc_rhs_t0": value, "pc_residual": 1e-6}}
        (tmp_path / name / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    assert artifact_diff.diff(tmp_path / "a", tmp_path / "b") == [
        "sign of a zero differs  summary.json:metrics.pc_rhs_t0"]


def test_named_entries_are_keyed_by_name_unless_a_name_repeats(tmp_path):
    named = [{"name": "mass_drift", "value": 1e-15}, {"name": "energy_drift", "value": 1e-7}]
    repeated = [{"name": "point", "value": 1.0}, {"name": "point", "value": 2.0}]
    trees = {"a": {"assertions": named, "points": repeated},
             "b": {"assertions": named[1:], "points": [repeated[0], {"name": "point", "value": 4.0}]}}
    for name, summary in trees.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    # the removed entry shifts no later one; the repeated name leaves its list keyed by index
    assert artifact_diff.diff(tmp_path / "a", tmp_path / "b") == [
        "only in A  summary.json:assertions.mass_drift.name",
        "only in A  summary.json:assertions.mass_drift.value",
        "5.000e-01  summary.json:points.1.value",
    ]
