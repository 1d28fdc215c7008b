"""Print how far the artifacts of two trees differ, per CSV column and per NLSF file.

    python tools/artifact_diff.py A B

A and B are directories of artifacts, for example two runs of
``tools/artifact_hashes.py DIR`` from two checkouts.  For every file present
in both trees whose bytes differ, it prints one line per numeric CSV column,
per numeric leaf of a JSON summary and per NLSF snapshot: the largest change
relative to the larger magnitude in that column or field,
max|a - b| / max(max|a|, max|b|).  A column or key present in one tree only,
a shape change and a changed text value are printed as such, and so is a file
present in one tree only.  Lines come sorted by path.  Identical files print
nothing.  The exit code is 0 whatever the difference, and 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lognls.snapshots import read_snapshot  # noqa: E402


def _csv_columns(path: Path) -> dict[str, list[str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _json_leaves(value, prefix: str = "") -> dict[str, object]:
    """{dotted key: value} of a JSON document, down to scalars and lists of scalars.

    An array that holds objects or arrays is keyed by index, as in
    ``assertions.0.value``.
    """
    if isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        value = dict(enumerate(value))
    if not isinstance(value, dict):
        return {prefix: value}
    leaves = {}
    for key, item in value.items():
        leaves.update(_json_leaves(item, f"{prefix}.{key}" if prefix else str(key)))
    return leaves


def _numbers(values) -> np.ndarray | None:
    """The values as a float array, or None if any of them is not a number."""
    try:
        return np.asarray([math.nan if v in ("", None) else float(v) for v in values])
    except (TypeError, ValueError):
        return None


def _relative(a: np.ndarray, b: np.ndarray) -> str:
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    if np.array_equal(a, b, equal_nan=True):
        return "0"
    both = np.isfinite(a) & np.isfinite(b)
    if not np.array_equal(both, np.isfinite(a)) or not np.array_equal(both, np.isfinite(b)):
        return "non-finite entries differ"
    scale = max(float(np.max(np.abs(a[both]), initial=0.0)),
                float(np.max(np.abs(b[both]), initial=0.0)))
    change = float(np.max(np.abs(a[both] - b[both]), initial=0.0))
    return f"{change / scale:.3e}" if scale > 0.0 else f"{change:.3e} (absolute)"


def _compare(named_a: dict, named_b: dict) -> dict[str, str]:
    """Change per name shared by two {name: values} maps, and the names of one side only."""
    changes = {}
    for name in sorted(set(named_a) | set(named_b)):
        if name not in named_b:
            changes[name] = "only in A"
        elif name not in named_a:
            changes[name] = "only in B"
        else:
            a, b = _listed(named_a[name]), _listed(named_b[name])
            numeric_a, numeric_b = _numbers(a), _numbers(b)
            if numeric_a is not None and numeric_b is not None:
                change = _relative(numeric_a, numeric_b)
            else:
                change = "0" if a == b else "text differs"
            if change != "0":
                changes[name] = change
    return changes


def _listed(value) -> list:
    return value if isinstance(value, list) else [value]


def diff(a_root: Path, b_root: Path) -> list[str]:
    files_a = {p.relative_to(a_root).as_posix() for p in a_root.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b_root).as_posix() for p in b_root.rglob("*") if p.is_file()}
    lines = []
    for name in sorted(files_a | files_b):
        if name not in files_b or name not in files_a:
            lines.append(f"{'only in A' if name in files_a else 'only in B'}  {name}")
            continue
        path_a, path_b = a_root / name, b_root / name
        if path_a.read_bytes() == path_b.read_bytes():
            continue
        if name.endswith(".csv"):
            changes = _compare(_csv_columns(path_a), _csv_columns(path_b))
        elif name.endswith(".json"):
            changes = _compare(_json_leaves(json.loads(path_a.read_text(encoding="utf-8"))),
                               _json_leaves(json.loads(path_b.read_text(encoding="utf-8"))))
        elif name.endswith(".nlsf"):
            field_a, meta_a = read_snapshot(path_a)
            field_b, meta_b = read_snapshot(path_b)
            changes = {"": _relative(field_a.values, field_b.values), **_compare(meta_a, meta_b)}
        else:
            changes = {"": "bytes differ"}
        lines += [f"{change}  {name}{':' + key if key else ''}"
                  for key, change in changes.items() if change != "0"]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("largest relative change  file[:column]")
    for line in diff(Path(argv[0]), Path(argv[1])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
