"""The suite's own pytest settings: a failing test is reported, not lost."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_failing_property(x):
    assert x < 5


def test_passing():
    pass
'''


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None,
    reason="the hypothesis plugin imports libcst only when it is installed",
)
def test_a_failing_property_is_reported_with_the_rest(tmp_path):
    """Under the suite's warning filters, a failing property ends as one failure, not INTERNALERROR."""
    (tmp_path / "test_report.py").write_text(_FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_report.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
