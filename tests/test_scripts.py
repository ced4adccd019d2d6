"""What runs outside the library's own calls, each in a fresh interpreter:
every demo with every warning an error, and a failing hypothesis test under
the pytest settings of ``pyproject.toml``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name)
def test_demo_runs_with_warnings_as_errors(demo):
    """-X dev turns on the debug hooks and warnings that a plain run hides."""
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(demo)],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


PROBE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    """The run ends as a failure (exit 1), with the test after it run, not in
    an INTERNALERROR (exit 3): hypothesis's failure report imports libcst,
    whose DeprecationWarning pyproject.toml ignores beside its "error" filter."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                           "-p", "no:cacheprovider", "--rootdir", str(tmp_path), "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert (done.returncode, "1 passed" in out, "INTERNALERROR" in out) == (1, True, False), out
