"""The pytest settings in pyproject.toml let a run go on past a failure.

They turn warnings into errors.  When a `@given` test fails, hypothesis
imports libcst to report the failing example, and libcst warns on
import; unless that one warning is ignored, pytest stops with an
INTERNALERROR and runs no later test.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    argv = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "-q", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), done.stdout
