"""The pytest configuration itself: a failing property test is reported, and
the session goes on to the tests after it.

With deprecation warnings raised as errors, hypothesis's report of a failure
imports ``libcst``, whose ``mypy_extensions.TypedDict`` warning would end the
session with an INTERNALERROR before the falsifying example is printed.
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"

_TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after():
    pass
'''


def test_a_failing_property_test_is_reported_and_later_tests_run(tmp_path):
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1
    assert "Falsifying example: test_fails(" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
