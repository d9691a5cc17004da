"""The repository's pytest configuration reports a failing Hypothesis test.

``pyproject.toml`` promotes every DeprecationWarning to an error.  A
failing ``@given`` test makes Hypothesis import libcst (to explain the
failure), and libcst imports ``mypy_extensions``, whose deprecated
``TypedDict`` warns.  Without an exemption that warning turns into an
``INTERNALERROR`` that ends the session and drops the failure summary.
This test runs a deliberately failing property test under the repo's
own configuration in a child pytest and checks the failure is reported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(0, 10))
@settings(max_examples=50, deadline=None, database=None)
def test_always_small(n):
    assert n < 5
'''


def test_failing_hypothesis_test_is_reported_not_internalerror(tmp_path):
    (tmp_path / "test_deliberate_failure.py").write_text(FAILING_PROPERTY)
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(PYPROJECT),
            "--rootdir",
            str(tmp_path),
            "-p",
            "no:cacheprovider",
            "test_deliberate_failure.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = completed.stdout + completed.stderr
    assert "INTERNALERROR" not in output, output
    assert completed.returncode == 1, output
    assert "FAILED test_deliberate_failure.py::test_always_small" in output
