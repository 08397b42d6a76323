"""The project's pytest settings report a failing test instead of aborting the session."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_failing_hypothesis_test_is_reported(tmp_path):
    # Reporting a failing @given test makes Hypothesis import its patch
    # writer (libcst, when installed), which emits a DeprecationWarning that
    # the settings' error filter must not turn into an INTERNALERROR (exit 3).
    test = tmp_path / "test_fails.py"
    test.write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 0
            """
        )
    )
    settings = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *settings, str(test)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_fails.py::test_fails" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
