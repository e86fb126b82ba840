"""The test session's own settings, as pyproject.toml sets them."""

import os
import subprocess
import sys
from pathlib import Path

INI = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # Every warning is an error, but reporting a failing @given example
    # must not raise one: hypothesis then imports libcst, whose use of
    # mypy_extensions.TypedDict warns, and as an error that aborted the
    # whole session with an INTERNALERROR.
    (tmp_path / "test_probe.py").write_text(PROBE)
    # the inner run takes its options from the ini alone, not the outer run's
    env = dict(os.environ)
    env.pop("PYTEST_ADDOPTS", None)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(INI), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    text = out.stdout + out.stderr
    assert "INTERNALERROR" not in text
    assert "1 failed, 1 passed" in text
