import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    """A failing @given test reports its example and the session runs on, under
    the repo's pytest config.

    To report it, hypothesis imports libcst where it is installed, and libcst's
    mypy_extensions.TypedDict raises a DeprecationWarning that the config's
    error::DeprecationWarning turned into an INTERNALERROR: exit code 3, no
    example, and no later test run. Where libcst is missing hypothesis skips
    that import, so this test passes with or without the config's ignore entry.
    """
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
