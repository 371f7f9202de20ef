import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# A failing property test beside a passing one.  Reporting the failure makes
# hypothesis import libcst, which warns as it loads.
_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # run under the repo's ini, warnings-as-errors included: the failure is
    # reported as one and the session goes on to the next test
    (tmp_path / "test_pair.py").write_text(_PAIR)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
         "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
