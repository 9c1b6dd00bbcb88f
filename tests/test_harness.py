"""The test suite's own settings: a failing test must be reported, not end
the run."""
import subprocess
import sys
import textwrap

from conftest import REPO

PROBE = textwrap.dedent('''
    from hypothesis import given, settings, strategies as st


    @settings(database=None)
    @given(st.integers())
    def test_a_failing_property(n):
        assert n != n


    def test_after_it():
        pass
''')


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # on a failure hypothesis's report hook may import code that warns of a
    # deprecation; the suite's warnings-as-errors must not turn that into an
    # internal error that stops the tests after it
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
