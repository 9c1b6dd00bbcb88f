"""The test suite's own settings: a failing test must be reported, not end
the run."""
import os
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


def run_probe(tmp_path, **env):
    """The output of :data:`PROBE` run with the suite's settings and its
    ``conftest``, with ``env`` over a copy of the environment that has no
    ``CI``."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    environ = {k: v for k, v in os.environ.items() if k != "CI"}
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "tests"), str(REPO / "src"),
         *filter(None, [environ.get("PYTHONPATH")])])
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "-p", "no:cacheprovider", "-p", "conftest", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**environ, **env})
    return run.stdout + run.stderr


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # on a failure hypothesis's report hook may import code that warns of a
    # deprecation; the suite's warnings-as-errors must not turn that into an
    # internal error that stops the tests after it
    out = run_probe(tmp_path)
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_a_failure_on_ci_prints_the_blob_that_replays_it(tmp_path):
    # with CI set, as on GitHub's runners, the suite loads a hypothesis
    # profile that prints a failing example's @reproduce_failure blob, so
    # a failure seen only there can be replayed locally
    out = run_probe(tmp_path, CI="true")
    assert "1 failed, 1 passed" in out
    assert "@reproduce_failure" in out
