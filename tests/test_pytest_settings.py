"""The repository's pytest settings keep Hypothesis failure reports readable."""

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]


def test_failing_given_test_prints_falsifying_example(pytester):
    pytester.makefile(".toml", pyproject=(ROOT / "pyproject.toml").read_text())
    pytester.makepyfile(test_always_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert False
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_always_fails.py")
    out = result.stdout.str() + result.stderr.str()
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed" in out
