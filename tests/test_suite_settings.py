"""The suite's own pytest settings must let a failing property fail like any test.

With every warning an error, hypothesis's report hook once turned a failing
property into an INTERNALERROR (exit 3) that ended the session, so the tests
after it never ran.
"""

import pytest

pytest_plugins = ["pytester"]

FAILING_PROPERTY_THEN_A_PASSING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_after_the_failing_property():
    pass
"""


def test_a_failing_property_does_not_end_the_session(pytester, request):
    filters = request.config.getini("filterwarnings")
    assert "error" in filters
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(FAILING_PROPERTY_THEN_A_PASSING_TEST)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.assert_outcomes(failed=1, passed=1)
