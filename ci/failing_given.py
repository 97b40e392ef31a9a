"""A @given test that fails on purpose, outside the tier-1 ``testpaths``.

    pytest -q ci/failing_given.py

must fail with hypothesis's ``Falsifying example`` report and no
``INTERNALERROR``: on a failure hypothesis's pytest plugin imports its
patch writer (and, where installed, libcst), and a warning raised there
under ``filterwarnings = ["error"]`` would end the session instead.
"""

from hypothesis import given
from hypothesis import strategies as st

from relubound import Histogram, l1_norm


@given(st.lists(st.integers(0, 9)))
def test_always_fails(counts):
    assert l1_norm(Histogram(tuple(counts))) < 0
