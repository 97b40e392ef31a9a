"""Shared hypothesis strategies for histogram-valued properties, a custom
collection with empty columns, and a session-wide guard that turns a simplex
that cycles into a failure."""

import pytest
from hypothesis import strategies as st

from relubound import BINOMIAL, GammaCollection, Histogram, simplex

# Bland's rule terminates, and no LP in the suite needs more than a handful of
# pivots; a run this long on one tableau means _pivot or the rule is broken.
MAX_PIVOTS_IN_A_ROW = 10_000


# binomial, except that odd input dimensions have no image at all, so
# phi's sums can end in zeros that only the trim removes
EMPTY_AT_ODD = GammaCollection(
    "empty-at-odd", lambda n, n_prime: Histogram(()) if n % 2 else BINOMIAL.rule(n, n_prime)
)


@pytest.fixture(scope="session", autouse=True)
def pivot_guard():
    """Fail, instead of hanging, once one tableau is pivoted too often in a row.

    Session scope, so that module-scoped fixtures which enumerate regions
    run under the guard too.
    """
    pivot = simplex._pivot
    last = [None, 0]  # the tableau pivoted last, and its pivots in a row

    def guarded(tab, r, e):
        last[:] = [tab, last[1] + 1 if last[0] is tab else 1]
        assert last[1] <= MAX_PIVOTS_IN_A_ROW, (
            f"more than {MAX_PIVOTS_IN_A_ROW} pivots in a row on one tableau"
        )
        return pivot(tab, r, e)

    simplex._pivot = guarded
    yield
    simplex._pivot = pivot


@st.composite
def histograms(draw, max_index=8, max_count=40):
    counts = draw(
        st.lists(st.integers(0, max_count), min_size=0, max_size=max_index + 1)
    )
    return Histogram(tuple(counts))


@st.composite
def dominated_pairs(draw, max_index=8, max_count=40):
    """(v, w) with v dominated by w.

    Start from w and repeatedly remove mass or shift it toward index 0;
    both moves can only shrink tail sums.
    """
    w = draw(histograms(max_index, max_count))
    counts = list(w.to_list())
    for j in range(len(counts) - 1, -1, -1):
        take = draw(st.integers(0, counts[j]))
        counts[j] -= take
        if j > 0 and take and draw(st.booleans()):
            counts[draw(st.integers(0, j - 1))] += draw(st.integers(0, take))
    return Histogram(tuple(counts)), w
