"""Hypothesis strategies shared by the test modules."""

from hypothesis import assume
from hypothesis import strategies as st

from oracles import rref_mod


@st.composite
def instances_with_base_vertex(draw):
    """(q, N, D, x_rows): a small Grassmann graph with a random base vertex."""
    q, n, d = draw(st.sampled_from([(2, 4, 2), (2, 5, 2), (2, 5, 1), (3, 4, 1), (3, 4, 2)]))
    row = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(row, min_size=d, max_size=d))
    assume(len(rref_mod(rows, q)[1]) == d)
    return q, n, d, tuple(rows)
