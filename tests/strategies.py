"""Shared hypothesis strategies for the input-contract properties."""

from hypothesis import strategies as st

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
