"""Property-based parity: random nested JSON documents flatten identically
in this engine and the reference implementation (tables, rows, ids)."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, "/root/reference/src")

try:
    import transmog as ref  # noqa: E402
    from transmog.types import ArrayMode as RefArrayMode  # noqa: E402
except ImportError:
    ref = RefArrayMode = None

from transmog_ray.core.config import FlattenConfig  # noqa: E402
from transmog_ray.core.flatten import Flattener  # noqa: E402

needs_ref = pytest.mark.skipif(
    ref is None,
    reason="reference implementation (transmog) not importable: reference source missing",
)

# keys: short identifiers plus a few awkward ones
KEYS = st.one_of(
    st.text(alphabet="abcxyz_", min_size=1, max_size=6),
    st.sampled_from(["id", "value", "café", "sp ace", "9lead", "SELECT"]),
)

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.sampled_from(["", "x", float("nan"), float("inf"), float("-inf")]),
)

JSONISH = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=25,
)

RECORDS = st.dictionaries(KEYS, JSONISH, min_size=1, max_size=5)


def normalize_tables(tables):
    out = {}
    for name, rows in tables.items():
        out[name] = [
            {
                k: ("NaN" if isinstance(v, float) and v != v else v)
                for k, v in row.items()
                if k != "_timestamp"
            }
            for row in rows
        ]
    return out


@needs_ref
@settings(max_examples=120, deadline=None)
@given(record=RECORDS, mode=st.sampled_from(["smart", "separate", "inline", "skip"]))
def test_random_records_flatten_identically(record, mode):
    ours = Flattener(
        FlattenConfig(array_mode=mode, id_generation="hash"), "e"
    ).flatten_tables([record], extract_time="T")
    theirs = ref.flatten(
        [record],
        name="e",
        config=ref.TransmogConfig(
            array_mode=RefArrayMode(mode), id_generation="hash"
        ),
    ).all_tables
    assert normalize_tables(ours) == normalize_tables(dict(theirs))


@needs_ref
@settings(max_examples=60, deadline=None)
@given(record=RECORDS)
def test_random_records_include_nulls_stringify(record):
    cfg = dict(include_nulls=True, stringify_values=True, id_generation="hash")
    ours = Flattener(FlattenConfig(**cfg), "e").flatten_tables([record], "T")
    theirs = ref.flatten(
        [record], name="e",
        config=ref.TransmogConfig(array_mode=RefArrayMode("smart"), **cfg),
    ).all_tables
    assert normalize_tables(ours) == normalize_tables(dict(theirs))
