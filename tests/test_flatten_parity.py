"""Parity suite: our pure-Python flatten kernel vs the reference implementation.

Runs /root/reference (via sys.path injection) and transmog_ray.core on the
same nested fixtures and asserts identical table names, rows, column sets
and — under deterministic ID strategies — identical ``_id``/``_parent_id``
values. This pins the semantics contract documented in
transmog_ray/core/flatten.py; the reference is the oracle. The
reference-comparison tests skip when the reference ``transmog`` cannot be
imported; the two kernel-only tests (uuid5 ids, thread safety) always run.
"""

from __future__ import annotations

import math
import sys
import uuid

import pytest

sys.path.insert(0, "/root/reference/src")

try:
    import transmog as ref  # noqa: E402  (the reference package)
    from transmog.types import ArrayMode as RefArrayMode  # noqa: E402
except ImportError:
    ref = RefArrayMode = None

from transmog_ray.core.config import FlattenConfig  # noqa: E402
from transmog_ray.core.flatten import Flattener, sanitize_name  # noqa: E402
from transmog_ray.core import hashing  # noqa: E402

TIME = "_timestamp"

needs_ref = pytest.mark.skipif(
    ref is None,
    reason="reference implementation (transmog) not importable: reference source missing",
)

# ---------------------------------------------------------------- fixtures
# Nested shapes mirroring the reference test-suite's canonical fixtures
# (FIXTURES.md §B); values are our own.

SIMPLE = {
    "id": 7,
    "name": "Widget",
    "metadata": {"created_at": "2024-01-01", "updated_at": "2024-02-01", "version": 3},
}

ARRAYS = {
    "id": 1,
    "company": "Acme Corp",
    "tags": ["alpha", "beta", "gamma"],
    "employees": [
        {"name": "Ada", "role": "eng", "skills": ["py", "sql"]},
        {"name": "Lin", "role": "ops", "skills": ["k8s"]},
    ],
}

DEEP = {
    "organization": {
        "name": "Org",
        "departments": [
            {
                "dept_name": "Engineering",
                "teams": [
                    {
                        "team_name": "Platform",
                        "members": [{"m": "a"}, {"m": "b"}],
                    },
                    {"team_name": "Data", "members": [{"m": "c"}]},
                ],
            },
            {"dept_name": "Sales", "teams": [{"team_name": "EMEA", "members": []}]},
        ],
    }
}

MIXED_TYPES = {
    "b_true": True,
    "b_false": False,
    "i_zero": 0,
    "f_pi": 3.14,
    "s_empty": "",
    "s_val": "x",
    "n_null": None,
    "nested": {"list": [1, 2, 3], "empty_list": [], "empty_dict": {}},
}

NAN_INF = {
    "ok": 1.5,
    "nan": float("nan"),
    "inf": float("inf"),
    "ninf": float("-inf"),
    "arr": [1.0, float("nan"), 2.0],
    "objs": [{"v": float("inf")}, {"v": 9}],
}

MIXED_ARRAY = {"id": 1, "things": [{"a": 1}, "plain", 42, None, {"b": 2}]}

COLLISION = {"user_name": "direct", "user": {"name": "nested"}}

UNICODE_KEYS = {"café": 1, "测试": {"🚀 key": "v"}, "sp ace-dash": [{"k!": 2}]}

DEEP_NEST = {"a": {"b": {"c": {"d": {"e": {"f": {"g": 1}}}}}}}

DUP_ITEMS = {"id": 5, "kids": [{"x": 1}, {"x": 1}, {"x": 2}]}

CORPUS = [
    ("simple", SIMPLE),
    ("arrays", ARRAYS),
    ("deep", DEEP),
    ("mixed_types", MIXED_TYPES),
    ("nan_inf", NAN_INF),
    ("mixed_array", MIXED_ARRAY),
    ("collision", COLLISION),
    ("unicode", UNICODE_KEYS),
    ("deep_nest", DEEP_NEST),
    ("dup_items", DUP_ITEMS),
]

MODES = ["smart", "separate", "inline", "skip"]


def ref_config(mode="smart", id_generation="hash", **kw):
    return ref.TransmogConfig(
        array_mode=RefArrayMode(mode), id_generation=id_generation, **kw
    )


def our_tables(records, entity, mode="smart", id_generation="hash", **kw):
    if isinstance(id_generation, list):
        id_generation = tuple(id_generation)
    cfg = FlattenConfig(array_mode=mode, id_generation=id_generation, **kw)
    return Flattener(cfg, entity).flatten_tables(records, extract_time="T")


def ref_tables(records, entity, mode="smart", id_generation="hash", **kw):
    result = ref.flatten(records, name=entity, config=ref_config(mode, id_generation, **kw))
    return dict(result.all_tables)


def normalize(tables, drop_ids=False):
    out = {}
    for name, rows in tables.items():
        norm_rows = []
        for row in rows:
            r = {}
            for k, v in row.items():
                if k == TIME:
                    continue
                if drop_ids and k in ("_id", "_parent_id"):
                    continue
                if isinstance(v, float) and math.isnan(v):
                    v = "NaN"
                r[k] = v
            norm_rows.append(r)
        out[name] = norm_rows
    return out


def assert_parity(records, entity, mode="smart", id_generation="hash", **kw):
    ours = our_tables(records, entity, mode, id_generation, **kw)
    theirs = ref_tables(records, entity, mode, id_generation, **kw)
    drop_ids = id_generation == "random"
    ours_n, theirs_n = normalize(ours, drop_ids), normalize(theirs, drop_ids)
    # empty main tables: the reference omits nothing; both keep key for entity
    assert set(ours_n) == set(theirs_n), (set(ours_n), set(theirs_n))
    for tname in theirs_n:
        assert ours_n[tname] == theirs_n[tname], f"table {tname} mismatch"


@needs_ref
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,record", CORPUS)
def test_parity_hash_ids(name, record, mode):
    assert_parity([record], "entity", mode=mode, id_generation="hash")


@needs_ref
@pytest.mark.parametrize("name,record", CORPUS)
def test_parity_composite_ids(name, record):
    assert_parity([record], "entity", mode="smart", id_generation=["id", "name"])


@needs_ref
@pytest.mark.parametrize("mode", ["smart", "separate"])
def test_parity_random_shape(mode):
    assert_parity([ARRAYS, DEEP], "e", mode=mode, id_generation="random")


@needs_ref
@pytest.mark.parametrize("name,record", CORPUS)
def test_parity_include_nulls(name, record):
    assert_parity([record], "entity", id_generation="hash", include_nulls=True)


@needs_ref
@pytest.mark.parametrize("name,record", CORPUS)
def test_parity_stringify(name, record):
    assert_parity([record], "entity", id_generation="hash", stringify_values=True)


@needs_ref
def test_parity_batch_order():
    batch = [SIMPLE, ARRAYS, DEEP, MIXED_TYPES, DUP_ITEMS]
    assert_parity(batch, "batch", mode="separate", id_generation="hash")


@needs_ref
def test_parity_max_depth():
    assert_parity([DEEP_NEST], "d", id_generation="hash")
    ours = our_tables([DEEP_NEST], "d", id_generation="hash", max_depth=3)
    theirs = ref_tables([DEEP_NEST], "d", id_generation="hash", max_depth=3)
    assert normalize(ours) == normalize(theirs)


@needs_ref
def test_parity_natural_ids():
    recs = [{"_id": "n-1", "v": 1, "kids": [{"k": 1}]}]
    ours = our_tables(recs, "nat", mode="separate", id_generation="natural")
    theirs = ref_tables(recs, "nat", mode="separate", id_generation="natural")
    # child rows get uuid4 fallback ids (non-deterministic) — compare shape
    assert normalize(ours, drop_ids=True) == normalize(theirs, drop_ids=True)
    assert ours["nat"][0]["_id"] == theirs["nat"][0]["_id"] == "n-1"
    assert ours["nat_kids"][0]["_parent_id"] == "n-1"


@needs_ref
def test_natural_missing_id_raises():
    with pytest.raises(Exception):
        our_tables([{"v": 1}], "nat", id_generation="natural")
    with pytest.raises(Exception):
        ref_tables([{"v": 1}], "nat", id_generation="natural")


@needs_ref
def test_hash_recipe_matches_reference_helpers():
    from transmog.flattening import _hash_value, _hash_fields  # reference internals

    for v in ["Test", "test  ", 42, 3.5, True, {"b": 1, "a": [1, {"z": None}]}, ["x", 1]]:
        assert hashing.hash_value(v) == _hash_value(v)
    rec = {"url": "https://a", "warc_ts": "2024-01-01", "x": 9}
    assert hashing.hash_fields(rec, ["url", "warc_ts"]) == _hash_fields(rec, ["url", "warc_ts"])
    assert hashing.hash_fields(rec, ["warc_ts", "url"]) == _hash_fields(rec, ["url", "warc_ts"])
    # case-insensitive by design
    assert hashing.hash_value("Case") == hashing.hash_value("case")
    # missing field ≡ null field
    assert hashing.hash_fields({"a": 1}, ["a", "b"]) == hashing.hash_fields(
        {"a": 1, "b": None}, ["a", "b"]
    )


@needs_ref
def test_sanitize_matches_reference():
    from transmog.flattening import _sanitize_name

    for name in [
        "normal", "sp ace", "dash-ed", "9lead", "", "___", "a!!b", "café",
        "UPPER Case-Mix 77", "测试 key", "a__b",
    ]:
        assert sanitize_name(name) == _sanitize_name(name), name


def test_ids_are_uuid5_in_namespace():
    rows, kids = Flattener(FlattenConfig(id_generation="hash"), "e").flatten_batch([ARRAYS])
    rid = uuid.UUID(rows[0]["_id"])
    assert rid.version == 5
    assert rows[0]["_id"] == hashing.hash_value(ARRAYS)


def test_hash_thread_safety():
    """Deterministic IDs under concurrency (mirrors the reference's
    thread-safety pin, test_flattening_ids.py:198-227)."""
    import concurrent.futures

    record = {"id": 7, "nested": {"a": [1, 2, {"b": "x"}]}}
    expected = hashing.hash_value(record)
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: hashing.hash_value(record), range(200)))
    assert all(r == expected for r in results)
