"""Property test over the predict-payload parser.

Whatever bytes a client sends, :func:`_parse_predict_payload` either
returns a float64 array (the model's input dtype; shape and finiteness
are ``validate_input``'s to check) or raises an :class:`_HTTPError` with
status 400 — never any other exception, which the HTTP layer would turn
into a 500.  Three kinds of body are drawn: raw bytes, JSON documents
with random ``acid`` and ``deadline_ms`` values (some with non-UTF-8
bytes spliced in), and npz archives with random member names, shapes
and dtypes (some with one byte corrupted).
"""

import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve.server import _HTTPError, _parse_predict_payload

CLIP_SHAPE = (2, 3, 3)

#: integers reach past float64's range: JSON has no bound on them
NUMBERS = st.integers(-10**400, 10**400) | st.floats()
JSON_SCALARS = st.none() | st.booleans() | NUMBERS | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=24)
#: nested lists shaped like a clip (or close to one)
CLIP_LISTS = hnp.arrays(
    np.float64, st.sampled_from([CLIP_SHAPE, (1,) + CLIP_SHAPE, (3, 3), (2,)]),
).map(lambda array: array.tolist())
QUERIES = st.just({}) | st.builds(
    lambda value: {"deadline_ms": [value]}, st.text(max_size=8))
#: bytes that never start a valid UTF-8 sequence, or start one and stop
NOT_UTF8 = st.sampled_from([b"\xff", b"\xfe", b"\xc3", b"\x80", b"\xed\xa0\x80",
                            b"\xf4\x90\x80\x80"])

DTYPES = st.sampled_from([
    np.bool_, np.int8, np.uint16, np.int64, np.float16, np.float32, np.float64,
    np.complex64, np.complex128, np.dtype("U2"), np.dtype("S3"),
    np.dtype("M8[s]"), np.dtype([("a", "<f8"), ("b", "<i4")]),
])
SHAPES = st.sampled_from([CLIP_SHAPE, (1,) + CLIP_SHAPE, (3,) + CLIP_SHAPE,
                          (), (0,), (2, 3), CLIP_SHAPE[::-1]])
MEMBERS = st.sampled_from(["acid", "Acid", "x", "acid.npy", "acid/acid"]) \
    | st.text(max_size=6)


def assert_float64_or_400(body: bytes, as_json: bool, query: dict) -> None:
    try:
        acid, deadline_ms = _parse_predict_payload(body, as_json, query,
                                                   CLIP_SHAPE)
    except _HTTPError as error:
        assert error.status == 400, error.message
        return
    assert isinstance(acid, np.ndarray) and acid.dtype == np.float64
    assert deadline_ms is None or math.isfinite(deadline_ms)


@st.composite
def json_bodies(draw) -> bytes:
    document = draw(JSON_VALUES | st.fixed_dictionaries({}, optional={
        "acid": CLIP_LISTS | st.lists(NUMBERS, max_size=4) | JSON_VALUES,
        "deadline_ms": JSON_SCALARS | JSON_VALUES}))
    body = json.dumps(document).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(NOT_UTF8) + body[at:]
    return body


@st.composite
def npz_bodies(draw) -> bytes:
    names = draw(st.lists(MEMBERS, max_size=2, unique=True))
    if draw(st.booleans()):
        names.insert(0, "acid")
    members = {name: draw(hnp.arrays(draw(DTYPES), draw(SHAPES)))
               for name in names}
    buffer = io.BytesIO()
    save = np.savez_compressed if draw(st.booleans()) else np.savez
    save(buffer, **members)
    body = bytearray(buffer.getvalue())
    if draw(st.booleans()):  # corrupt one byte, mostly in the first member
        at = draw(st.integers(0, len(body) // 2) | st.integers(0, len(body) - 1))
        body[at] ^= draw(st.integers(1, 255))
    return bytes(body)


@settings(max_examples=150, deadline=None)
@given(body=st.binary(max_size=256), as_json=st.booleans(), query=QUERIES)
def test_raw_bytes(body, as_json, query):
    assert_float64_or_400(body, as_json, query)


@settings(max_examples=150, deadline=None)
@given(body=json_bodies(), query=QUERIES)
def test_json_documents(body, query):
    assert_float64_or_400(body, True, query)


@settings(max_examples=300, deadline=None)
@given(body=npz_bodies(), query=QUERIES)
def test_npz_archives(body, query):
    assert_float64_or_400(body, False, query)
