"""Fuzzed inputs for the file readers: any bytes give a value or an OcdgrError.

Each strategy mixes raw bytes with well-formed files that were then cut,
overwritten in one byte or extended, so that most draws get past the magic
number and reach the later checks.
"""

import json
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ocdgr import ExperimentConfig, OcdgrError, load_binary_text, load_idx
from ocdgr.model import load_model

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# JSON texts that parse to something awkward: an int Python will not convert,
# non-finite floats, deep nesting, a lone surrogate, bytes that are not UTF-8.
AWKWARD_JSON = [b"1" * 5000, b"NaN", b"-Infinity", b"1e999", b"[" * 5000 + b"]" * 5000,
                b'"\\ud800"', b"\xff\xfe", b"{}", b"[]", b"null", b"true", b"0"]


@st.composite
def mangled(draw, valid: bytes) -> bytes:
    """valid, then cut short, one byte overwritten, or bytes appended."""
    how = draw(st.sampled_from(["keep", "cut", "overwrite", "append"]))
    if how == "cut":
        return valid[:draw(st.integers(0, len(valid)))]
    if how == "overwrite" and valid:
        at = draw(st.integers(0, len(valid) - 1))
        return valid[:at] + bytes([draw(st.integers(0, 255))]) + valid[at + 1:]
    if how == "append":
        return valid + draw(st.binary(min_size=1, max_size=16))
    return valid


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2000) | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=8,
)


@st.composite
def json_blobs(draw) -> bytes:
    if draw(st.booleans()):
        return draw(st.sampled_from(AWKWARD_JSON))
    return json.dumps(draw(json_values)).encode("utf-8")


@st.composite
def model_files(draw) -> bytes:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    n_v, n_h = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    version = draw(st.sampled_from([1, 1, 1, 0, 2]))
    values = draw(st.lists(st.floats(width=64), min_size=n_h * n_v + n_v + n_h,
                           max_size=n_h * n_v + n_v + n_h))
    blob = draw(st.just(b"") | json_blobs())
    valid = (b"RBMF" + struct.pack("<III", version, n_v, n_h)
             + struct.pack(f"<{len(values)}d", *values) + struct.pack("<I", len(blob)) + blob)
    return draw(mangled(valid))


@st.composite
def idx_files(draw, magic: int, n_dims: int) -> bytes:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=32))
    dims = draw(st.lists(st.integers(-2, 4) | st.just(2**31 - 1), min_size=n_dims, max_size=n_dims))
    payload = draw(st.binary(max_size=80))
    return draw(mangled(struct.pack(f">{1 + n_dims}i", magic, *dims) + payload))


@st.composite
def binary_text_files(draw) -> bytes:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.sampled_from("01"), min_size=width, max_size=width),
                         max_size=5))
    text = "# header\n" + "".join(" ".join(row) + "\n" for row in rows)
    return draw(mangled(text.encode("ascii")))


@st.composite
def config_files(draw) -> bytes:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    base = {"master_seed": 0, "trainer": "ocdgr", "train_dataset": {"kind": "toy"}}
    fields = list(ExperimentConfig.__dataclass_fields__) + ["bogus"]
    for key in draw(st.lists(st.sampled_from(fields), max_size=3)):
        base[key] = draw(json_values)
    text = json.dumps(base).encode("utf-8")
    if draw(st.booleans()):
        # splice an awkward value in as the value of the first key
        text = text.replace(b"0", draw(st.sampled_from(AWKWARD_JSON)), 1)
    return draw(mangled(text))


@FUZZ
@given(blob=model_files())
def test_load_model_value_or_format_error(tmp_path, blob):
    f = tmp_path / "m.rbm"
    f.write_bytes(blob)
    try:
        params, meta = load_model(f)
    except OcdgrError:
        return
    assert params.weights.shape == (params.n_h, params.n_v) and isinstance(meta, dict)
    assert np.isfinite(params.weights).all()


@FUZZ
@given(images=idx_files(0x00000803, 3), labels=idx_files(0x00000801, 1))
def test_load_idx_value_or_format_error(tmp_path, images, labels):
    (tmp_path / "i.idx").write_bytes(images)
    (tmp_path / "l.idx").write_bytes(labels)
    try:
        rows, classes = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    except OcdgrError:
        return
    assert rows.dtype == np.uint8 and classes.dtype == np.uint8
    assert rows.ndim == 2 and classes.shape == (len(rows),)


@FUZZ
@given(blob=binary_text_files())
def test_load_binary_text_value_or_format_error(tmp_path, blob):
    f = tmp_path / "d.txt"
    f.write_bytes(blob)
    try:
        batch = load_binary_text(f)
    except OcdgrError:
        return
    assert batch.rows.dtype == np.uint8 and batch.rows.ndim == 2 and len(batch) > 0
    assert set(np.unique(batch.rows)) <= {0, 1}


@FUZZ
@given(blob=config_files())
def test_config_from_file_value_or_config_error(tmp_path, blob):
    f = tmp_path / "c.json"
    f.write_bytes(blob)
    try:
        config = ExperimentConfig.from_file(f)
    except OcdgrError:
        return
    assert isinstance(config, ExperimentConfig)
