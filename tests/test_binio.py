"""Artifact container: determinism, round-trips, corruption detection."""
import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from brandlink.binio import (
    _HEADER,
    CONTAINER_VERSION,
    MAGIC,
    ArtifactChecksumError,
    ArtifactFormatError,
    ArtifactTruncatedError,
    ArtifactVersionError,
    csr_blobs,
    csr_from_blobs,
    read_artifact,
    write_artifact,
)


def test_round_trip(tmp_path):
    path = tmp_path / "model.blaf"
    meta = {"labels": ["a", "b"], "dim": 8}
    blobs = {
        "weights": np.arange(6, dtype=np.float64).reshape(2, 3),
        "counts": np.array([1, 2, 3], dtype=np.int64),
    }
    write_artifact(path, "xmc-model", 1, meta, blobs)
    got_meta, got_blobs = read_artifact(path, "xmc-model", 1)
    assert got_meta == meta
    assert set(got_blobs) == {"weights", "counts"}
    assert np.array_equal(got_blobs["weights"], blobs["weights"])
    assert got_blobs["weights"].dtype == np.float64
    assert np.array_equal(got_blobs["counts"], blobs["counts"])


def test_identical_inputs_identical_bytes(tmp_path):
    blobs = {"w": np.ones(4, dtype=np.float32)}
    a, b = tmp_path / "a.blaf", tmp_path / "b.blaf"
    write_artifact(a, "pt-model", 1, {"x": 1}, blobs)
    write_artifact(b, "pt-model", 1, {"x": 1}, blobs)
    assert a.read_bytes() == b.read_bytes()


def test_bytes_follow_the_documented_layout(tmp_path):
    path = tmp_path / "x.blaf"
    blobs = {"b": np.arange(3, dtype=np.int32), "a": np.ones((2, 2), dtype=np.float32)}
    write_artifact(path, "k", 2, {"n": "é"}, blobs)
    directory = [
        {"dtype": "<f4", "name": "a", "nbytes": 16, "offset": 0, "shape": [2, 2]},
        {"dtype": "<i4", "name": "b", "nbytes": 12, "offset": 16, "shape": [3]},
    ]
    document = {
        "_container": {"blobs": directory, "kind": "k", "kind_version": 2},
        "meta": {"n": "é"},
    }
    meta_bytes = json.dumps(document, separators=(",", ":"), ensure_ascii=False).encode()
    # Spaces start the blobs on an 8-byte boundary; zeros pad each blob.
    meta_bytes += b" " * (-(4 + len(meta_bytes)) % 8)
    payload = (
        struct.pack("<I", len(meta_bytes))
        + meta_bytes
        + blobs["a"].tobytes()
        + blobs["b"].tobytes()
        + bytes(4)
    )
    header = _HEADER.pack(
        MAGIC, CONTAINER_VERSION, len(payload), hashlib.sha256(payload).digest()
    )
    assert path.read_bytes() == header + payload


def test_write_holds_no_copy_of_a_blob(tmp_path):
    blob = np.arange(2**20, dtype=np.float64)  # 8 MiB
    tracemalloc.start()
    try:
        write_artifact(tmp_path / "x.blaf", "k", 1, {}, {"w": blob})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < blob.nbytes // 8


def test_blob_name_order_does_not_matter(tmp_path):
    first = {"a": np.ones(2), "b": np.zeros(3)}
    second = {"b": np.zeros(3), "a": np.ones(2)}
    pa, pb = tmp_path / "a.blaf", tmp_path / "b.blaf"
    write_artifact(pa, "k", 1, {}, first)
    write_artifact(pb, "k", 1, {}, second)
    assert pa.read_bytes() == pb.read_bytes()


def test_wrong_kind_rejected(tmp_path):
    path = tmp_path / "x.blaf"
    write_artifact(path, "pt-model", 1, {}, {})
    with pytest.raises(ArtifactFormatError):
        read_artifact(path, "xmc-model", 1)


def test_wrong_kind_version_rejected(tmp_path):
    path = tmp_path / "x.blaf"
    write_artifact(path, "pt-model", 1, {}, {})
    with pytest.raises(ArtifactVersionError):
        read_artifact(path, "pt-model", 2)


def test_not_an_artifact(tmp_path):
    path = tmp_path / "x.blaf"
    path.write_bytes(b"PK\x03\x04 definitely a zip" + b"\x00" * 40)
    with pytest.raises(ArtifactFormatError):
        read_artifact(path, "pt-model", 1)


def test_truncation_detected(tmp_path):
    path = tmp_path / "x.blaf"
    write_artifact(path, "pt-model", 1, {"k": "v"}, {"w": np.ones(8)})
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 5])
    with pytest.raises(ArtifactTruncatedError):
        read_artifact(path, "pt-model", 1)


def test_bit_flip_detected(tmp_path):
    path = tmp_path / "x.blaf"
    write_artifact(path, "pt-model", 1, {"k": "v"}, {"w": np.ones(8)})
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(ArtifactChecksumError):
        read_artifact(path, "pt-model", 1)


def test_trailing_garbage_detected(tmp_path):
    path = tmp_path / "x.blaf"
    write_artifact(path, "pt-model", 1, {}, {})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ArtifactTruncatedError):
        read_artifact(path, "pt-model", 1)


def _seal(path, payload, version=CONTAINER_VERSION, payload_len=None):
    """Write ``payload`` under a header carrying its valid checksum."""
    digest = hashlib.sha256(payload).digest()
    length = len(payload) if payload_len is None else payload_len
    path.write_bytes(_HEADER.pack(MAGIC, version, length, digest) + payload)


def _rewrite_directory(path, edit, align=True, blob=0):
    """Apply ``edit`` to the stored directory entry of the ``blob``-th blob,
    in name order, and re-seal the checksum.

    With ``align`` the metadata block is padded as the writer pads it;
    without it the blob area is left off the 8-byte grid.
    """
    data = path.read_bytes()
    payload = data[_HEADER.size :]
    (meta_len,) = struct.unpack_from("<I", payload)
    document = json.loads(payload[4 : 4 + meta_len])
    edit(document["_container"]["blobs"][blob])
    meta = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    while ((4 + len(meta)) % 8 == 0) != align:
        meta += b" "
    _seal(path, struct.pack("<I", len(meta)) + meta + payload[4 + meta_len :])


@pytest.mark.parametrize(
    "edit",
    [
        lambda entry: entry.update(shape=[2, 2]),
        lambda entry: entry.update(shape=[7]),
        lambda entry: entry.update(shape=[-2, -3]),
        lambda entry: entry.update(dtype="<f4"),
        lambda entry: entry.update(dtype="<u8"),
        lambda entry: entry.update(nbytes=8),
        lambda entry: entry.pop("shape"),
        lambda entry: entry.update(offset=4),
    ],
    ids=["shape-short", "shape-long", "shape-negative", "dtype-narrow", "dtype-unknown",
         "nbytes", "no-shape", "offset-unaligned"],
)
def test_blob_size_must_match_shape_and_dtype(tmp_path, edit):
    path = tmp_path / "x.blaf"
    write_artifact(path, "k", 1, {}, {"w": np.arange(6, dtype=np.float64).reshape(2, 3)})
    _rewrite_directory(path, edit)
    with pytest.raises(ArtifactFormatError):
        read_artifact(path, "k", 1)


@pytest.mark.parametrize(
    "field, value",
    [("offset", 32.9), ("offset", 32.0), ("offset", "32"), ("nbytes", "48"), ("nbytes", 48.0)],
    ids=["offset-fraction", "offset-float", "offset-string", "nbytes-string", "nbytes-float"],
)
def test_blob_offset_and_size_must_be_integers(tmp_path, field, value):
    # Blob "b" lies at offset 32 and holds 48 bytes; each crafted entry
    # names the same place and size in another JSON type.
    path = tmp_path / "x.blaf"
    blobs = {"a": np.arange(4, dtype=np.float64), "b": np.arange(6, dtype=np.float64)}
    write_artifact(path, "k", 1, {}, blobs)
    _rewrite_directory(path, lambda entry: entry.update({field: value}), blob=1)
    with pytest.raises(ArtifactFormatError):
        read_artifact(path, "k", 1)


def test_blobs_are_read_only_views(tmp_path):
    path = tmp_path / "x.blaf"
    write_artifact(path, "k", 1, {}, {"a": np.ones(3), "b": np.arange(4)})
    _, blobs = read_artifact(path, "k", 1)
    for blob in blobs.values():
        assert not blob.flags.writeable
        assert not blob.flags.owndata


def _owner(array):
    """The object that owns the memory under ``array``."""
    while True:
        if isinstance(array, np.ndarray) and array.base is not None:
            array = array.base
        elif isinstance(array, memoryview):
            array = array.obj
        else:
            return array


def test_blobs_are_aligned_views_of_one_buffer(tmp_path):
    # Odd-length int32 blobs sort before and between the wider ones, so
    # only the padding keeps the later blobs on their 8-byte grid.
    path = tmp_path / "x.blaf"
    written = {
        "a": np.arange(3, dtype=np.int32),
        "b": np.linspace(0.0, 1.0, 5),
        "c": np.arange(1, dtype=np.int32),
        "d": np.arange(7, dtype=np.int64),
        "e": np.ones(3, dtype=np.float32),
        "f": np.arange(0, dtype=np.float64),
        "g": np.arange(2, dtype=np.float64),
    }
    for meta in ({}, {"pad": "x"}, {"pad": "xx"}, {"pad": "xxxx"}):
        write_artifact(path, "k", 1, meta, written)
        _, blobs = read_artifact(path, "k", 1)
        owners = {id(_owner(blob)) for blob in blobs.values()}
        assert len(owners) == 1 and owners != {id(None)}
        for name, blob in blobs.items():
            assert np.array_equal(blob, written[name])
            assert blob.ctypes.data % 8 == 0 and blob.flags.aligned
            assert not blob.flags.writeable


def test_csr_is_served_as_views_of_its_blobs(tmp_path):
    matrix = sp.random(100, 5, density=0.3, format="csr", random_state=0, dtype=np.float32)
    path = tmp_path / "w.blaf"
    write_artifact(path, "k", 1, {}, csr_blobs(matrix, "w"))
    _, blobs = read_artifact(path, "k", 1)
    loaded = csr_from_blobs(path, blobs, "w", matrix.shape)
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(loaded, name), blobs[f"w/{name}"])
        assert np.array_equal(getattr(loaded, name), getattr(matrix, name))


def test_csr_values_stored_as_float32():
    # The blobs are the matrix's own arrays: a model's float32 stack is
    # stored as float32, and checking its values is the model's concern.
    matrix = sp.csr_matrix(np.array([[0.1, 0.0], [0.0, -3e38]], dtype=np.float32))
    blobs = csr_blobs(matrix, "w")
    for name in ("data", "indices", "indptr"):
        assert blobs[f"w/{name}"] is getattr(matrix, name)
    assert blobs["w/data"].dtype == np.float32


def test_int64_indices_that_fit_int32_rejected(tmp_path):
    # scipy would serve them as an int32 copy; no writer stores them so.
    matrix = sp.random(3, 5, density=0.5, format="csr", random_state=0)
    blobs = csr_blobs(matrix, "w")
    for name in ("w/indices", "w/indptr"):
        blobs[name] = blobs[name].astype(np.int64)
    path = tmp_path / "w.blaf"
    write_artifact(path, "k", 1, {}, blobs)
    _, blobs = read_artifact(path, "k", 1)
    with pytest.raises(ArtifactFormatError, match="int64"):
        csr_from_blobs(path, blobs, "w", matrix.shape)


def test_entries_past_the_last_row_pointer_rejected(tmp_path):
    # scipy would serve a prefix of the stored entries, which a model's
    # checks could not tell from a well-formed matrix.
    matrix = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32))
    blobs = csr_blobs(matrix, "w")
    blobs["w/indptr"] = blobs["w/indptr"] - np.array([0, 0, 1], dtype=np.int32)
    path = tmp_path / "w.blaf"
    write_artifact(path, "k", 1, {}, blobs)
    _, blobs = read_artifact(path, "k", 1)
    with pytest.raises(ArtifactFormatError):
        csr_from_blobs(path, blobs, "w", matrix.shape)


def test_unaligned_blob_area_rejected(tmp_path):
    path = tmp_path / "x.blaf"
    write_artifact(path, "k", 1, {}, {"w": np.ones(4)})
    _rewrite_directory(path, lambda entry: None, align=False)
    with pytest.raises(ArtifactFormatError):
        read_artifact(path, "k", 1)


def test_version_1_container_rejected(tmp_path):
    # Version 1 stored the same document with no padding at all.
    directory = [{"dtype": "<f8", "name": "w", "nbytes": 16, "offset": 0, "shape": [2]}]
    document = {"_container": {"blobs": directory, "kind": "k", "kind_version": 1}, "meta": {}}
    meta = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    path = tmp_path / "x.blaf"
    _seal(path, struct.pack("<I", len(meta)) + meta + np.ones(2).tobytes(), version=1)
    with pytest.raises(ArtifactVersionError):
        read_artifact(path, "k", 1)


def test_declared_length_checked_against_file_size(tmp_path):
    # A crafted header claiming 1 TiB must fail before anything is allocated.
    path = tmp_path / "x.blaf"
    write_artifact(path, "k", 1, {}, {"w": np.ones(4)})
    payload = path.read_bytes()[_HEADER.size :]
    _seal(path, payload, payload_len=2**40)
    tracemalloc.start()
    try:
        with pytest.raises(ArtifactTruncatedError):
            read_artifact(path, "k", 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_artifact(
            tmp_path / "x.blaf", "k", 1, {}, {"w": np.array(["a"], dtype=object)}
        )


@given(
    meta=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.text(max_size=8), st.booleans()),
        max_size=4,
    ),
    blob=hnp.arrays(
        dtype=st.sampled_from([np.float32, np.float64, np.int32, np.int64]),
        shape=hnp.array_shapes(max_dims=2, max_side=5),
        elements=st.integers(min_value=-100, max_value=100),
    ),
)
def test_round_trip_property(tmp_path_factory, meta, blob):
    path = tmp_path_factory.mktemp("blaf") / "x.blaf"
    write_artifact(path, "k", 3, meta, {"b": blob})
    got_meta, got_blobs = read_artifact(path, "k", 3)
    assert got_meta == meta
    assert np.array_equal(got_blobs["b"], blob)
    assert got_blobs["b"].shape == blob.shape
