"""Binary artifact container used by every serialized model.

Layout (container version 2): magic, container version, payload length,
SHA-256 of the payload, then the payload itself.  The payload is the
length of a canonical JSON metadata block, the block itself padded with
spaces so the blob area starts on an 8-byte boundary, then raw
little-endian array blobs described by that metadata, each padded with
zero bytes to a multiple of 8.  Writes are deterministic: identical inputs
produce identical bytes.

Reads fill one aligned payload buffer, hash it, and return read-only array
views over it, so every blob is aligned for its dtype: numpy gathers from
an unaligned view far more slowly.  A CSR matrix is stored as its three
arrays, as they are, and served as a scipy matrix built on their views,
with no conversion or copy.  This module knows nothing of what a model
stores: each model checks the arrays it is handed before any query
reads them.
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import struct
from pathlib import Path

import numpy as np
import scipy.sparse as sp

MAGIC = b"BLAF"
CONTAINER_VERSION = 2

_HEADER = struct.Struct("<4sIQ32s")
_ALIGN = 8

_ALLOWED_DTYPES = {"<f4", "<f8", "<i4", "<i8"}


class ArtifactError(Exception):
    """Base class for artifact file problems."""


class ArtifactFormatError(ArtifactError):
    """Not an artifact file, or an artifact of the wrong kind."""


class ArtifactVersionError(ArtifactError):
    """Container or kind version not supported by this reader."""


class ArtifactChecksumError(ArtifactError):
    """Payload bytes do not match the stored digest."""


class ArtifactTruncatedError(ArtifactError):
    """File ends before the declared payload does."""


def _padding(nbytes: int) -> int:
    """Bytes that take ``nbytes`` up to the next multiple of :data:`_ALIGN`."""
    return -nbytes % _ALIGN


def write_artifact(
    path: str | Path,
    kind: str,
    kind_version: int,
    meta: dict,
    blobs: dict[str, np.ndarray],
) -> None:
    """Write one artifact file.

    Args:
        path: Destination file path.
        kind: Artifact kind tag, e.g. ``"xmc-model"``.
        kind_version: Format version of this kind's payload.
        meta: JSON-serializable metadata (must not contain ``_container``).
        blobs: Named arrays stored after the metadata block.
    """
    directory = []
    arrays = []
    offset = 0
    for name in sorted(blobs):
        array = np.ascontiguousarray(blobs[name])
        dtype = array.dtype.newbyteorder("<").str
        if dtype not in _ALLOWED_DTYPES:
            raise ValueError(f"unsupported blob dtype {array.dtype} for {name!r}")
        array = array.astype(dtype, copy=False)
        directory.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": array.nbytes,
            }
        )
        arrays.append(array)
        offset += array.nbytes + _padding(array.nbytes)

    document = {
        "_container": {
            "kind": kind,
            "kind_version": kind_version,
            "blobs": directory,
        },
        "meta": meta,
    }
    meta_bytes = json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    meta_bytes += b" " * _padding(4 + len(meta_bytes))
    # The payload is hashed and written piece by piece, never assembled.
    pieces = [struct.pack("<I", len(meta_bytes)), meta_bytes]
    for array in arrays:
        pieces += [array, bytes(_padding(array.nbytes))]
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    payload_len = 4 + len(meta_bytes) + offset
    header = _HEADER.pack(MAGIC, CONTAINER_VERSION, payload_len, digest.digest())
    with open(path, "wb") as handle:
        handle.write(header)
        for piece in pieces:
            handle.write(piece)


def read_artifact(
    path: str | Path,
    kind: str,
    kind_version: int,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and verify one artifact file.

    The payload is read into one buffer, which numpy allocates aligned,
    and hashed there; nothing is copied after that.

    Returns:
        The stored metadata and the named blob arrays, as read-only views
        over the payload buffer.

    Raises:
        ArtifactFormatError: Bad magic, mismatched kind, a blob directory
            whose shape, offset or byte count is not integers, an
            unaligned blob or a blob whose dtype, shape and byte count
            disagree.
        ArtifactVersionError: Unsupported container or kind version.
        ArtifactTruncatedError: File size differs from the declared payload.
        ArtifactChecksumError: Payload digest mismatch.
    """
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ArtifactTruncatedError(f"{path}: truncated header")
        magic, container_version, payload_len, digest = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ArtifactFormatError(f"{path}: not an artifact file")
        if container_version != CONTAINER_VERSION:
            raise ArtifactVersionError(
                f"{path}: container version {container_version}, expected {CONTAINER_VERSION}"
            )
        # Checked before allocating: a crafted length must not ask for
        # more memory than the file holds.
        if payload_len != os.fstat(handle.fileno()).st_size - _HEADER.size:
            raise ArtifactTruncatedError(f"{path}: payload length mismatch")
        payload = np.empty(payload_len, dtype=np.uint8)
        if handle.readinto(payload) != payload_len:
            raise ArtifactTruncatedError(f"{path}: payload length mismatch")
    if hashlib.sha256(payload).digest() != digest:
        raise ArtifactChecksumError(f"{path}: payload checksum mismatch")
    payload.setflags(write=False)

    if payload_len < 4:
        raise ArtifactTruncatedError(f"{path}: metadata block overruns payload")
    (meta_len,) = struct.unpack_from("<I", payload)
    body = 4 + meta_len
    if body > payload_len:
        raise ArtifactTruncatedError(f"{path}: metadata block overruns payload")
    # One array per blob over a memoryview, so each view's base is its own
    # size: scipy copies any index or data array it sees as a small view
    # of a much larger array.
    buffer = memoryview(payload)
    blobs: dict[str, np.ndarray] = {}
    try:
        document = json.loads(payload[4:body].tobytes().decode("utf-8"))
        container = document["_container"]
        stored_kind = container["kind"]
        stored_version = container["kind_version"]
        meta = document["meta"]
        if stored_kind != kind:
            raise ArtifactFormatError(f"{path}: artifact kind {stored_kind!r}, expected {kind!r}")
        if stored_version != kind_version:
            raise ArtifactVersionError(
                f"{path}: {kind} format version {stored_version}, expected {kind_version}"
            )
        for entry in container["blobs"]:
            name, dtype = entry["name"], np.dtype(entry["dtype"])
            if not isinstance(name, str):
                raise TypeError(f"blob name {name!r} is not a string")
            shape = tuple(operator.index(n) for n in entry["shape"])
            start = body + operator.index(entry["offset"])
            nbytes = operator.index(entry["nbytes"])
            count = math.prod(shape)
            if (
                dtype.str not in _ALLOWED_DTYPES
                or min(shape, default=0) < 0
                or nbytes != count * dtype.itemsize
            ):
                raise ArtifactFormatError(f"{path}: blob {name!r} dtype, shape and size disagree")
            if start % _ALIGN:
                raise ArtifactFormatError(f"{path}: blob {name!r} is not {_ALIGN}-byte aligned")
            if start < body or start + nbytes > payload_len:
                raise ArtifactTruncatedError(f"{path}: blob {name!r} overruns payload")
            blobs[name] = np.frombuffer(buffer, dtype, count, start).reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"{path}: malformed metadata or blob directory") from exc
    return meta, blobs


def csr_blobs(matrix: sp.csr_matrix, prefix: str) -> dict[str, np.ndarray]:
    """A CSR matrix's arrays, as they are, as the ``<prefix>/data|indices|indptr`` blobs."""
    return {
        f"{prefix}/data": matrix.data,
        f"{prefix}/indices": matrix.indices,
        f"{prefix}/indptr": matrix.indptr,
    }


def csr_from_blobs(
    path: str | Path, blobs: dict[str, np.ndarray], prefix: str, shape: tuple[int, int]
) -> sp.csr_matrix:
    """Serve a matrix written by :func:`csr_blobs` straight from its blob views.

    scipy's constructor compares only array lengths and the end row
    pointers, raising ValueError, and reads no entry through an index; the
    model that keeps the matrix checks the rest before any query reads it.
    Raises KeyError for a missing blob and ArtifactFormatError where scipy
    would serve other arrays than the blobs.
    """
    data = blobs[f"{prefix}/data"]
    indices = blobs[f"{prefix}/indices"]
    indptr = blobs[f"{prefix}/indptr"]
    matrix = sp.csr_matrix((data, indices, indptr), shape=shape, copy=False)
    # scipy copies int64 index arrays that fit int32, or two index dtypes,
    # into one narrowest dtype, and cuts entries past the last row pointer.
    if (matrix.indices.dtype, matrix.indptr.dtype, matrix.nnz) != (
        indices.dtype, indptr.dtype, len(indices)
    ):
        raise ArtifactFormatError(
            f"{path}: {prefix} has int64 indices that fit int32, index arrays of"
            " two dtypes, or entries past its last row pointer"
        )
    return matrix
