"""Binary artifact container used by every serialized model.

Layout: magic, container version, payload length, SHA-256 of the payload,
then the payload itself.  The payload is a canonical JSON metadata block
followed by raw little-endian array blobs described by that metadata.
Writes are deterministic: identical inputs produce identical bytes.
Reads return read-only array views over one payload buffer, and sparse
matrices are range-checked before any reader builds on them.
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
import struct
from pathlib import Path

import numpy as np
import scipy.sparse as sp

MAGIC = b"BLAF"
CONTAINER_VERSION = 1

_HEADER = struct.Struct("<4sIQ32s")

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
        offset += array.nbytes

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
    # The payload is hashed and written piece by piece, never assembled.
    pieces = [struct.pack("<I", len(meta_bytes)), meta_bytes, *arrays]
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

    Returns:
        The stored metadata and the named blob arrays, as read-only views
        over the payload.

    Raises:
        ArtifactFormatError: Bad magic, mismatched kind, or a blob whose
            dtype, shape and byte count disagree.
        ArtifactVersionError: Unsupported container or kind version.
        ArtifactTruncatedError: File shorter than its declared payload.
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
        payload = handle.read(payload_len)
        if len(payload) < payload_len or handle.read(1):
            raise ArtifactTruncatedError(f"{path}: payload length mismatch")
    if hashlib.sha256(payload).digest() != digest:
        raise ArtifactChecksumError(f"{path}: payload checksum mismatch")

    (meta_len,) = struct.unpack_from("<I", payload)
    if 4 + meta_len > len(payload):
        raise ArtifactTruncatedError(f"{path}: metadata block overruns payload")
    try:
        document = json.loads(payload[4 : 4 + meta_len].decode("utf-8"))
        container = document["_container"]
        stored_kind = container["kind"]
        stored_version = container["kind_version"]
        directory = container["blobs"]
        meta = document["meta"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactFormatError(f"{path}: malformed metadata block") from exc
    if stored_kind != kind:
        raise ArtifactFormatError(
            f"{path}: artifact kind {stored_kind!r}, expected {kind!r}"
        )
    if stored_version != kind_version:
        raise ArtifactVersionError(
            f"{path}: {kind} format version {stored_version}, expected {kind_version}"
        )

    body = memoryview(payload)[4 + meta_len :]
    blobs: dict[str, np.ndarray] = {}
    for entry in directory:
        try:
            name, dtype = entry["name"], np.dtype(entry["dtype"])
            shape = tuple(operator.index(n) for n in entry["shape"])
            start, nbytes = int(entry["offset"]), int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactFormatError(f"{path}: malformed blob directory") from exc
        count = math.prod(shape)
        if (
            dtype.str not in _ALLOWED_DTYPES
            or min(shape, default=0) < 0
            or nbytes != count * dtype.itemsize
        ):
            raise ArtifactFormatError(f"{path}: blob {name!r} dtype, shape and size disagree")
        if start < 0 or start + nbytes > len(body):
            raise ArtifactTruncatedError(f"{path}: blob {name!r} overruns payload")
        blobs[name] = np.frombuffer(body, dtype, count, start).reshape(shape)
    return meta, blobs


def csc_blobs(matrix: sp.spmatrix, prefix: str) -> dict[str, np.ndarray]:
    """A matrix as the ``<prefix>/data|indices|indptr`` CSC blobs it is stored as."""
    csc = matrix.tocsc()
    csc.sort_indices()
    return {
        f"{prefix}/data": csc.data.astype(np.float64, copy=False),
        f"{prefix}/indices": csc.indices.astype(np.int64),
        f"{prefix}/indptr": csc.indptr.astype(np.int64),
    }


def csr_from_csc_blobs(
    path: str | Path, blobs: dict[str, np.ndarray], prefix: str, shape: tuple[int, int]
) -> sp.csr_matrix:
    """Rebuild a matrix written by :func:`csc_blobs`, row-major.

    Raises KeyError for a missing blob and ArtifactFormatError for a
    structure scipy's unchecked conversion loops must not see or a
    non-finite value, which would mis-score every query.
    """
    data = np.asarray(blobs[f"{prefix}/data"], dtype=np.float64)
    indices = np.asarray(blobs[f"{prefix}/indices"], dtype=np.int64)
    indptr = np.asarray(blobs[f"{prefix}/indptr"], dtype=np.int64)
    n_rows, n_cols = shape
    if (
        indices.ndim != 1
        or indptr.shape != (n_cols + 1,)
        or indptr[0] != 0
        or np.any(indptr[1:] < indptr[:-1])
        or indptr[-1] != len(indices)
        or data.shape != indices.shape
    ):
        raise ArtifactFormatError(f"{path}: {prefix} has a malformed indptr")
    if not np.all(np.isfinite(data)):
        raise ArtifactFormatError(f"{path}: {prefix} has a non-finite value")
    if len(indices) and (indices.min() < 0 or indices.max() >= n_rows):
        raise ArtifactFormatError(f"{path}: {prefix} has a row index out of range")
    return sp.csc_matrix((data, indices, indptr), shape=shape).tocsr()
