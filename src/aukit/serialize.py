"""Binary file formats: tensor containers, checkpoints, PGM heatmaps.

Tensor container layout (little-endian throughout):

    magic  b"STNT"
    u8     version        (0x01)
    u8     dtype          (0x01 = float64)
    u32    ndim
    u32[]  dims
    f64[]  payload, row-major

Checkpoint layout:

    magic  b"STCK"
    u8     version        (0x01)
    u32    entry count
    per entry: u32 name length, UTF-8 name, embedded tensor container

Malformed input raises ``FormatError`` carrying the byte offset where
parsing failed.  Writers iterate checkpoint entries in insertion order,
so identical dictionaries serialize to identical bytes.  Every file the
toolkit writes goes through ``atomic_write``, so a failed or interrupted
write leaves the previous file, not a partial one.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import uuid
from typing import BinaryIO, Dict, Iterator, IO

import numpy as np

from .errors import FormatError, IoError, ShapeError

TENSOR_MAGIC = b"STNT"
CHECKPOINT_MAGIC = b"STCK"
FORMAT_VERSION = 0x01
DTYPE_F64 = 0x01

_U32_MAX = 2**32 - 1


class _Reader:
    """Wraps a binary stream, tracking the offset for error messages."""

    def __init__(self, fp: BinaryIO, offset: int = 0):
        self._fp = fp
        self.offset = offset
        self._left = os.fstat(fp.fileno()).st_size - fp.tell()

    def take(self, n: int, what: str) -> bytes:
        # ``n`` may come from a header claiming any size: read no more than
        # the file holds, so a huge claim is a FormatError, not a failed
        # allocation.
        data = self._fp.read(min(n, self._left))
        if len(data) != n:
            raise FormatError(
                f"unexpected end of file while reading {what} "
                f"({len(data)} of {n} bytes)",
                offset=self.offset,
            )
        self.offset += n
        self._left -= n
        return data

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def at_eof(self) -> bool:
        probe = self._fp.read(1)
        if probe:
            self._fp.seek(-1, 1)
            return False
        return True


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """Open a new temporary file beside ``path``; rename it onto ``path`` on success.

    ``mode`` is a write mode ("w" or "wb"); ``kwargs`` go to ``open``.  If
    the block raises, the temporary file is removed and ``path`` keeps its
    old contents.  The rename is atomic on POSIX and Windows; there is no
    fsync, so this guards against failed and killed writes, not power loss.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value <= _U32_MAX:
        raise ShapeError(f"{what} {value} does not fit in 32 bits")
    return value


# ---------------------------------------------------------------------------
# Tensor containers
# ---------------------------------------------------------------------------


def write_tensor(fp: BinaryIO, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype=np.float64)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    fp.write(TENSOR_MAGIC)
    fp.write(bytes((FORMAT_VERSION, DTYPE_F64)))
    fp.write(struct.pack("<I", _check_u32(arr.ndim, "ndim")))
    for dim in arr.shape:
        fp.write(struct.pack("<I", _check_u32(dim, "dimension")))
    fp.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(reader: _Reader) -> np.ndarray:
    start = reader.offset
    magic = reader.take(4, "magic")
    if magic != TENSOR_MAGIC:
        raise FormatError(
            f"bad tensor magic {magic!r}, expected {TENSOR_MAGIC!r}", offset=start
        )
    version = reader.take(1, "version")[0]
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported tensor version {version}", offset=start + 4)
    dtype = reader.take(1, "dtype")[0]
    if dtype != DTYPE_F64:
        raise FormatError(f"unsupported dtype code {dtype}", offset=start + 5)
    ndim = reader.u32("ndim")
    dims = tuple(reader.u32(f"dimension {i}") for i in range(ndim))
    payload = reader.take(8 * math.prod(dims), "payload")
    return np.frombuffer(payload, dtype="<f8").reshape(dims).copy()


def save_tensor(path, array: np.ndarray) -> None:
    try:
        with atomic_write(path) as fp:
            write_tensor(fp, array)
    except OSError as exc:
        raise IoError(f"cannot write tensor file {path}: {exc}") from exc


def load_tensor(path) -> np.ndarray:
    try:
        fp = open(path, "rb")
    except OSError as exc:
        raise IoError(f"cannot read tensor file {path}: {exc}") from exc
    with fp:
        reader = _Reader(fp)
        array = read_tensor(reader)
        if not reader.at_eof():
            raise FormatError("trailing data after tensor payload", offset=reader.offset)
    return array


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, entries: Dict[str, np.ndarray]) -> None:
    try:
        with atomic_write(path) as fp:
            fp.write(CHECKPOINT_MAGIC)
            fp.write(bytes((FORMAT_VERSION,)))
            fp.write(struct.pack("<I", _check_u32(len(entries), "entry count")))
            for name, array in entries.items():
                encoded = name.encode("utf-8")
                fp.write(struct.pack("<I", _check_u32(len(encoded), "name length")))
                fp.write(encoded)
                write_tensor(fp, array)
    except OSError as exc:
        raise IoError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path) -> Dict[str, np.ndarray]:
    try:
        fp = open(path, "rb")
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    with fp:
        reader = _Reader(fp)
        magic = reader.take(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(
                f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}",
                offset=0,
            )
        version = reader.take(1, "version")[0]
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}", offset=4)
        count = reader.u32("entry count")
        entries: Dict[str, np.ndarray] = {}
        for i in range(count):
            name_offset = reader.offset
            name_len = reader.u32(f"name length of entry {i}")
            raw = reader.take(name_len, f"name of entry {i}")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"entry {i} name is not valid UTF-8", offset=name_offset + 4
                ) from exc
            if name in entries:
                raise FormatError(
                    f"duplicate checkpoint entry {name!r}", offset=name_offset
                )
            entries[name] = read_tensor(reader)
        if not reader.at_eof():
            raise FormatError(
                "trailing data after last checkpoint entry", offset=reader.offset
            )
    return entries


# ---------------------------------------------------------------------------
# PGM heatmaps
# ---------------------------------------------------------------------------


def save_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D array of values in [0, 1] as a binary (P5) PGM file."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeError(f"PGM image must be 2-D, got shape {img.shape}")
    levels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    height, width = levels.shape
    try:
        with atomic_write(path) as fp:
            fp.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fp.write(levels.tobytes(order="C"))
    except OSError as exc:
        raise IoError(f"cannot write PGM file {path}: {exc}") from exc
