"""File formats: tensor containers, checkpoints, PGM heatmaps, CSV tables.

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
write leaves the previous file, not a partial one.  Every CSV table goes
through ``write_csv``, and ``au_columns`` names its AU columns.  JSON inputs
go through ``load_json_object`` and ``read_fields``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
import struct
import uuid
from typing import BinaryIO, Dict, Iterable, Iterator, IO, List, Mapping, Sequence

import numpy as np

from .errors import ConfigError, FormatError, IoError, ShapeError

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
def _io_errors(verb: str, what: str, path) -> Iterator[None]:
    """Turn an ``OSError`` inside into ``IoError("cannot {verb} {what} {path}: ...")``."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"cannot {verb} {what} {path}: {exc}") from exc


@contextlib.contextmanager
def atomic_write(path, what: str, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """Open a new temporary file beside ``path``; rename it onto ``path`` on success.

    ``mode`` is a write mode ("w" or "wb"); ``kwargs`` go to ``open``.  If
    the block raises, the temporary file is removed and ``path`` keeps its
    old contents; an ``OSError`` is an ``IoError`` naming ``what``.  The
    rename is atomic on POSIX and Windows; there is no fsync, so this
    guards against failed and killed writes, not power loss.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    with _io_errors("write", what, path):
        try:
            with open(tmp, mode.replace("w", "x"), **kwargs) as fp:
                yield fp
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


@contextlib.contextmanager
def reading(path, what: str, mode: str = "rb", **kwargs) -> Iterator[IO]:
    """Open ``path`` to read; an ``OSError`` from the open or the block becomes an ``IoError``."""
    with _io_errors("read", what, path), open(path, mode, **kwargs) as fp:
        yield fp


def make_dirs(path, what: str) -> None:
    """Create directory ``path`` and its parents, if missing; an ``OSError`` is an ``IoError``."""
    with _io_errors("create", what, path):
        os.makedirs(path, exist_ok=True)


def au_columns(m: int) -> List[str]:
    """The names of ``m`` AU columns, 1-based: ``au_1`` .. ``au_m``."""
    return [f"au_{j}" for j in range(1, m + 1)]


def write_csv(path, header: Sequence, rows: Iterable[Sequence], what: str,
              lineterminator: str = "\r\n") -> None:
    """Write ``header`` and then ``rows`` as a CSV file, through ``atomic_write``.

    ``rows`` is drawn while the file is open, so an error it raises leaves
    the old file.
    """
    with atomic_write(path, what, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


def load_json_object(path, what: str) -> dict:
    """Read ``path`` as one JSON object; errors name ``what`` ("spec file") and the path."""
    try:
        with reading(path, what) as fp:
            payload = json.loads(fp.read())
    except ValueError as exc:  # also bytes that are not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return payload


def _number(value, whole: bool = False):
    """An int or float, no bool or string; with ``whole``, a whole one (3 or 3.0) as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            whole and not float(value).is_integer()):
        raise ValueError(f"must hold {'whole ' * whole}numbers, got {value!r}")
    return int(value) if whole else float(value)


def _array(value, whole: bool = False) -> np.ndarray:
    cells = np.asarray(value, dtype=object)
    return np.array([_number(v, whole) for v in cells.flat],
                    dtype=np.int64 if whole else np.float64).reshape(cells.shape)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


#: The reader of a field's value, by the field's annotation (postponed, so a string).
FIELD_READERS = {"int": lambda value: _number(value, whole=True), "float": _number,
                 "bool": _boolean, "np.ndarray": _array,
                 "IntArray": lambda value: _array(value, whole=True)}


def read_fields(cls, payload: Mapping, what: str) -> dict:
    """``payload``'s values for dataclass ``cls``, each read by its field's annotation."""
    types = {field.name: field.type for field in dataclasses.fields(cls)}
    values = {}
    for key, value in payload.items():
        if key not in types:
            raise ConfigError(f"{what}: unknown key {key!r}")
        try:
            values[key] = FIELD_READERS[types[key]](value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{what}: key {key!r}: {exc}") from exc
    return values


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
    with atomic_write(path, "tensor file") as fp:
        write_tensor(fp, array)


def load_tensor(path) -> np.ndarray:
    with reading(path, "tensor file") as fp:
        reader = _Reader(fp)
        array = read_tensor(reader)
        if not reader.at_eof():
            raise FormatError("trailing data after tensor payload", offset=reader.offset)
    return array


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, entries: Dict[str, np.ndarray]) -> None:
    with atomic_write(path, "checkpoint") as fp:
        fp.write(CHECKPOINT_MAGIC)
        fp.write(bytes((FORMAT_VERSION,)))
        fp.write(struct.pack("<I", _check_u32(len(entries), "entry count")))
        for name, array in entries.items():
            encoded = name.encode("utf-8")
            fp.write(struct.pack("<I", _check_u32(len(encoded), "name length")))
            fp.write(encoded)
            write_tensor(fp, array)


def load_checkpoint(path) -> Dict[str, np.ndarray]:
    with reading(path, "checkpoint") as fp:
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
    with atomic_write(path, "PGM file") as fp:
        fp.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fp.write(levels.tobytes(order="C"))
