"""Little-endian binary readers/writers for the desclite file formats."""
from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import FormatError


class ByteReader:
    """Sequential reader over a byte buffer that reports offsets on truncation."""

    def __init__(self, data: bytes, source: str = "<bytes>"):
        self.data = data
        self.source = source
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise FormatError(
                f"{self.source}: truncated while reading {what} at byte offset "
                f"{self.offset} (need {n} bytes, {len(self.data) - self.offset} left)"
            )
        out = self.data[self.offset:self.offset + n]
        self.offset += n
        return out

    def magic(self, expected: bytes) -> None:
        got = self.take(len(expected), "magic")
        if got != expected:
            raise FormatError(
                f"{self.source}: bad magic {got!r} at byte offset 0, expected {expected!r}"
            )

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        raw = self.take(itemsize * count, what)
        return np.frombuffer(raw, dtype=dtype, count=count)

    def remaining(self) -> int:
        return len(self.data) - self.offset

    def expect_end(self) -> None:
        if self.remaining():
            raise FormatError(
                f"{self.source}: {self.remaining()} unexpected trailing bytes "
                f"at offset {self.offset}"
            )


def u32_bytes(value: int) -> bytes:
    return struct.pack("<I", value)


def check_u32(values: np.ndarray, what: str) -> None:
    if values.size and (values.min() < 0 or values.max() > 0xFFFFFFFF):
        raise FormatError(f"{what} out of u32 range: [{values.min()}, {values.max()}]")


def write_atomic(path: str, payload: bytes) -> None:
    """Write to a temp file in the target directory, then rename into place.
    The file gets the mode `open` would give a new file, 0o666 less the
    umask, rather than mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        umask = os.umask(0)  # os.umask reads the mask only by setting one
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_file(path: str) -> ByteReader:
    with open(path, "rb") as fh:
        return ByteReader(fh.read(), source=str(path))
