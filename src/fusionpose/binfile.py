"""The one bounded byte reader and the one atomic file writer.

``.fpseq`` sequences, their ``manifest.txt`` and ``.fpck`` checkpoints
are all written by :func:`write_atomic`: the bytes go to a temporary
name, are flushed to disk, and the file is renamed into place, so a
crash mid-write leaves the previous file or the new one under the real
name, never a truncated one. Both binary formats are read by
:class:`Reader`, which raises the format's own error on a read past the
end of the file.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np


class Reader:
    """Reads a file's fields in order, after checking its magic bytes."""

    def __init__(self, path, magic: bytes, kind: str, error: type[Exception]):
        self.path, self.error = path, error
        with open(path, "rb") as fh:
            self.blob = fh.read()
        if self.blob[: len(magic)] != magic:
            raise error(f"{path}: not a {kind} file")
        self.pos = len(magic)

    def _take(self, size: int) -> int:
        if self.pos + size > len(self.blob):
            raise self.error(f"{self.path}: truncated at byte {len(self.blob)} "
                             f"(needs {self.pos + size})")
        start, self.pos = self.pos, self.pos + size
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._take(struct.calcsize(fmt)))

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        """A copy of the next ``shape`` values; huge shapes cannot wrap around."""
        count = math.prod(shape)
        start = self._take(count * np.dtype(dtype).itemsize)
        arr = np.frombuffer(self.blob, dtype=dtype, count=count, offset=start)
        return arr.reshape(shape).copy()


def write_atomic(path: str | Path, chunks: list) -> None:
    """Write the bytes-like ``chunks`` one after another as the file at ``path``."""
    path = Path(path)
    # The temporary name must not match the ``epoch_*.fpck`` glob.
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
