"""Binary field checkpoints (QLF1).

Layout: magic b"QLF1", then a little-endian payload
    u16 n, f64 p,
    u32 cells per axis (n entries),
    f64 origin per axis (n), f64 extent per axis (n),
    u64 time count, f64 times,
    f64 values row-major (time-major, then lexicographic spatial index),
and a trailing u32 CRC32 of the payload.  Round trips are bit exact.  The
grid's time range is reconstructed from the stored times; boundary metadata
is not persisted (loaded fields come back as analytic snapshots).

Neither side copies the payload: the writer streams the arrays' own buffers,
and the reader checks the header's declared sizes against the file length,
then reads into preallocated arrays.
"""

import math
import os
import struct
import uuid
import zlib

import numpy as np

from .errors import CorruptFileError
from .field import ANALYTIC, SpaceTimeField
from .grid import GridSpec
from .params import ModelParams

MAGIC = b"QLF1"


def atomic_write(path, parts) -> None:
    """Write the buffers in `parts`, in order, to path atomically.

    The buffers go to a uniquely named temp file beside path, which is then
    renamed over it.  The temp file is created exclusively ("x") with the
    permissions the umask gives any new file, so concurrent writers never
    share it.  If writing fails, the temp file is removed and an existing
    file at path is untouched.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_format(n: int) -> str:
    """The payload's header: n, p, cells, origin, extent, time count."""
    return f"<Hd{n}I{n}d{n}dQ"


def save_field(field: SpaceTimeField, path) -> None:
    """Write a QLF1 checkpoint atomically, streaming the arrays' own buffers."""
    g = field.grid
    times = np.ascontiguousarray(field.times, dtype="<f8")
    values = np.ascontiguousarray(field.values, dtype="<f8")
    header = struct.pack(_header_format(g.n), g.n, field.params.p,
                         *g.cells, *g.origin, *g.extent, times.size)
    parts = [header, memoryview(times), memoryview(values)]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    atomic_write(path, [MAGIC, *parts, struct.pack("<I", crc)])


def _read_exact(fh, path, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise CorruptFileError(f"{path}: truncated payload")
    return data


def _read_into(fh, path, array: np.ndarray, crc: int) -> int:
    """Fill array from fh; return the CRC32 continued over its bytes."""
    if fh.readinto(memoryview(array).cast("B")) != array.nbytes:
        raise CorruptFileError(f"{path}: truncated payload")
    return zlib.crc32(array, crc)


def load_field(path) -> SpaceTimeField:
    """Read a QLF1 checkpoint.

    The header's declared sizes are checked against the file length before
    any array is allocated; the arrays are read in place and the CRC is
    checked before the field is built.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(MAGIC) + 4:
            raise CorruptFileError(f"{path}: truncated file")
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            if magic[:3] == MAGIC[:3]:
                raise CorruptFileError(f"{path}: unsupported version magic {magic!r}")
            raise CorruptFileError(f"{path}: bad magic {magic!r}")
        head = _read_exact(fh, path, 2)
        (n,) = struct.unpack("<H", head)
        if n not in (1, 2, 3):
            raise CorruptFileError(f"{path}: dimension n = {n} is not 1, 2 or 3")
        fmt = _header_format(n)
        head += _read_exact(fh, path, struct.calcsize(fmt) - len(head))
        _, p, *rest, ntimes = struct.unpack(fmt, head)
        cells, origin, extent = tuple(rest[:n]), tuple(rest[n:2 * n]), tuple(rest[2 * n:])
        if ntimes < 1:
            raise CorruptFileError(f"{path}: time count {ntimes} < 1")
        node_shape = tuple(c + 1 for c in cells)
        nvals = ntimes * math.prod(node_shape)
        declared = len(MAGIC) + len(head) + 8 * (ntimes + nvals) + 4
        if declared > size:
            raise CorruptFileError(f"{path}: truncated payload "
                                   f"(header declares {declared} bytes, file has {size})")
        if declared < size:
            raise CorruptFileError(f"{path}: trailing bytes in payload "
                                   f"(header declares {declared} bytes, file has {size})")
        times = np.empty(ntimes, dtype="<f8")
        values = np.empty((ntimes,) + node_shape, dtype="<f8")
        crc = _read_into(fh, path, times, zlib.crc32(head))
        crc = _read_into(fh, path, values, crc)
        (stored,) = struct.unpack("<I", _read_exact(fh, path, 4))
    if crc != stored:
        raise CorruptFileError(f"{path}: CRC mismatch")
    if not (np.all(np.isfinite(origin + extent)) and np.all(np.isfinite(times))):
        raise CorruptFileError(f"{path}: non-finite grid origin, extent or time")
    t0, t1 = float(times[0]), float(times[-1])
    grid = GridSpec(origin=origin, extent=extent, cells=cells,
                    time_start=t0, time_end=t1 if t1 > t0 else t0 + 1.0)
    params = ModelParams(p=p, n=n)
    return SpaceTimeField(params, grid, times, values, boundary_kind=ANALYTIC)
