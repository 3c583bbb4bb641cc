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
"""

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


def _payload(field: SpaceTimeField) -> bytes:
    g = field.grid
    parts = [struct.pack("<H", g.n), struct.pack("<d", field.params.p)]
    parts.append(struct.pack(f"<{g.n}I", *g.cells))
    parts.append(struct.pack(f"<{g.n}d", *g.origin))
    parts.append(struct.pack(f"<{g.n}d", *g.extent))
    parts.append(struct.pack("<Q", field.times.size))
    parts.append(np.ascontiguousarray(field.times, dtype="<f8").tobytes())
    parts.append(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
    return b"".join(parts)


def atomic_write(path, data: bytes) -> None:
    """Write atomically: a uniquely named temp file beside path, then rename.

    The temp file is created exclusively ("x") with the permissions the umask
    gives any new file, so concurrent writers never share it.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_field(field: SpaceTimeField, path) -> None:
    """Write a QLF1 checkpoint atomically."""
    payload = _payload(field)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    atomic_write(path, MAGIC + payload + struct.pack("<I", crc))


def load_field(path) -> SpaceTimeField:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4:
        raise CorruptFileError(f"{path}: truncated file")
    magic, payload, tail = blob[:4], blob[4:-4], blob[-4:]
    if magic != MAGIC:
        if magic[:3] == MAGIC[:3]:
            raise CorruptFileError(f"{path}: unsupported version magic {magic!r}")
        raise CorruptFileError(f"{path}: bad magic {magic!r}")
    (crc,) = struct.unpack("<I", tail)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CorruptFileError(f"{path}: CRC mismatch")
    try:
        off = 0
        (n,) = struct.unpack_from("<H", payload, off)
        off += 2
        (p,) = struct.unpack_from("<d", payload, off)
        off += 8
        cells = struct.unpack_from(f"<{n}I", payload, off)
        off += 4 * n
        origin = struct.unpack_from(f"<{n}d", payload, off)
        off += 8 * n
        extent = struct.unpack_from(f"<{n}d", payload, off)
        off += 8 * n
        (ntimes,) = struct.unpack_from("<Q", payload, off)
        off += 8
        times = np.frombuffer(payload, dtype="<f8", count=ntimes, offset=off).copy()
        off += 8 * ntimes
        node_shape = tuple(c + 1 for c in cells)
        nvals = ntimes * int(np.prod(node_shape))
        values = np.frombuffer(payload, dtype="<f8", count=nvals, offset=off).copy()
        off += 8 * nvals
        if off != len(payload):
            raise CorruptFileError(f"{path}: trailing bytes in payload")
        values = values.reshape((ntimes,) + node_shape)
    except (struct.error, ValueError) as exc:
        raise CorruptFileError(f"{path}: truncated payload ({exc})") from exc
    grid = GridSpec(origin=origin, extent=extent, cells=cells,
                    time_start=float(times[0]),
                    time_end=float(times[-1]) if times[-1] > times[0] else float(times[0]) + 1.0)
    if times.size == 1:
        grid = GridSpec(origin=origin, extent=extent, cells=cells,
                        time_start=float(times[0]), time_end=float(times[0]) + 1.0)
    params = ModelParams(p=p, n=n)
    return SpaceTimeField(params, grid, times, values, boundary_kind=ANALYTIC)
