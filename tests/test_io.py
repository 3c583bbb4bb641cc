import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import quenchlab as ql
from quenchlab.cli import main as cli_main
from quenchlab.errors import CorruptFileError, ValidationError
from quenchlab.qlf import atomic_write


@pytest.fixture
def small_field(p3_2d):
    grid = ql.GridSpec(origin=[-1.0, 0.0], extent=[2.0, 2.0], cells=[12, 12],
                       time_start=0.0, time_end=1.0)
    times = np.array([0.0, 0.3, 0.31, 1.0])
    return ql.field_from_function(p3_2d, grid, times,
                                  lambda xs, t: np.sin(xs[:, 0]) * xs[:, 1] + t)


def test_roundtrip_bitwise(tmp_path, small_field):
    path = tmp_path / "f.qlf"
    ql.save_field(small_field, path)
    back = ql.load_field(path)
    assert np.array_equal(back.values, small_field.values)
    assert np.array_equal(back.times, small_field.times)
    assert back.grid.origin == small_field.grid.origin
    assert back.grid.extent == small_field.grid.extent
    assert back.grid.cells == small_field.grid.cells
    assert back.params == small_field.params


def test_crc_flip_detected(tmp_path, small_field):
    path = tmp_path / "f.qlf"
    ql.save_field(small_field, path)
    blob = bytearray(path.read_bytes())
    blob[150] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFileError, match="CRC"):
        ql.load_field(path)


def test_unsupported_version_magic(tmp_path, small_field):
    path = tmp_path / "f.qlf"
    ql.save_field(small_field, path)
    blob = bytearray(path.read_bytes())
    blob[3] = ord("2")   # QLF1 -> QLF2
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFileError, match="version"):
        ql.load_field(path)


def test_truncated_file_detected(tmp_path, small_field):
    path = tmp_path / "f.qlf"
    ql.save_field(small_field, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptFileError):
        ql.load_field(path)


def _qlf_bytes(n, p, cells, origin, extent, times, values=()):
    """A QLF1 file with a valid CRC, whatever the header says."""
    payload = (struct.pack(f"<Hd{len(cells)}I{len(origin)}d{len(extent)}dQ",
                           n, p, *cells, *origin, *extent, len(times))
               + np.asarray(times, dtype="<f8").tobytes()
               + np.asarray(values, dtype="<f8").tobytes())
    return b"QLF1" + payload + struct.pack("<I", zlib.crc32(payload))


def test_crafted_file_roundtrips(tmp_path):
    path = tmp_path / "f.qlf"
    path.write_bytes(_qlf_bytes(1, 3.0, [2], [0.0], [1.0], [0.0, 1.0], np.arange(6.0)))
    field = ql.load_field(path)
    assert field.values.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    assert field.grid.cells == (2,)


def test_header_with_no_times_is_corrupt(tmp_path):
    path = tmp_path / "f.qlf"
    path.write_bytes(_qlf_bytes(1, 3.0, [2], [0.0], [1.0], []))
    with pytest.raises(CorruptFileError, match="time count"):
        ql.load_field(path)


def test_header_with_no_dimensions_is_corrupt(tmp_path):
    path = tmp_path / "f.qlf"
    path.write_bytes(_qlf_bytes(0, 3.0, [], [], [], [0.0], [1.0]))
    with pytest.raises(CorruptFileError, match="dimension"):
        ql.load_field(path)


@pytest.mark.parametrize("p, cells, extent, times, match", [
    (3.0, 0, 1.0, [0.0], "cells"),
    (0.5, 2, 1.0, [0.0], "p > 1"),
    (3.0, 2, -1.0, [0.0], "extent"),
    (3.0, 2, 1.0, [1.0, 0.0], "increasing"),
])
def test_crafted_semantic_errors_stay_validation_errors(tmp_path, p, cells, extent, times, match):
    path = tmp_path / "f.qlf"
    values = np.zeros(len(times) * (cells + 1))
    path.write_bytes(_qlf_bytes(1, p, [cells], [0.0], [extent], times, values))
    with pytest.raises(ValidationError, match=match):
        ql.load_field(path)


@pytest.mark.parametrize("origin, extent, times", [
    (np.nan, 1.0, [0.0, 1.0]), (0.0, np.inf, [0.0, 1.0]),
    (0.0, 1.0, [0.0, np.inf]), (0.0, 1.0, [0.0, np.nan]),
])
def test_crafted_non_finite_metadata_is_corrupt(tmp_path, origin, extent, times):
    path = tmp_path / "f.qlf"
    path.write_bytes(_qlf_bytes(1, 3.0, [2], [origin], [extent], times, np.zeros(6)))
    with pytest.raises(CorruptFileError, match="non-finite"):
        ql.load_field(path)
    assert cli_main(["analyze", "--field", str(path), "--op", "almgren_scan"]) == 5


_VALID = _qlf_bytes(1, 3.0, [4], [-1.0], [2.0], [0.0, 0.5, 1.0], np.linspace(-1.0, 1.0, 15))
_TIME_COUNT = 4 + 2 + 8 + 4 + 8 + 8         # offset of the u64 time count (n = 1)


def _corrupt(op, at, mask, tail):
    if op == "truncate":
        return _VALID[:at]
    if op == "flip":
        blob = bytearray(_VALID)
        blob[at] ^= mask
        return bytes(blob)
    return _VALID + tail


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["truncate", "flip", "append"]),
       st.integers(0, len(_VALID) - 1), st.integers(1, 255), st.binary(min_size=1, max_size=16))
@example("flip", _TIME_COUNT + 7, 0x7F, b"\0")   # 2**62-scale time count
@example("flip", _TIME_COUNT + 4, 0x01, b"\0")   # 2**32 more times: 34 GB if allocated
@example("flip", 4, 0x02, b"\0")                 # n = 3
def test_any_corruption_raises_corrupt_file_error(tmp_path_factory, op, at, mask, tail):
    path = tmp_path_factory.mktemp("corrupt") / "f.qlf"
    path.write_bytes(_corrupt(op, at, mask, tail))
    tracemalloc.start()
    try:
        with pytest.raises(CorruptFileError):
            ql.load_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20                          # nothing sized by a corrupt header


def test_save_and_load_hold_no_second_copy(tmp_path, p3_2d):
    grid = ql.GridSpec(origin=[0.0, 0.0], extent=[1.0, 1.0], cells=[127, 127],
                       time_start=0.0, time_end=1.0)
    values = np.random.default_rng(0).standard_normal((60, 128, 128))
    field = ql.SpaceTimeField(p3_2d, grid, np.linspace(0.0, 1.0, 60), values)
    path = tmp_path / "big.qlf"

    def peak_of(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            return out, (tracemalloc.get_traced_memory()[1] - base) / values.nbytes
        finally:
            tracemalloc.stop()

    _, save_peak = peak_of(lambda: ql.save_field(field, path))
    back, load_peak = peak_of(lambda: ql.load_field(path))
    assert save_peak <= 0.25
    assert load_peak <= 1.25                       # the values, the times, isfinite's mask
    assert back.values.tobytes() == values.tobytes()


def test_atomic_write_concatenates_buffers(tmp_path):
    path = tmp_path / "sub" / "out.bin"
    parts = [b"head", bytearray(b"-"), memoryview(np.arange(3.0)), b""]
    atomic_write(path, parts)
    assert path.read_bytes() == b"head-" + np.arange(3.0).tobytes()
    assert list(path.parent.iterdir()) == [path]


def test_atomic_write_failure_leaves_target_and_no_temp(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents")

    def parts():
        yield b"new"
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="producer failed"):
        atomic_write(path, parts())
    assert path.read_bytes() == b"old contents"
    assert list(tmp_path.glob("*.tmp")) == []
    assert list(tmp_path.iterdir()) == [path]


MINIMAL = """
[run]
mode = synthetic
seed = 3
output_dir = "{out}"

[model]
p = 3.0
n = 1

[grid]
origin = [-1.0]
extent = [2.0]
cells = [64]
time_start = -1.0
time_end = 0.0

[times]
kind = uniform
start = -1.0
stop = 0.0
num = 5

[synthetic]
kind = abs_x1
"""


def test_minimal_config_defaults(tmp_path):
    cfg = ql.parse_config_text(MINIMAL.format(out=tmp_path))
    assert cfg.mode == "synthetic"
    assert cfg.seed == 3
    assert cfg.model.p == 3.0
    assert cfg.solver.epsilon_reg == 1e-4          # defaults filled
    assert cfg.solver.quench_threshold == 1e-3
    assert cfg.analyses == []


def test_config_rejects_bad_p(tmp_path):
    text = MINIMAL.format(out=tmp_path).replace("p = 3.0", "p = 0.5")
    with pytest.raises(ValidationError, match="p > 1"):
        ql.parse_config_text(text)


def test_config_rejects_unknown_analysis(tmp_path):
    text = MINIMAL.format(out=tmp_path) + "\n[analysis.x]\nop = frobnicate\n"
    with pytest.raises(ValidationError) as exc:
        ql.parse_config_text(text)
    assert "density_estimate" in str(exc.value)    # lists known operations


def test_config_parse_error_carries_location(tmp_path):
    with pytest.raises(ValidationError, match="parse error"):
        ql.parse_config_text("[run\nmode = solve")


def test_config_rejects_non_finite_grid(tmp_path):
    text = MINIMAL.format(out=tmp_path / "out").replace("origin = [-1.0]", "origin = [NaN]")
    with pytest.raises(ValidationError, match="finite"):
        ql.parse_config_text(text)
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    assert cli_main(["simulate", "--config", str(ini)]) == 2


def test_config_requires_boundary_for_solve(tmp_path):
    text = MINIMAL.format(out=tmp_path).replace("mode = synthetic", "mode = solve")
    with pytest.raises(ValidationError, match="boundary"):
        ql.parse_config_text(text)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValidationError):
        ql.load_config(tmp_path / "nope.ini")
