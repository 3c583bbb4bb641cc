"""The benchmark's traced worker runs a pipeline and times each configured op.

`perfbench/worker.py --trace` wraps the package's layers and the entries of
`pipeline._HANDLERS` before it runs `run_pipeline`.  Its per-op times must
cover every analysis, and tracing must not change the report.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

CONFIG = """
[run]
mode = synthetic
seed = 7
output_dir = "out"

[model]
p = 3.0
n = 1

[grid]
origin = [-1.0]
extent = [2.0]
cells = [64]
time_start = -1.0
time_end = 0.0

[synthetic]
kind = abs_x1

[analysis.freq]
op = almgren_scan
point = [0.0, -0.5]
s_min = 0.05
s_max = 0.2
num = 4

[analysis.dim]
op = rupture_dimension
tau = 0.05
"""


def _worker(directory: pathlib.Path, *flags: str) -> dict:
    directory.mkdir()
    (directory / "run.ini").write_text(CONFIG)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), "run.ini",
                    "result.json", *flags], cwd=directory, env=env, check=True)
    return json.loads((directory / "result.json").read_text())


def test_traced_worker_times_every_op_and_keeps_the_report(tmp_path):
    traced = _worker(tmp_path / "traced", "--trace", "t0")
    plain = _worker(tmp_path / "plain")
    assert sorted(traced["ops"]) == ["almgren_scan", "rupture_dimension"]
    assert "ops" not in plain
    report = (tmp_path / "traced" / "out" / "report.json").read_bytes()
    assert report == (tmp_path / "plain" / "out" / "report.json").read_bytes()
    assert [a["status"] for a in json.loads(report)["analyses"]] == ["ok", "ok"]
