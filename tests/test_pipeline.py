import json

import numpy as np
import pytest

import quenchlab as ql
from quenchlab.cli import main as cli_main
from quenchlab.errors import BudgetError, DegenerateFitError, UsageError

SYNTH = """
[run]
mode = synthetic
seed = 99
output_dir = "{out}"

[model]
p = 3.0
n = 1

[grid]
origin = [-8.5]
extent = [17.0]
cells = [1088]
time_start = -1.0
time_end = 1.0

[times]
kind = uniform
start = -1.0
stop = 1.0
num = 3

[synthetic]
kind = abs_x1

[analysis.freq]
op = almgren_scan
point = [0.0, 0.5]
s_min = 0.1
s_max = 1.0
num = 8
truncation = 8.0
gamma_half = 0.5

[analysis.dim]
op = rupture_dimension
tau = 0.05
radii = [2.0, 1.0, 0.5, 0.25]
"""

SOLVE = """
[run]
mode = solve
seed = 7
output_dir = "{out}"

[model]
p = 3.0
n = 1

[grid]
origin = [-1.0]
extent = [2.0]
cells = [100]
time_start = 0.0
time_end = 1.05

[initial]
kind = ode
offset = -1.0

[boundary]
kind = ode_trace
t_quench = 1.0

[solver]
dt_initial = 4e-3
safety = 0.2

[analysis.hold]
op = holder_seminorm
exponent = 0.5
budget = 2000
"""


def test_pipeline_synthetic_and_determinism(tmp_path):
    out = tmp_path / "run"
    cfg = ql.parse_config_text(SYNTH.format(out=out))
    ql.run_pipeline(cfg)
    b1 = (out / "report.json").read_bytes()
    csv1 = (out / "analysis_01_almgren_scan_trace.csv").read_bytes()
    ql.run_pipeline(cfg)
    b2 = (out / "report.json").read_bytes()
    csv2 = (out / "analysis_01_almgren_scan_trace.csv").read_bytes()
    assert b1 == b2
    assert csv1 == csv2
    doc = json.loads(b1)
    assert doc["analyses"][0]["status"] == "ok"
    assert doc["analyses"][0]["max_reference_gap"] <= 1e-3
    assert (out / "field.qlf").exists()
    assert (out / "analysis_01_almgren_scan_trace.csv").read_text().startswith("s,H,D,N")
    assert (out / "analysis_02_rupture_dimension_counts.csv").read_text().startswith("r,count")


def test_pipeline_solve_mode(tmp_path):
    out = tmp_path / "solve"
    cfg = ql.parse_config_text(SOLVE.format(out=out))
    report = ql.run_pipeline(cfg)
    assert report.run["quench_time"] == pytest.approx(1.0, abs=0.01)
    block = report.analyses[0]
    assert block["status"] == "ok"
    assert block["seminorm"] > 0.5


def test_pipeline_partial_results_on_error(tmp_path):
    out = tmp_path / "err"
    text = SYNTH.format(out=out) + """
[analysis.bad]
op = density_estimate
point = [0.0, 0.5]
s_min = 0.2
s_max = 0.1
"""
    cfg = ql.parse_config_text(text)
    report = ql.run_pipeline(cfg, raise_errors=False)
    statuses = [b["status"] for b in report.analyses]
    assert statuses[:2] == ["ok", "ok"] and statuses[2] == "error"
    assert (out / "report.json").exists()   # partial results written
    with pytest.raises(Exception, match="analysis 3"):
        ql.run_pipeline(cfg)


@pytest.mark.parametrize("op", ["apriori_scaling", "self_similarity"])
def test_pipeline_reports_a_point_of_the_wrong_length(tmp_path, op):
    # a 2D field read a two-entry point as an IndexError that escaped the run
    # (apriori_scaling) or as a 1D point (self_similarity); it is refused, and
    # the refusal is the op's error entry in the report
    text = SYNTH.split("[analysis.freq]")[0].format(out=tmp_path / op).replace(
        "n = 1", "n = 2").replace("origin = [-8.5]", "origin = [-1.0, -1.0]").replace(
        "extent = [17.0]", "extent = [2.0, 2.0]").replace(
        "cells = [1088]", "cells = [16, 16]") + f"""
[analysis.bad]
op = {op}
point = [0.0, 0.5]
""" + ("radii = [0.5, 0.25]\n" if op == "apriori_scaling" else "")
    report = ql.run_pipeline(ql.parse_config_text(text), raise_errors=False)
    block, = report.analyses
    assert (block["status"], block["error_kind"]) == ("error", "UsageError")
    assert block["message"] == "point needs 3 coordinates, got 2"
    written = json.loads((tmp_path / op / "report.json").read_text())
    assert written["analyses"][0]["message"] == block["message"]


def test_pipeline_reraise_keeps_error_payload(tmp_path):
    # u = max(x1, 0) vanishes on every cylinder around x1 = -4: no mass at all
    text = SYNTH.split("[analysis.freq]")[0].format(out=tmp_path / "deg").replace(
        "kind = abs_x1", "kind = relu_x1") + """
[analysis.mass]
op = apriori_scaling
point = [-4.0, 0.5]
quantity = "mass"
radii = [1.0, 0.5]
"""
    with pytest.raises(DegenerateFitError, match="analysis 1 failed") as info:
        ql.run_pipeline(ql.parse_config_text(text))
    assert info.value.radii.tolist() == [1.0, 0.5]


def test_pipeline_writes_beside_stale_temp_names(tmp_path):
    out = tmp_path / "busy"
    (out / "report.json.tmp").mkdir(parents=True)
    ql.run_pipeline(ql.parse_config_text(SYNTH.split("[analysis.freq]")[0].format(out=out)))
    assert json.loads((out / "report.json").read_text())["analyses"] == []
    assert sorted(p.name for p in out.iterdir()) == ["field.qlf", "report.json",
                                                     "report.json.tmp", "report.txt"]
    # outputs get the permissions of any new file, not a private temp file's
    probe = tmp_path / "probe"
    probe.write_bytes(b"")
    for name in ("report.json", "field.qlf"):
        assert (out / name).stat().st_mode == probe.stat().st_mode


DENSITY = """
[run]
mode = synthetic
seed = 5
output_dir = "{out}"

[model]
p = 3.0
n = 1

[grid]
origin = [-4.0]
extent = [8.0]
cells = [400]
time_start = -0.5
time_end = -1e-7

[times]
kind = geometric
start = -0.5
stop = -1e-7
ratio = 0.95

[synthetic]
kind = ode

[analysis.dens]
op = density_estimate
point = [0.0, 0.0]
s_min = 1e-3
s_max = 0.1
"""


def test_pipeline_density_on_collapse_oracle(tmp_path):
    out = tmp_path / "dens"
    cfg = ql.parse_config_text(DENSITY.format(out=out))
    report = ql.run_pipeline(cfg)
    block = report.analyses[0]
    assert block["status"] == "ok"
    assert block["theta"] == pytest.approx(-0.5, abs=0.05)
    assert block["violations"] == 0
    assert not block["diverging"]
    csv = (out / "analysis_01_density_estimate_trace.csv").read_text()
    assert csv.startswith("s,E,Ebar")


def test_emit_report_formats():
    rep = ql.Report(meta={"seed": 1, "config_digest": "x"}, run={"mode": "synthetic"},
                    analyses=[{"index": 1, "name": "a", "op": "almgren_scan",
                               "status": "ok", "value": 0.5}])
    j1 = ql.emit_report(rep, "json")
    j2 = ql.emit_report(rep, "json")
    assert j1 == j2
    txt = ql.emit_report(rep, "text").decode()
    assert "almgren_scan" in txt
    empty = ql.Report(meta={"seed": 1, "config_digest": "x"}, run={})
    assert json.loads(ql.emit_report(empty, "json"))["analyses"] == []


def test_canonical_float_formatting():
    rep = ql.Report(meta={}, run={"x": 0.1 + 0.2})
    out = ql.emit_report(rep, "json").decode()
    assert "0.30000000000000004" in out   # 17 significant digits


def _ode_trace_1d():
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[64],
                       time_start=0.0, time_end=1.05)
    init = ql.field_from_function(
        mp, grid, [0.0], lambda xs, t: np.full(xs.shape[0], ql.ode_solution(mp, -1.0)))
    bd = ql.BoundaryData(kind="analytic_trace",
                         value_fn=lambda xs, t: np.full(xs.shape[0], ql.ode_solution(mp, t - 1.0)))
    return mp, init, bd, 4e-3


def _dip_2d():
    mp = ql.ModelParams(p=3.0, n=2)
    grid = ql.GridSpec(origin=[-1.0, -1.0], extent=[2.0, 2.0], cells=[24, 24],
                       time_start=0.0, time_end=1.0)
    init = ql.field_from_function(
        mp, grid, [0.0], lambda xs, t: 1.0 - 0.5 * np.exp(-np.sum(xs ** 2, axis=-1) / 0.25))
    return mp, init, ql.BoundaryData(kind="constant", value=1.0), 1e-3


@pytest.mark.parametrize("case", [_ode_trace_1d, _dip_2d], ids=["ode_trace_1d", "dip_2d"])
def test_checkpoint_restart_bitwise(tmp_path, case):
    mp, init, bd, dt_initial = case()
    grid = init.grid

    def run(initial, steps):
        cfg = ql.SolverConfig(dt_initial=dt_initial, safety=0.2, max_steps=steps)
        try:
            field, _ = ql.solve_until_quench(initial, bd, cfg)
            return field
        except BudgetError as exc:
            return exc.partial

    # uninterrupted: 80 steps
    full = run(init, 80)
    # interrupted at 40, saved, loaded, resumed for 40 more
    part = run(init, 40)
    path = tmp_path / "ckpt.qlf"
    ql.save_field(part, path)
    loaded = ql.load_field(path)
    resume_grid = ql.GridSpec(origin=grid.origin, extent=grid.extent, cells=grid.cells,
                              time_start=float(loaded.times[-1]), time_end=grid.time_end)
    resumed_init = ql.SpaceTimeField(mp, resume_grid, [loaded.times[-1]],
                                     loaded.values[-1:].copy())
    resumed = run(resumed_init, 40)
    # the scheme has no hidden state: the final slab agrees bitwise
    assert resumed.times[-1] == full.times[-1]
    assert np.array_equal(resumed.values[-1], full.values[-1])


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "cli"
    ini = tmp_path / "run.ini"
    ini.write_text(SYNTH.format(out=out))
    assert cli_main(["simulate", "--config", str(ini)]) == 0
    assert cli_main(["report", "--run", str(out), "--format", "json"]) == 0
    assert cli_main(["analyze", "--field", str(out / "field.qlf"),
                     "--op", "almgren_scan", "--point", "0.0,0.5",
                     "--config", str(ini)]) == 0
    assert cli_main(["dimension", "--field", str(out / "field.qlf"),
                     "--tau", "0.05"]) == 0
    # usage/validation -> 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nmode = nonsense\n")
    assert cli_main(["simulate", "--config", str(bad)]) == 2
    assert cli_main(["report", "--run", str(tmp_path / "missing")]) == 2
    # corrupt file -> 5
    broken = tmp_path / "broken.qlf"
    blob = bytearray((out / "field.qlf").read_bytes())
    blob[-1] ^= 0xFF
    broken.write_bytes(bytes(blob))
    assert cli_main(["analyze", "--field", str(broken), "--op", "almgren_scan"]) == 5
    # budget exhaustion -> 4
    tiny = tmp_path / "tiny.ini"
    tiny.write_text(SOLVE.format(out=tmp_path / "tiny").replace(
        "safety = 0.2", "safety = 0.2\nmax_steps = 3"))
    assert cli_main(["simulate", "--config", str(tiny)]) == 4
    # numerical/accuracy -> 3 (singular cells exceed 1% of the cylinder)
    assert cli_main(["analyze", "--field", str(out / "field.qlf"),
                     "--op", "apriori_scaling", "--point", "0.0,0.5"]) == 2  # missing radii
    ini3 = tmp_path / "apriori.ini"
    apriori = SYNTH.format(out=out) + """
[analysis.ap]
op = apriori_scaling
point = [0.0, 0.5]
quantity = "u_inv_p"
radii = [1.0, 0.5, 0.25]
"""
    ini3.write_text(apriori)
    assert cli_main(["analyze", "--field", str(out / "field.qlf"),
                     "--op", "apriori_scaling", "--config", str(ini3)]) == 3
    # Q_r at r = 2 starts at t = -3.5, before the stored history: refused
    ini3.write_text(apriori.replace("[1.0, 0.5, 0.25]", "[2.0, 1.0, 0.5]"))
    assert cli_main(["analyze", "--field", str(out / "field.qlf"),
                     "--op", "apriori_scaling", "--config", str(ini3)]) == 2


def test_threaded_analyses_match_serial(tmp_path, monkeypatch):
    out = tmp_path / "thr"
    cfg = ql.parse_config_text(SYNTH.format(out=out))
    ql.run_pipeline(cfg)
    serial = (out / "report.json").read_bytes()
    monkeypatch.setenv("QUENCHLAB_THREADS", "4")
    ql.run_pipeline(cfg)
    threaded = (out / "report.json").read_bytes()
    assert serial == threaded


def test_dimension_ladder_refuses_coarse_grid(tmp_path, capsys):
    # one octave between extent/4 and 4h: the op and the CLI both refuse
    # rather than fit a slope through radii below the grid's resolution
    out = tmp_path / "coarse"
    text = SYNTH.format(out=out).replace("cells = [1088]", "cells = [16]")
    text = text[:text.index("[analysis.freq]")] + "[analysis.dim]\nop = rupture_dimension\ntau = 0.05\n"
    with pytest.raises(UsageError, match="too coarse"):
        ql.run_pipeline(ql.parse_config_text(text))
    block = json.loads((out / "report.json").read_text())["analyses"][0]
    assert (block["status"], block["error_kind"]) == ("error", "UsageError")
    assert cli_main(["dimension", "--field", str(out / "field.qlf"), "--tau", "0.05"]) == 2
    assert "too coarse" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", ""])
def test_bad_thread_count_rejected_before_acquisition(tmp_path, monkeypatch, raw):
    out = tmp_path / "thr"
    ini = tmp_path / "run.ini"
    ini.write_text(SYNTH.format(out=out))
    monkeypatch.setenv("QUENCHLAB_THREADS", raw)
    with pytest.raises(UsageError, match="QUENCHLAB_THREADS"):
        ql.run_pipeline(ql.parse_config_text(SYNTH.format(out=out)))
    assert cli_main(["simulate", "--config", str(ini)]) == 2
    assert not (out / "field.qlf").exists()


def test_analyze_refuses_a_config_with_two_sections_for_the_op(tmp_path, capsys):
    # merging them would run one op on keys drawn from both sections
    field = tmp_path / "field.qlf"
    mp = ql.ModelParams(p=3.0, n=1)
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[32], time_start=-1.0, time_end=0.0)
    ql.save_field(ql.profile_field(mp, grid, [-1.0, -0.5, 0.0], "abs_x1"), field)
    ini = tmp_path / "two.ini"
    ini.write_text(SYNTH.format(out=tmp_path / "unused") + """
[analysis.mass]
op = apriori_scaling
quantity = "mass"
radii = [0.5, 0.25]

[analysis.energy]
op = apriori_scaling
quantity = "energy"
radii = [0.4, 0.2]
""")
    assert cli_main(["analyze", "--field", str(field), "--op", "apriori_scaling",
                     "--config", str(ini)]) == 2
    assert "[analysis.mass], [analysis.energy]" in capsys.readouterr().err
