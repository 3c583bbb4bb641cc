import importlib.util
import inspect
import json
import pathlib
import re
import string
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quenchlab as ql
from quenchlab.cli import main as cli_main
from quenchlab.errors import ValidationError
from quenchlab.ops import BOUNDARY, INITIAL, OPS, SYNTHETIC, TIMES
from quenchlab.pipeline import acquire_field
from quenchlab.solver import SolverConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]

BASE = """
[run]
mode = synthetic
seed = 3
output_dir = "{out}"

[model]
p = 3.0
n = 2

[grid]
origin = [-1.0, -1.0]
extent = [2.0, 2.0]
cells = [8, 8]
time_start = -1.0
time_end = 0.0
"""
TIMES_SECTION = "\n[times]\nkind = uniform\nstart = -1.0\nstop = 0.0\nnum = 5\n"
SYNTHETIC_SECTION = "\n[synthetic]\nkind = abs_x1\n"

# Every one of these loaded at the parent commit.  The first five and the
# unknown section ran on with a default in place of the bad entry, [analysisx]
# ran as an analysis, and "volume" and "exponant" (abs_x1_pow then lacked its
# exponent) failed only once the run had started.
REJECTED = {
    "eta": '[analysis.d]\nop = density_estimate\ns_min = 1e-3\ns_max = 0.1\neta = "false"\n',
    "caloric": '[analysis.f]\nop = almgren_scan\ncaloric = "false"\n',
    "s_mn": "[analysis.d]\nop = density_estimate\ns_min = 1e-3\ns_max = 0.1\ns_mn = 1e-3\n",
    "dpeth": "[initial]\nkind = dip\ndpeth = 0.5\n",
    "solvr": "[solvr]\nsafety = 0.1\n",
    "analysisx": "[analysisx]\nop = holder_seminorm\n",
    "volume": '[analysis.a]\nop = apriori_scaling\nradii = [0.5, 0.25]\nquantity = "volume"\n',
    "exponant": "",
}


@pytest.mark.parametrize("key", sorted(REJECTED))
def test_bad_input_rejected_at_load(tmp_path, key):
    out = tmp_path / "run"
    synthetic = SYNTHETIC_SECTION
    if key == "exponant":
        synthetic = synthetic.replace("kind = abs_x1", "kind = abs_x1_pow\nexponant = 0.5")
    text = BASE.format(out=out) + TIMES_SECTION + synthetic + "\n" + REJECTED[key]
    with pytest.raises(ValidationError, match=key):
        ql.parse_config_text(text)
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    assert cli_main(["simulate", "--config", str(ini)]) == 2
    assert not out.exists()


# one value per required option, so that every registry entry can load
REQUIRED = {"s_min": 0.01, "s_max": 0.1, "radii": [0.5, 0.25], "start": -1.0, "stop": -0.5,
            "num": 3, "ratio": 0.9, "values": [-1.0, -0.5], "exponent": 0.5}

# (section, key naming the entry, registry)
REGISTRIES = [("analysis.x", "op", OPS), ("initial", "kind", INITIAL),
              ("boundary", "kind", BOUNDARY), ("times", "kind", TIMES),
              ("synthetic", "kind", SYNTHETIC)]
ENTRIES = [(section, key, name, fn) for section, key, registry in REGISTRIES
           for name, fn in registry.items()]


def _options(fn):
    return {p.name: p for p in inspect.signature(fn).parameters.values()
            if p.kind is p.KEYWORD_ONLY}


def _config(entry, extra):
    """BASE plus `entry` with its required options and `extra`."""
    section, key, name, fn = entry
    text = BASE.format(out="unused")
    text += "" if section == "times" else TIMES_SECTION
    text += "" if section == "synthetic" else SYNTHETIC_SECTION
    options = {k: json.dumps(REQUIRED[k]) for k, p in _options(fn).items()
               if p.default is p.empty}
    options.update(extra)
    lines = [f"[{section}]", f"{key} = {name}"] + [f"{k} = {v}" for k, v in options.items()]
    return text + "\n" + "\n".join(lines) + "\n"


@pytest.mark.parametrize("entry", ENTRIES, ids=[f"{e[0]}:{e[2]}" for e in ENTRIES])
def test_every_registry_entry_loads_with_its_required_options(entry):
    cfg = ql.parse_config_text(_config(entry, {}))
    assert [a.op for a in cfg.analyses] == ([entry[2]] if entry[1] == "op" else [])


def _wrong_value(ann):
    """JSON values of a type the annotation does not admit."""
    admitted = {ann, *get_args(ann)}
    kinds = [st.dictionaries(st.sampled_from("ab"), st.integers(), min_size=1),
             st.lists(st.text(string.ascii_letters, max_size=3), min_size=1),
             st.text(string.ascii_letters, max_size=6).map(lambda s: "not_" + s)]
    if bool not in admitted:
        kinds.append(st.booleans())
    if type(None) not in admitted:
        kinds.append(st.none())
    if not admitted & {float, int}:
        kinds.append(st.integers(-5, 5) | st.floats(-10, 10, allow_nan=False))
    return st.one_of(kinds)


@st.composite
def _bad_option(draw):
    entry = draw(st.sampled_from(ENTRIES))
    options = _options(entry[3])
    if options and draw(st.booleans()):
        name = draw(st.sampled_from(sorted(options)))
        value = draw(_wrong_value(options[name].annotation))
    else:
        name = draw(st.from_regex(r"[a-z][a-z0-9_]{0,12}", fullmatch=True).filter(
            lambda k: k not in options and k not in ("op", "kind")))
        value = draw(st.integers(-5, 5) | st.floats(-10, 10, allow_nan=False))
    return entry, name, value


@settings(max_examples=200, deadline=None)
@given(_bad_option())
def test_unknown_or_ill_typed_option_rejected_at_load(case):
    entry, name, value = case
    with pytest.raises(ValidationError, match=re.escape(f"[{entry[0]}]") + ".*" + name):
        ql.parse_config_text(_config(entry, {name: json.dumps(value)}))


def _float_kind(ann):
    """"scalar" or "list" when the annotation admits a float or a list of floats."""
    if ann is float:
        return "scalar"
    if get_origin(ann) in (list, tuple):
        return "list" if _float_kind(get_args(ann)[0]) else None
    return next(filter(None, map(_float_kind, get_args(ann))), None)


# the dataclass sections, which bind every constructor parameter
BUILT = [("model", ql.ModelParams), ("grid", ql.GridSpec), ("solver", SolverConfig)]
FLOAT_OPTIONS = sorted(
    [(section, name, kind) for section, cls in BUILT
     for name, p in inspect.signature(cls).parameters.items()
     if (kind := _float_kind(p.annotation))]
    + [(entry, name, kind) for entry in ENTRIES for name, p in _options(entry[3]).items()
       if (kind := _float_kind(p.annotation))], key=str)


def _nonfinite_config(section, name, value):
    """A config that sets the option name of section (or of a registry entry) to value."""
    if not isinstance(section, str):
        return _config(section, {name: value})
    text = BASE.format(out="unused") + TIMES_SECTION + SYNTHETIC_SECTION
    if section == "solver":
        return text + f"\n[solver]\n{name} = {value}\n"
    text, count = re.subn(rf"^{name} = .*$", f"{name} = {value}", text, flags=re.M)
    assert count == 1
    return text


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("section, name, kind", FLOAT_OPTIONS,
                         ids=[f"{s if isinstance(s, str) else s[0] + ':' + s[2]}:{n}"
                              for s, n, _ in FLOAT_OPTIONS])
def test_nonfinite_float_rejected_at_load(section, name, kind, value):
    # JSON reads NaN and Infinity as floats; before this check an op met them
    # at run time (OverflowError from int(inf), or a report that is not JSON)
    text = _nonfinite_config(section, name, value if kind == "scalar" else f"[0.5, {value}]")
    tag = section if isinstance(section, str) else section[0]
    with pytest.raises(ValidationError, match=re.escape(f"[{tag}] {name} = ") + ".*not finite"):
        ql.parse_config_text(text)


def test_every_float_option_is_drawn():
    names = {(s if isinstance(s, str) else s[2], n) for s, n, _ in FLOAT_OPTIONS}
    assert names >= {("almgren_scan", "truncation"), ("density_estimate", "truncation"),
                     ("almgren_scan", "s_min"), ("rupture_dimension", "tau"),
                     ("rupture_dimension", "kappa"), ("two_valued_check", "rel_tol"),
                     ("almgren_scan", "s_grid"), ("model", "p"), ("grid", "origin"),
                     ("solver", "safety"), ("dip", "center"), ("explicit", "values")}


def test_synthetic_constant_takes_value_not_exponent():
    text = BASE.format(out="unused") + TIMES_SECTION + "\n[synthetic]\nkind = constant\n"
    field, _ = acquire_field(ql.parse_config_text(text + "value = 2.5\n"))
    assert np.all(field.values == 2.5)
    with pytest.raises(ValidationError, match=r"\[synthetic\].*exponent"):
        ql.parse_config_text(text + "exponent = 2.5\n")


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_inputs_load(tmp_path):
    W = _perfbench_workloads()
    loaded = []
    for workload in W.WORKLOADS:
        config, checkpoint = W.write_inputs(workload, 3, str(tmp_path / workload))
        for path in filter(None, (config, checkpoint)):
            loaded.append(ql.load_config(path).mode)
    assert loaded == ["solve", "solve", "load", "synthetic"]


def test_readme_documents_every_op_kind_and_option():
    readme = (ROOT / "README.md").read_text()
    names = {name for _, _, name, _ in ENTRIES}
    names |= {option for entry in ENTRIES for option in _options(entry[3])}
    assert sorted(n for n in names if f"`{n}`" not in readme) == []


@pytest.mark.parametrize("line", ["eta = false", "eta_inner = 0.5", "eta_outer = 1.0"])
def test_almgren_scan_rejects_cutoff_options(line):
    # H and D integrate against the bare kernel, so a cutoff never changed a number
    key = line.split()[0]
    text = (BASE.format(out="unused") + TIMES_SECTION + SYNTHETIC_SECTION
            + f"\n[analysis.f]\nop = almgren_scan\n{line}\n")
    with pytest.raises(ValidationError, match=re.escape(f"[analysis.f] unknown key {key!r}")):
        ql.parse_config_text(text)
