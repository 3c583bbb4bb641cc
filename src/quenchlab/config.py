"""Run configuration: one human-editable INI file per experiment.

Values are JSON fragments (so lists and floats read unambiguously); sections
name the pieces of the run.  Analyses are ordered sections [analysis.NAME]
executed in file order.  Every section is checked when the config loads,
against the fields of the dataclass it builds or the keyword-only parameters
of the op or kind it names (see `ops`): an unknown section or key, a missing
required key, a value of the wrong JSON type or a float that is NaN or
Infinity fails before any work starts.
"""

import configparser
import hashlib
import inspect
import json
import sys
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Any, Callable, Dict, List, Literal, Optional, Union, get_args, get_origin

from .errors import ValidationError
from .grid import GridSpec
from .ops import BOUNDARY, INITIAL, OPS, SYNTHETIC, TIMES
from .params import ModelParams
from .solver import BoundaryData, SolverConfig

SECTIONS = ("run", "model", "grid", "solver", "boundary", "initial", "synthetic", "times")


@dataclass
class AnalysisRequest:
    name: str
    op: str
    options: Dict[str, Any] = dc_field(default_factory=dict)


@dataclass
class RunConfig:
    mode: str
    model: ModelParams
    grid: GridSpec
    seed: int
    output_dir: str
    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    boundary: Optional[BoundaryData] = None
    initial: Callable = INITIAL["constant"]   # (model, grid) -> u(xs, t)
    synthetic: Optional[Callable] = None      # (model, grid, times) -> field
    times: Optional[Callable] = None          # () -> stored times
    field_path: Optional[str] = None
    analyses: List[AnalysisRequest] = dc_field(default_factory=list)
    raw_text: str = ""

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()


def _run(*, mode: Literal["solve", "synthetic", "load"] = "solve", seed: int = 0,
         output_dir: str = "quenchlab-run", field_path: Optional[str] = None):
    """The [run] section."""
    return locals()


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw.strip()


def _conform(ann, value):
    """`value` as the annotation `ann` declares it, floats via float(); else TypeError,
    or ValueError for a number (a list entry too) that is NaN, infinite or past float range."""
    origin, args = get_origin(ann), get_args(ann)
    if origin is Union:
        for arg in args:
            try:
                return _conform(arg, value)
            except TypeError:
                pass
    elif origin is Literal:
        if value in args:
            return value
    elif origin in (list, tuple):
        if isinstance(value, list):
            return [_conform(args[0], v) for v in value]
    elif ann is float:
        if type(value) in (int, float):
            if not abs(value) <= sys.float_info.max:
                raise ValueError(value)
            return float(value)
    elif type(value) is ann:
        return value
    raise TypeError(value)


def check_options(section: str, fn: Callable, spec: Dict[str, Any]) -> Dict[str, Any]:
    """`spec` bound against the options `fn` declares, with float values converted.

    A class declares its constructor's parameters, a function its keyword-only
    ones.  An unknown key, a missing required key, a value of the wrong JSON
    type or a float that is not finite raises ValidationError.
    """
    params = {p.name: p for p in inspect.signature(fn).parameters.values()
              if p.kind is p.KEYWORD_ONLY or isinstance(fn, type)}
    unknown = sorted(set(spec) - set(params))
    if unknown:
        raise ValidationError(f"[{section}] unknown key {unknown[0]!r}; "
                              f"known keys: {', '.join(params) or 'none'}")
    for key, p in params.items():
        if p.default is p.empty and key not in spec:
            raise ValidationError(f"[{section}] is missing required key {key!r}")
    out = {}
    for key, value in spec.items():
        ann = params[key].annotation
        try:
            out[key] = _conform(ann, value)
        except ValueError:
            raise ValidationError(f"[{section}] {key} = {value!r} is not finite: "
                                  f"NaN and Infinity are refused") from None
        except TypeError:
            name = ann.__name__ if isinstance(ann, type) else str(ann).replace("typing.", "")
            raise ValidationError(f"[{section}] {key} = {value!r} is not {name}") from None
    return out


def _named(section: str, registry: Dict[str, Callable], spec: Dict[str, Any], key: str,
           default: Optional[str] = None):
    """The registry name `spec[key]` gives and the rest of `spec` checked against it."""
    spec = dict(spec)
    name = spec.pop(key, default)
    if not isinstance(name, str) or name not in registry:
        raise ValidationError(f"[{section}] unknown {key} {name!r}; known: {', '.join(registry)}")
    return name, check_options(section, registry[name], spec)


def _kind(sections, section: str, registry, default: Optional[str] = None):
    """The kind a section names with its options bound, or None without the section."""
    if not sections.get(section):
        return None
    kind, options = _named(section, registry, sections[section], "kind", default)
    return partial(registry[kind], **options)


def parse_config_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from exc
    sec = {name: {k: _parse_value(v) for k, v in parser.items(name)}
           for name in parser.sections()}
    unknown = [name for name in sec if name not in SECTIONS and not name.startswith("analysis.")]
    if unknown:
        raise ValidationError(f"unknown section [{unknown[0]}]; known: "
                              f"{', '.join(SECTIONS)} and analysis.<tag>")

    run = _run(**check_options("run", _run, sec.get("run", {})))
    model = ModelParams(**check_options("model", ModelParams, sec.get("model", {})))
    boundary = _kind(sec, "boundary", BOUNDARY, "constant")
    cfg = RunConfig(
        model=model,
        grid=GridSpec(**check_options("grid", GridSpec, sec.get("grid", {}))),
        solver=SolverConfig(**check_options("solver", SolverConfig, sec.get("solver", {}))),
        boundary=boundary(model) if boundary else None,
        initial=_kind(sec, "initial", INITIAL, "constant") or INITIAL["constant"],
        synthetic=_kind(sec, "synthetic", SYNTHETIC),
        times=_kind(sec, "times", TIMES, "uniform"),
        analyses=[AnalysisRequest(name, *_named(name, OPS, spec, "op"))
                  for name, spec in sec.items() if name.startswith("analysis.")],
        raw_text=text, **run)
    if cfg.mode == "solve" and cfg.boundary is None:
        raise ValidationError("[boundary] section is required in solve mode")
    if cfg.mode == "load" and not cfg.field_path:
        raise ValidationError("[run] field_path is required in load mode")
    if cfg.mode == "synthetic" and cfg.synthetic is None:
        raise ValidationError("[synthetic] section is required in synthetic mode")
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
