"""Pipeline orchestration: acquire a field, run analyses, emit reports.

Reports are canonical: sorted keys, 17 significant digit floats, no wall
clock anywhere, so identical config + seed gives byte-identical output and
diffs between runs are meaningful.
"""

import os
from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .config import RunConfig
from .errors import NumericalError, QuenchLabError, UsageError, ValidationError
from .field import SpaceTimeField, field_from_function
from .ops import OPS as _HANDLERS   # indexed per call: a tracer may wrap its entries
from .qlf import atomic_write, load_field, save_field
from .solver import QuenchReport, solve_until_quench


@dataclass
class Report:
    meta: Dict[str, Any]
    run: Dict[str, Any]
    analyses: List[Dict[str, Any]] = dc_field(default_factory=list)

    def violation_summary(self) -> List[Dict[str, Any]]:
        out = []
        for block in self.analyses:
            count = block.get("violations")
            if isinstance(count, int) and count > 0:
                out.append({"index": block["index"], "op": block["op"], "count": count})
        return out

    def document(self) -> Dict[str, Any]:
        return {"meta": self.meta, "run": self.run, "analyses": self.analyses,
                "violations": self.violation_summary()}


# -- canonical serialization ---------------------------------------------------

def _fmt_float(v: float) -> str:
    if np.isnan(v):
        return '"nan"'
    if np.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(float(v), ".17g")


def _canonical(obj) -> str:
    import json as _json
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return _json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(_json.dumps(str(k)) + ":" + _canonical(v) for k, v in items) + "}"
    raise ValidationError(f"cannot serialize {type(obj).__name__} into a report")


def _text_lines(doc: Dict[str, Any]):
    yield "quenchlab report"
    yield f"  config digest: {doc['meta'].get('config_digest', '')[:16]}"
    yield f"  seed: {doc['meta'].get('seed')}"
    for k, v in sorted(doc.get("run", {}).items()):
        yield f"  run.{k}: {v}"
    for block in doc.get("analyses", []):
        yield ""
        yield f"[{block.get('index')}] {block.get('op')} ({block.get('name')}) -> {block.get('status')}"
        for k, v in sorted(block.items()):
            if k in ("index", "op", "name", "status"):
                continue
            yield f"    {k}: {v}"


def emit_report(report: Report, format: str = "json") -> bytes:
    if format == "json":
        return (_canonical(report.document()) + "\n").encode()
    if format == "text":
        return ("\n".join(_text_lines(report.document())) + "\n").encode()
    raise UsageError(f"unknown report format {format!r} (json|text)")


def _write_csv(path: str, header: str, rows: List[Tuple]) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt_float(v) if isinstance(v, float) else str(v) for v in row))
    atomic_write(path, [("\n".join(lines) + "\n").encode()])


# -- field acquisition -----------------------------------------------------------

def acquire_field(cfg: RunConfig) -> Tuple[SpaceTimeField, Optional[QuenchReport]]:
    if cfg.mode == "solve":
        initial = field_from_function(cfg.model, cfg.grid, [cfg.grid.time_start],
                                      cfg.initial(cfg.model, cfg.grid))
        return solve_until_quench(initial, cfg.boundary, cfg.solver)
    if cfg.mode == "synthetic":
        times = cfg.times() if cfg.times else np.linspace(
            cfg.grid.time_start, cfg.grid.time_end, 9)
        return cfg.synthetic(cfg.model, cfg.grid, times), None
    return load_field(cfg.field_path), None


def run_op(op: str, field: SpaceTimeField, ctx: Dict[str, Any],
           options: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Tuple]]:
    """(result, csvs) of the registered analysis op on field.  A QuenchLabError
    passes through, a raw KeyError, TypeError or ValueError becomes a
    UsageError, an ArithmeticError (overflow, zero division, ...) a NumericalError.
    """
    handler = _HANDLERS[op]
    try:
        return handler(field, ctx, **options)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad options for {op}: {exc!r}") from exc
    except ArithmeticError as exc:
        raise NumericalError(f"{op} failed: {exc!r}") from exc


def run_pipeline(config: RunConfig, raise_errors: bool = True) -> Report:
    """Acquire the field, run every analysis in file order, write all outputs.

    Partial results are always written; with raise_errors the first analysis
    error is re-raised (tagged with its index) after the report is on disk.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    field, quench = acquire_field(config)
    if config.mode != "load":
        save_field(field, os.path.join(config.output_dir, "field.qlf"))

    run_block: Dict[str, Any] = {
        "mode": config.mode,
        "grid_nodes": list(field.grid.node_shape),
        "stored_times": int(field.times.size),
    }
    if quench is not None:
        run_block["quench_time"] = quench.quench_time
        run_block["steps_taken"] = quench.steps_taken
        run_block["quench_points"] = [list(pt.x) + [pt.t] for pt in quench.quench_points[:8]]

    ctx = {"seed": config.seed, "boundary": config.boundary, "solver": config.solver}

    report = Report(
        meta={"package": "quenchlab", "version": __version__,
              "config_digest": config.digest, "seed": config.seed},
        run=run_block,
    )
    first_error = None
    for index, req in enumerate(config.analyses, start=1):
        block = {"index": index, "name": req.name, "op": req.op, "status": "ok"}
        report.analyses.append(block)
        try:
            result, csvs = run_op(req.op, field, ctx, req.options)
        except QuenchLabError as exc:
            block.update(status="error", error_kind=type(exc).__name__, message=str(exc))
            if first_error is None:
                first_error = (index, exc)
            continue
        block.update(result)
        for tag, (header, rows) in csvs.items():
            path = os.path.join(config.output_dir, f"analysis_{index:02d}_{req.op}_{tag}.csv")
            _write_csv(path, header, rows)

    atomic_write(os.path.join(config.output_dir, "report.json"),
                 [emit_report(report, "json")])
    atomic_write(os.path.join(config.output_dir, "report.txt"),
                 [emit_report(report, "text")])
    if first_error is not None and raise_errors:
        index, exc = first_error
        # the original object keeps its payload (BudgetError.partial, ...)
        exc.args = (f"analysis {index} failed: {exc}",) + exc.args[1:]
        raise exc
    return report
