"""Pipeline orchestration: acquire a field, run analyses, emit reports.

Reports are canonical: sorted keys, 17 significant digit floats, no wall
clock anywhere, so identical config + seed gives byte-identical output and
diffs between runs are meaningful.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .bumps import CutoffSpec, SpaceTimeBump, TestVectorField, TimeWindow
from .config import RunConfig, build_times
from .errors import QuenchLabError, UsageError, ValidationError
from .exact import ode_field, ode_solution, profile_field, radial_field, radial_steady
from .field import SpaceTimeField, field_from_function
from .geometry import ParabolicCylinder, ParabolicPoint
from .monotonicity import (SlackModel, WeightSpec, almgren_scan, density_estimate,
                           log_h_identity_error)
from .qlf import atomic_write, load_field, save_field
from .residuals import two_valued_caloric_check
from .rupture import (apriori_scaling_check, holder_seminorm, parabolic_box_dimension,
                      rupture_set, rupture_threshold, slice_dimension)
from .exact import self_similarity_residual
from .solver import QuenchReport, comparison_guard, solve_until_quench


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
    atomic_write(path, ("\n".join(lines) + "\n").encode())


# -- field acquisition -----------------------------------------------------------

def _initial_field(cfg: RunConfig) -> SpaceTimeField:
    kind = cfg.initial.get("kind", "constant")
    model, grid = cfg.model, cfg.grid
    t0 = grid.time_start
    if kind == "constant":
        v = float(cfg.initial.get("value", 1.0))
        fn = lambda xs, t: np.full(xs.shape[0], v)
    elif kind == "ode":
        off = float(cfg.initial.get("offset", -1.0))
        fn = lambda xs, t: np.full(xs.shape[0], ode_solution(model, off))
    elif kind == "radial":
        fn = lambda xs, t: np.atleast_1d(radial_steady(model, xs))
    elif kind == "dip":
        base = float(cfg.initial.get("base", 1.0))
        depth = float(cfg.initial.get("depth", 0.75))
        width = float(cfg.initial.get("width", 0.35))
        center = np.asarray(cfg.initial.get("center", [0.0] * grid.n), dtype=float)
        fn = lambda xs, t: base - depth * np.exp(-np.sum((xs - center) ** 2, axis=-1) / width ** 2)
    else:
        raise ValidationError(f"[initial] unknown kind {kind!r} (constant|ode|radial|dip)")
    return field_from_function(model, grid, [t0], fn)


def _synthetic_field(cfg: RunConfig) -> SpaceTimeField:
    times = build_times(cfg.times) if cfg.times else np.linspace(
        cfg.grid.time_start, cfg.grid.time_end, 9)
    kind = cfg.synthetic.get("kind")
    if kind == "ode":
        return ode_field(cfg.model, cfg.grid, times)
    if kind == "radial_steady":
        return radial_field(cfg.model, cfg.grid, times)
    return profile_field(cfg.model, cfg.grid, times, kind,
                         exponent=cfg.synthetic.get("exponent"))


def acquire_field(cfg: RunConfig) -> Tuple[SpaceTimeField, Optional[QuenchReport]]:
    if cfg.mode == "solve":
        initial = _initial_field(cfg)
        return solve_until_quench(initial, cfg.boundary, cfg.solver)
    if cfg.mode == "synthetic":
        return _synthetic_field(cfg), None
    return load_field(cfg.field_path), None


# -- analysis handlers ------------------------------------------------------------

def _point(opts, field: SpaceTimeField, key="point") -> ParabolicPoint:
    if key in opts:
        v = list(opts[key])
        return ParabolicPoint(tuple(v[:-1]), float(v[-1]))
    # default: the argmin node of the final slab at the final time
    last = field.values[-1]
    idx = np.unravel_index(int(np.argmin(last)), last.shape)
    x = tuple(field.grid.axis_nodes(k)[idx[k]] for k in range(field.n))
    return ParabolicPoint(x, float(field.times[-1]))


def _weight(opts, field: SpaceTimeField) -> WeightSpec:
    k = float(opts.get("truncation", 6.0))
    if opts.get("eta", True) is False:
        return WeightSpec(truncation_multiple=k, eta=None)
    return WeightSpec(truncation_multiple=k,
                      eta=CutoffSpec(center=None,
                                     inner_radius=float(opts.get("eta_inner", 0.5)),
                                     outer_radius=float(opts.get("eta_outer", 1.0))))


def _run_density(field, opts, ctx):
    x0 = _point(opts, field)
    w = _weight(opts, field)
    slack = SlackModel(tol_abs=float(opts.get("tol_abs", 1e-4)),
                       tol_exp=float(opts.get("tol_exp", 1.0)))
    theta, trace = density_estimate(
        field, x0, w, float(opts["s_min"]), float(opts["s_max"]),
        slack=slack, u_floor=opts.get("u_floor"))
    result = {
        "theta": theta, "diverging": trace.diverging,
        "violations": len(trace.violations),
        "tolerances": {"tol_abs": slack.tol_abs, "tol_exp": slack.tol_exp},
        "truncation": {"multiple": w.truncation_multiple, "tail_bound": trace.tail_bound,
                       "eta_used": trace.eta_used},
        "point": list(x0.x) + [x0.t],
    }
    rows = list(zip(trace.s_samples.tolist(), trace.E_values.tolist(),
                    trace.Ebar_values.tolist()))
    return result, {"trace": ("s,E,Ebar", rows)}


def _run_almgren(field, opts, ctx):
    x0 = _point(opts, field)
    w = _weight(opts, field)
    if "s_grid" in opts:
        grid = [float(v) for v in opts["s_grid"]]
    else:
        grid = np.geomspace(float(opts.get("s_min", 0.1)), float(opts.get("s_max", 1.0)),
                            int(opts.get("num", 16))).tolist()
    gamma_half = opts.get("gamma_half")
    trace = almgren_scan(field, x0, w, grid,
                         caloric=bool(opts.get("caloric", True)),
                         gamma_half_reference=gamma_half,
                         violation_tol=float(opts.get("violation_tol", 1e-6)))
    valid = ~np.isnan(trace.N_values)
    result = {
        "N_min": float(np.min(trace.N_values[valid])) if valid.any() else None,
        "N_max": float(np.max(trace.N_values[valid])) if valid.any() else None,
        "violations": len(trace.violations),
        "monotonicity_claimed": trace.monotonicity_claimed,
        "max_reference_gap": trace.max_reference_gap,
        "log_h_identity_error": log_h_identity_error(trace) if len(grid) >= 3 else None,
        "truncation": {"multiple": w.truncation_multiple, "tail_bound": w.tail_bound(field.n)},
        "point": list(x0.x) + [x0.t],
    }
    rows = list(zip(trace.s_samples.tolist(), trace.H_values.tolist(),
                    trace.D_values.tolist(), trace.N_values.tolist()))
    return result, {"trace": ("s,H,D,N", rows)}


def _run_holder(field, opts, ctx):
    exponent = float(opts.get("exponent", field.params.alpha))
    est = holder_seminorm(field, exponent, int(opts.get("budget", 20000)),
                          seed=ctx["seed"])
    wa, wb = est.witness_pair
    result = {
        "exponent": est.exponent, "seminorm": est.seminorm,
        "pairs_sampled": est.pairs_sampled,
        "witness": [list(wa.x) + [wa.t], list(wb.x) + [wb.t]],
        "tolerances": {"rng": "philox4x64-10", "seed": ctx["seed"]},
    }
    return result, {}


def _auto_radii(field: SpaceTimeField, r_min: Optional[float] = None):
    """Octaves from a quarter of the widest extent down to max(4h, r_min).

    A ladder of fewer than two radii has no slope to fit, so it is refused.
    """
    h = field.h
    top = max(field.grid.extent) / 4.0
    lo = max(4.0 * h, r_min or 0.0)
    radii = []
    r = top
    while r >= lo * (1 - 1e-12):
        radii.append(r)
        r /= 2.0
    if len(radii) < 2:
        raise UsageError(f"grid too coarse for a dimension ladder: fewer than two "
                         f"octaves from r = {top:g} down to {lo:g}")
    return radii


def _run_rupture_dimension(field, opts, ctx):
    tau = opts.get("tau", "auto")
    kappa = float(opts.get("kappa", 4.0))
    tau = rupture_threshold(field, kappa) if tau == "auto" else float(tau)
    S = rupture_set(field, tau)
    if len(S) == 0:
        return {"threshold": tau, "points": 0, "fitted_dim": None}, {}
    radii = [float(v) for v in opts["radii"]] if "radii" in opts else _auto_radii(
        field, opts.get("r_min"))
    fit = parabolic_box_dimension(S, radii)
    result = {
        "threshold": tau, "points": len(S),
        "fitted_dim": fit.fitted_dim, "fit_residual": fit.residual,
        "fit_range": list(fit.fit_range),
        "tolerances": {"kappa": kappa, "octave_trim": 1},
    }
    csv = {"counts": ("r,count", list(zip(fit.radii.tolist(),
                                          [int(c) for c in fit.counts])))}
    slice_at = opts.get("slice_at")
    if slice_at is not None:
        t = float(field.times[-1]) if slice_at == "final" else float(slice_at)
        sfit = slice_dimension(S, t, radii)
        result["slice_time"] = t
        result["slice_dim"] = sfit.fitted_dim
        csv["slice_counts"] = ("r,count", list(zip(sfit.radii.tolist(),
                                                   [int(c) for c in sfit.counts])))
    return result, csv


def _run_apriori(field, opts, ctx):
    x0 = _point(opts, field)
    quantity = opts.get("quantity", "u_inv_p")
    radii = [float(v) for v in opts["radii"]]
    fit = apriori_scaling_check(field, x0, quantity, radii, u_floor=opts.get("u_floor"))
    n, p = field.params.n, field.params.p
    expected = {"u_inv_p": n + 2.0 / (p + 1.0),
                "energy": n + 4.0 / (p + 1.0),
                "mass": n + 2.0 + 2.0 / (p + 1.0)}[quantity]
    result = {
        "quantity": quantity, "exponent": fit.fitted_dim, "expected": expected,
        "gap": abs(fit.fitted_dim - expected), "fit_residual": fit.residual,
        "point": list(x0.x) + [x0.t],
    }
    return result, {"integrals": ("r,count", list(zip(fit.radii.tolist(),
                                                      fit.counts.tolist())))}


def _centered_tests(field: SpaceTimeField, opts):
    g = field.grid
    c = np.asarray(opts.get("center", [g.origin[k] + 0.5 * g.extent[k]
                                       for k in range(g.n)]), dtype=float)
    r_out = float(opts.get("r_out", 0.25 * min(g.extent)))
    span = float(field.times[-1] - field.times[0])
    mid = 0.5 * float(field.times[0] + field.times[-1])
    tw = TimeWindow(center=mid, inner=float(opts.get("t_inner", 0.2 * span)),
                    outer=float(opts.get("t_outer", 0.4 * span)))
    bump = SpaceTimeBump(space=CutoffSpec(tuple(c), 0.5 * r_out, r_out), time=tw)
    ys = [TestVectorField(kind="coordinate_bump", bump=bump, axis=k)
          for k in range(g.n)]
    ys.append(TestVectorField(kind="radial_bump", bump=bump))
    return [bump], ys


def _run_two_valued(field, opts, ctx):
    etas, ys = _centered_tests(field, opts)
    reports = two_valued_caloric_check(field, etas, ys)
    rel_tol = float(opts.get("rel_tol", 1e-3))
    result = {"tolerances": {"rel_tol": rel_tol}}
    for key, rep in reports.items():
        ok = np.isfinite(rep.value) if key == "i" else (
            rep.value >= -rel_tol * max(rep.scale, 1e-300) if key in ("ii",)
            else (rep.value <= rel_tol * max(rep.scale, 1e-300) if key == "v"
                  else rep.relative <= rel_tol))
        result[f"cond_{key}"] = {"value": rep.value, "scale": rep.scale,
                                 "relative": rep.relative, "pass": bool(ok)}
    return result, {}


def _run_guard(field, opts, ctx):
    if ctx.get("boundary") is None:
        raise UsageError("comparison_guard needs a [boundary] section")
    g = comparison_guard(field, ctx["boundary"], ctx.get("solver"))
    return {"guard": g, "tolerances": {"expected": "<= 1e-6 + C h^2"}}, {}


def _run_self_similarity(field, opts, ctx):
    x0 = _point(opts, field)
    lambdas = [float(v) for v in opts.get("lambdas", [0.5, 2.0])]
    wc = opts.get("window_center", list(x0.x))
    wr = float(opts.get("window_radius", 0.25 * min(field.grid.extent)))
    wt = float(opts.get("window_time", field.times[-1]))
    window = ParabolicCylinder(ParabolicPoint(tuple(wc), wt), wr)
    res = self_similarity_residual(field, x0, lambdas, window)
    return {"residual": res, "lambdas": lambdas,
            "point": list(x0.x) + [x0.t]}, {}


_HANDLERS = {
    "density_estimate": _run_density,
    "almgren_scan": _run_almgren,
    "holder_seminorm": _run_holder,
    "rupture_dimension": _run_rupture_dimension,
    "apriori_scaling": _run_apriori,
    "two_valued_check": _run_two_valued,
    "comparison_guard": _run_guard,
    "self_similarity": _run_self_similarity,
}


def _analysis_workers() -> int:
    raw = os.environ.get("QUENCHLAB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"QUENCHLAB_THREADS must be a positive integer, got {raw!r}")
    return workers


def run_pipeline(config: RunConfig, raise_errors: bool = True) -> Report:
    """Acquire the field, run every analysis in order, write all outputs.

    Partial results are always written; with raise_errors the first analysis
    error is re-raised (tagged with its index) after the report is on disk.
    """
    workers = _analysis_workers()
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

    ctx = {"seed": config.seed, "boundary": config.boundary,
           "solver": config.solver, "quench": quench}

    def run_one(item):
        index, req = item
        try:
            result, csvs = _HANDLERS[req.op](field, dict(req.options), ctx)
            return index, req, "ok", result, csvs, None
        except QuenchLabError as exc:
            return index, req, "error", {"error_kind": type(exc).__name__,
                                         "message": str(exc)}, {}, exc
        except (KeyError, TypeError, ValueError) as exc:
            wrapped = UsageError(f"bad options for {req.op}: {exc!r}")
            return index, req, "error", {"error_kind": "UsageError",
                                         "message": str(wrapped)}, {}, wrapped

    items = list(enumerate(config.analyses, start=1))
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_one, items))
    else:
        outcomes = [run_one(it) for it in items]

    report = Report(
        meta={"package": "quenchlab", "version": __version__,
              "config_digest": config.digest, "seed": config.seed},
        run=run_block,
    )
    first_error = None
    for index, req, status, result, csvs, exc in outcomes:
        block = {"index": index, "name": req.name, "op": req.op, "status": status}
        block.update(result)
        report.analyses.append(block)
        for tag, (header, rows) in csvs.items():
            path = os.path.join(config.output_dir, f"analysis_{index:02d}_{req.op}_{tag}.csv")
            _write_csv(path, header, rows)
        if exc is not None and first_error is None:
            first_error = (index, exc)

    atomic_write(os.path.join(config.output_dir, "report.json"),
                 emit_report(report, "json"))
    atomic_write(os.path.join(config.output_dir, "report.txt"),
                 emit_report(report, "text"))
    if first_error is not None and raise_errors:
        index, exc = first_error
        # the original object keeps its payload (BudgetError.partial, ...)
        exc.args = (f"analysis {index} failed: {exc}",) + exc.args[1:]
        raise exc
    return report
