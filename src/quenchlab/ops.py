"""Everything a config section can name, one callable each.

An analysis op is `op(field, ctx, **options)` and returns its report block
and its CSV curves `{tag: (header, rows)}`.  A kind of [initial] returns the
initial values `u(xs, t)`, of [boundary] a BoundaryData, of [times] the
stored time ladder, and of [synthetic] an oracle field.  The keyword-only
parameters of each callable declare its options (name, annotated type and
default) and nothing else does: `config.check_options` binds a section
against them when the config loads.  Range and cross-key checks stay here.
"""

from typing import List, Literal, Optional, Union

import numpy as np

from .bumps import CutoffSpec, SpaceTimeBump, TestVectorField
from .errors import UsageError
from .exact import (geometric_times, ode_field, ode_solution, profile_field, radial_field,
                    radial_steady, radial_steady_coeff, self_similarity_residual)
from .field import SpaceTimeField
from .geometry import ParabolicCylinder, ParabolicPoint
from .monotonicity import (SlackModel, WeightSpec, almgren_scan, density_estimate,
                           log_h_identity_error)
from .residuals import default_time_window, two_valued_caloric_check
from .rupture import (apriori_scaling_check, holder_seminorm, parabolic_box_dimension,
                      rupture_set, rupture_threshold, slice_dimension)
from .solver import ANALYTIC_TRACE, CONSTANT, PERIODIC_BC, BoundaryData, comparison_guard

Floats = Optional[List[float]]   # null leaves the choice to the op


# -- [initial]: (model, grid) -> u(xs, t) at grid.time_start -----------------------

def _initial_constant(model, grid, *, value: float = 1.0):
    return lambda xs, t: np.full(xs.shape[0], value)


def _initial_ode(model, grid, *, offset: float = -1.0):
    return lambda xs, t: np.full(xs.shape[0], ode_solution(model, offset))


def _initial_radial(model, grid):
    return lambda xs, t: np.atleast_1d(radial_steady(model, xs))


def _initial_dip(model, grid, *, base: float = 1.0, depth: float = 0.75, width: float = 0.35,
                 center: Floats = None):
    c = np.zeros(grid.n) if center is None else np.asarray(center)
    return lambda xs, t: base - depth * np.exp(-np.sum((xs - c) ** 2, axis=-1) / width ** 2)


INITIAL = {"constant": _initial_constant, "ode": _initial_ode, "radial": _initial_radial,
           "dip": _initial_dip}


# -- [boundary]: (model) -> BoundaryData -------------------------------------------

def _boundary_constant(model, *, value: float = 1.0):
    return BoundaryData(kind=CONSTANT, value=value)


def _boundary_periodic(model):
    return BoundaryData(kind=PERIODIC_BC)


def _boundary_ode_trace(model, *, t_quench: float = 1.0):
    return BoundaryData(kind=ANALYTIC_TRACE, value_fn=lambda xs, t: np.full(
        xs.shape[0], ode_solution(model, t - t_quench)))


def _boundary_radial_trace(model):
    c, a = radial_steady_coeff(model), model.alpha
    return BoundaryData(kind=ANALYTIC_TRACE,
                        value_fn=lambda xs, t: c * np.linalg.norm(xs, axis=-1) ** a)


BOUNDARY = {CONSTANT: _boundary_constant, PERIODIC_BC: _boundary_periodic,
            "ode_trace": _boundary_ode_trace, "radial_trace": _boundary_radial_trace}


# -- [times]: () -> stored times; [synthetic]: (model, grid, times) -> field ---------

def _times_uniform(*, start: float, stop: float, num: int):
    return np.linspace(start, stop, num)


def _times_geometric(*, start: float, stop: float, ratio: float):
    return geometric_times(start, stop, ratio)


def _times_explicit(*, values: List[float]):
    return np.asarray(values, dtype=float)


TIMES = {"uniform": _times_uniform, "geometric": _times_geometric, "explicit": _times_explicit}


def _profile(kind):
    return lambda model, grid, times: profile_field(model, grid, times, kind)


def _synthetic_abs_x1_pow(model, grid, times, *, exponent: float):
    return profile_field(model, grid, times, "abs_x1_pow", exponent=exponent)


def _synthetic_constant(model, grid, times, *, value: float = 1.0):
    return profile_field(model, grid, times, "constant", value=value)


SYNTHETIC = {"ode": ode_field, "radial_steady": radial_field,
             **{kind: _profile(kind) for kind in ("abs_x1", "abs_x1x2", "relu_x1")},
             "abs_x1_pow": _synthetic_abs_x1_pow, "constant": _synthetic_constant}


# -- analysis ops --------------------------------------------------------------------

def _coordinates(name: str, values: List[float], n: int) -> List[float]:
    """The list option name, refused unless it holds n finite coordinates."""
    if len(values) != n:
        raise UsageError(f"{name} needs {n} coordinates, got {len(values)}")
    if not np.isfinite(values).all():
        raise UsageError(f"{name} needs finite coordinates, got {list(values)}")
    return values


def _point(point, field: SpaceTimeField) -> ParabolicPoint:
    if point is not None:
        point = _coordinates("point", point, field.n + 1)
        return ParabolicPoint(tuple(point[:-1]), point[-1])
    # default: the argmin node of the final slab at the final time
    x = field.grid.node_points()[int(np.argmin(field.values[-1]))]
    return ParabolicPoint(x, float(field.times[-1]))


def _run_density(field, ctx, *, s_min: float, s_max: float, point: Floats = None,
                 truncation: float = WeightSpec.truncation_multiple, eta: bool = True,
                 eta_inner: float = WeightSpec.eta[0], eta_outer: float = WeightSpec.eta[1],
                 tol_abs: float = SlackModel.tol_abs, tol_exp: float = SlackModel.tol_exp,
                 u_floor: Optional[float] = None):
    x0 = _point(point, field)
    w = WeightSpec(truncation_multiple=truncation, eta=(eta_inner, eta_outer) if eta else None)
    slack = SlackModel(tol_abs=tol_abs, tol_exp=tol_exp)
    theta, trace = density_estimate(field, x0, w, s_min, s_max, slack=slack, u_floor=u_floor)
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


def _run_almgren(field, ctx, *, point: Floats = None, s_grid: Floats = None,
                 s_min: float = 0.1, s_max: float = 1.0, num: int = 16,
                 truncation: float = WeightSpec.truncation_multiple, caloric: bool = True,
                 gamma_half: Optional[float] = None, violation_tol: float = 1e-6):
    x0 = _point(point, field)
    # frequency integrates against the bare kernel: no cutoff to configure
    w = WeightSpec(truncation_multiple=truncation, eta=None)
    if s_grid is None:
        if not 0 < s_min < s_max:
            raise UsageError(f"need 0 < s_min < s_max, got s_min={s_min}, s_max={s_max}")
        if num < 2:
            raise UsageError(f"num must give at least two samples, got {num}")
    grid = s_grid if s_grid is not None else np.geomspace(s_min, s_max, num).tolist()
    trace = almgren_scan(field, x0, w, grid, caloric=caloric,
                         gamma_half_reference=gamma_half, violation_tol=violation_tol)
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


def _run_holder(field, ctx, *, exponent: Optional[float] = None, budget: int = 20000):
    exponent = field.params.alpha if exponent is None else exponent
    est = holder_seminorm(field, exponent, budget, seed=ctx["seed"])
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


def _run_rupture_dimension(field, ctx, *, tau: Union[Literal["auto"], float] = "auto",
                           kappa: float = 4.0, radii: Floats = None,
                           r_min: Optional[float] = None,
                           slice_at: Union[Literal["final"], float, None] = None):
    tau = rupture_threshold(field, kappa) if tau == "auto" else tau
    S = rupture_set(field, tau)
    if len(S) == 0:
        return {"threshold": tau, "points": 0, "fitted_dim": None}, {}
    radii = radii if radii is not None else _auto_radii(field, r_min)
    fit = parabolic_box_dimension(S, radii)
    result = {
        "threshold": tau, "points": len(S),
        "fitted_dim": fit.fitted_dim, "fit_residual": fit.residual,
        "fit_range": list(fit.fit_range),
        "tolerances": {"kappa": kappa, "octave_trim": 1},
    }
    csv = {"counts": ("r,count", list(zip(fit.radii.tolist(),
                                          [int(c) for c in fit.counts])))}
    if slice_at is not None:
        t = float(field.times[-1]) if slice_at == "final" else slice_at
        sfit = slice_dimension(S, t, radii)
        result["slice_time"] = t
        result["slice_dim"] = sfit.fitted_dim
        csv["slice_counts"] = ("r,count", list(zip(sfit.radii.tolist(),
                                                   [int(c) for c in sfit.counts])))
    return result, csv


def _run_apriori(field, ctx, *, radii: List[float], point: Floats = None,
                 quantity: Literal["u_inv_p", "energy", "mass"] = "u_inv_p",
                 u_floor: Optional[float] = None):
    x0 = _point(point, field)
    fit = apriori_scaling_check(field, x0, quantity, radii, u_floor=u_floor)
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


# the pass test of each two-valued condition, from its report and rel_tol
_TWO_VALUED_PASS = {
    "i": lambda rep, tol: np.isfinite(rep.value),
    "ii": lambda rep, tol: rep.value >= -tol * max(rep.scale, 1e-300),
    "iii": lambda rep, tol: rep.relative <= tol,
    "iv": lambda rep, tol: rep.relative <= tol,
    "v": lambda rep, tol: rep.value <= tol * max(rep.scale, 1e-300),
}


def _run_two_valued(field, ctx, *, center: Floats = None, r_out: Optional[float] = None,
                    t_inner: Optional[float] = None, t_outer: Optional[float] = None,
                    rel_tol: float = 1e-3):
    g = field.grid
    if not rel_tol >= 0.0:
        raise UsageError(f"rel_tol must be >= 0, got {rel_tol}")
    c = ([g.origin[k] + 0.5 * g.extent[k] for k in range(g.n)] if center is None
         else _coordinates("center", center, g.n))
    r_out = 0.25 * min(g.extent) if r_out is None else r_out
    tw = default_time_window(field, t_inner, t_outer)
    bump = SpaceTimeBump(space=CutoffSpec(tuple(c), 0.5 * r_out, r_out), time=tw)
    ys = [TestVectorField(kind="coordinate_bump", bump=bump, axis=k) for k in range(g.n)]
    ys.append(TestVectorField(kind="radial_bump", bump=bump))
    reports = two_valued_caloric_check(field, [bump], ys)
    result = {"tolerances": {"rel_tol": rel_tol}}
    for key, rep in reports.items():
        result[f"cond_{key}"] = {"value": rep.value, "scale": rep.scale,
                                 "relative": rep.relative,
                                 "pass": bool(_TWO_VALUED_PASS[key](rep, rel_tol))}
    return result, {}


def _run_guard(field, ctx):
    if ctx.get("boundary") is None:
        raise UsageError("comparison_guard needs a [boundary] section")
    g = comparison_guard(field, ctx["boundary"], ctx.get("solver"))
    return {"guard": g, "tolerances": {"expected": "<= 1e-6 + C h^2"}}, {}


def _run_self_similarity(field, ctx, *, point: Floats = None,
                         lambdas: List[float] = (0.5, 2.0), window_center: Floats = None,
                         window_radius: Optional[float] = None,
                         window_time: Optional[float] = None):
    x0 = _point(point, field)
    lambdas = list(lambdas)
    wc = x0.x if window_center is None else _coordinates("window_center", window_center, field.n)
    wr = 0.25 * min(field.grid.extent) if window_radius is None else window_radius
    # a wider window cannot lie in the grid, and its r^2 could overflow
    if not 0 < wr <= max(field.grid.extent):
        raise UsageError(f"window_radius must lie in (0, {max(field.grid.extent):g}], got {wr}")
    wt = float(field.times[-1]) if window_time is None else window_time
    window = ParabolicCylinder(ParabolicPoint(tuple(wc), wt), wr)
    res = self_similarity_residual(field, x0, lambdas, window)
    return {"residual": res, "lambdas": lambdas,
            "point": list(x0.x) + [x0.t]}, {}


OPS = {
    "density_estimate": _run_density,
    "almgren_scan": _run_almgren,
    "holder_seminorm": _run_holder,
    "rupture_dimension": _run_rupture_dimension,
    "apriori_scaling": _run_apriori,
    "two_valued_check": _run_two_valued,
    "comparison_guard": _run_guard,
    "self_similarity": _run_self_similarity,
}
