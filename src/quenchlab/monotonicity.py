"""Gaussian-weighted monotone energy, density, and frequency functionals.

E(s) is the backward heat-kernel weighted energy at a base point, cut off by a
plateau centred on that point; its s -> 0 limit (the density) is finite
exactly at rupture points and diverges like a negative power at positivity
points.  H, D and N = D/H, taken against the bare kernel, form the parabolic
frequency, nondecreasing in s for (two-valued) caloric fields, with
d/ds log H = 2N/s.

The Gaussian weights read one prepared box per base point: |y - x0|^2 and the
cutoff are evaluated once over the box the largest s reads, and every s slices
them by `quadrature._sub_cells`, as `quadrature.integrate` slices its union block.
"""

import warnings
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaincc

from .bumps import bump_profile
from .errors import AccuracyWarning, UsageError, ValidationError
from .field import SpaceTimeField
from .geometry import ParabolicPoint
from .quadrature import _cell_window, _sub_cells, singular_floor, slab_cells


@dataclass(frozen=True)
class WeightSpec:
    """Heat-kernel truncation radius (in units of sqrt(s)) and optional cutoff.

    eta=None integrates against the bare truncated kernel (the full-space
    variant used on entire blow-up limits); otherwise eta = (inner, outer) are
    the radii of the plateau cutoff, which is centred on the base point by
    definition: 1 on B_inner(x0) and 0 outside B_outer(x0).  Reports record
    which variant was used and the analytic kernel tail bound.
    """

    truncation_multiple: float = 6.0
    eta: Optional[Tuple[float, float]] = (0.5, 1.0)

    def __post_init__(self):
        if self.truncation_multiple < 4.0:
            raise ValidationError("truncation_multiple must be >= 4")
        if self.eta is not None and not 0.0 <= self.eta[0] < self.eta[1]:
            raise ValidationError(f"need 0 <= inner < outer, got {self.eta[0]}, {self.eta[1]}")

    def tail_bound(self, n: int) -> float:
        """Heat-kernel mass outside the truncation ball |y| <= k sqrt(s)."""
        return float(gammaincc(n / 2.0, self.truncation_multiple ** 2 / 4.0))


@dataclass
class SlackModel:
    """Allowed downward wiggle of E per scan interval: tol_abs + tol_exp e^(-1/(8s))."""

    tol_abs: float = 1e-4
    tol_exp: float = 1.0

    def allowance(self, s: float) -> float:
        return self.tol_abs + self.tol_exp * np.exp(-1.0 / (8.0 * s))


@dataclass
class MonotonicityTrace:
    base_point: ParabolicPoint
    s_samples: np.ndarray
    E_values: np.ndarray
    Ebar_values: np.ndarray
    theta_estimate: Optional[float]
    diverging: bool
    violations: List[Tuple[Tuple[float, float], float]]
    tail_bound: float = 0.0
    eta_used: bool = True
    singular_flag: bool = False

    def __post_init__(self):
        s = np.asarray(self.s_samples)
        if np.any(s <= 0) or np.any(np.diff(s) <= 0):
            raise ValidationError("s_samples must be strictly increasing and positive")
        if self.theta_estimate is not None and self.diverging:
            raise ValidationError("theta is only reported for traces bounded below")


@dataclass
class FrequencyTrace:
    base_point: ParabolicPoint
    s_samples: np.ndarray
    H_values: np.ndarray
    D_values: np.ndarray
    N_values: np.ndarray                  # NaN where H underflowed
    gamma_half_reference: Optional[float] = None
    violations: List[Tuple[Tuple[float, float], float]] = dc_field(default_factory=list)
    monotonicity_claimed: bool = True
    max_reference_gap: Optional[float] = None

    def __post_init__(self):
        if np.any(self.H_values < 0) or np.any(self.D_values < 0):
            raise ValidationError("H and D must be nonnegative")


@dataclass
class EnergyEval:
    value: float
    singular_fraction: float
    flagged: bool


def _kernel_box(c: np.ndarray, w: WeightSpec, s: float) -> Tuple[tuple, tuple]:
    """The box x0 +- k sqrt(s) the weights at s read, cut to B_outer(x0) by a cutoff."""
    reach = w.truncation_multiple * np.sqrt(s)
    if w.eta is not None:
        reach = min(reach, w.eta[1])
    return tuple(c - reach), tuple(c + reach)


@dataclass(frozen=True)
class _PreparedWeights:
    """|y - x0|^2 and the cutoff over the cells of the box read at s_top.

    The box of every s <= s_top lies inside it (floor, ceil and the grid clip
    are monotone), so the weights at s slice these arrays; no cell (nodes None)
    at s_top means none at any s.
    """

    field: SpaceTimeField
    x0: ParabolicPoint
    w: WeightSpec
    s_top: float
    nodes: Optional[Tuple[slice, ...]]
    y2: Optional[np.ndarray]
    eta: Optional[np.ndarray]


def _prepare_weights(field: SpaceTimeField, x0: ParabolicPoint, w: WeightSpec,
                     s_top: float) -> _PreparedWeights:
    """The s-independent factors of the weights at x0, for every s up to s_top."""
    if s_top <= 0:
        raise UsageError("s must be positive")
    c = np.asarray(x0.x)
    win = _cell_window(field.grid, _kernel_box(c, w, s_top))
    y2 = eta = None
    if win is not None:
        y2 = np.sum((np.stack(np.meshgrid(*win[1], indexing="ij"), axis=-1) - c) ** 2, axis=-1)
        if w.eta is not None:
            inner, outer = w.eta
            eta = bump_profile((np.sqrt(y2) - inner) / (outer - inner))
    return _PreparedWeights(field, x0, w, float(s_top), win and win[0], y2, eta)


def _gaussian_weights(field: SpaceTimeField, x0: ParabolicPoint, s: float,
                      w: WeightSpec, prepared: Optional[_PreparedWeights] = None):
    """The cells of the slab t0 - s on the truncated ball, and their G*eta weights.

    The kernel, its ball and the cutoff all read one |y - x0|^2 per cell, sliced
    from prepared (by default prepared for s alone).
    """
    if s <= 0:
        raise UsageError("s must be positive")
    if prepared is None:
        prepared = _prepare_weights(field, x0, w, s)
    elif prepared.field is not field or prepared.x0 != x0 or prepared.w != w:
        raise UsageError("weights prepared for another field, base point or WeightSpec")
    elif s > prepared.s_top:
        raise UsageError(f"s={float(s)!r} above the prepared s_top={prepared.s_top!r}")
    radius = w.truncation_multiple * np.sqrt(s)
    c = np.asarray(x0.x)
    t_eval = x0.t - s
    support = None if w.eta is None else (c - w.eta[1], c + w.eta[1])
    # the bare kernel's ball is cut to the grid: its kept mass is not checked
    field.require_inside(support, t_eval, f"slab t0 - s at s={float(s)}")
    box = _kernel_box(c, w, s)
    cells = slab_cells(field, t_eval, box=box)
    sl = _sub_cells(_cell_window(field.grid, box)[0], prepared.nodes)
    y2 = prepared.y2[sl]
    G = (4.0 * np.pi * s) ** (-field.n / 2.0) * np.exp(-y2 / (4.0 * s))
    G = np.where(y2 <= radius ** 2, G, 0.0)
    if prepared.eta is not None:
        G = G * prepared.eta[sl]
    return cells, G * cells.volume


def weighted_energy_detail(field: SpaceTimeField, x0: ParabolicPoint, s: float,
                           w: WeightSpec, u_floor: Optional[float] = None,
                           prepared: Optional[_PreparedWeights] = None) -> EnergyEval:
    p = field.params.p
    cells, wgt = _gaussian_weights(field, x0, s, w, prepared)
    ok = cells.u >= singular_floor(field, u_floor)
    term1 = s ** ((p - 1.0) / (p + 1.0)) * float((wgt * cells.energy_density(ok, p)).sum())
    term2 = -s ** (-2.0 / (p + 1.0)) / (2.0 * (p + 1.0)) * float((wgt * cells.u ** 2).sum())
    mass = float(wgt.sum())
    excl = float((wgt * ~ok).sum())
    frac = excl / mass if mass > 0 else 0.0
    return EnergyEval(term1 + term2, frac, frac > 0.01)


def weighted_energy(field: SpaceTimeField, x0: ParabolicPoint, s: float,
                    w: WeightSpec, u_floor: Optional[float] = None) -> float:
    """The scaled heat-kernel weighted energy E(s) at base point x0.

    If singular cells carry more than 1% of the weighted mass the value is
    still returned but an AccuracyWarning is emitted.
    """
    ev = weighted_energy_detail(field, x0, s, w, u_floor)
    if ev.flagged:
        warnings.warn(
            f"singular cells carry {ev.singular_fraction:.1%} of the weighted mass "
            f"at s={s:g}", AccuracyWarning, stacklevel=2)
    return ev.value


def averaged_energy(field: SpaceTimeField, x0: ParabolicPoint, s: float,
                    w: WeightSpec, samples: int = 9,
                    u_floor: Optional[float] = None) -> float:
    """Octave average (1/s) int_s^{2s} E; continuous where E is merely integrable."""
    prepared = _prepare_weights(field, x0, w, 2.0 * s)
    return _average_over_octave(
        lambda tau: weighted_energy_detail(field, x0, tau, w, u_floor, prepared).value,
        s, samples)


def _average_over_octave(fn, s: float, samples: int) -> float:
    if samples < 8:
        raise UsageError("octave average uses at least 8 samples")
    taus = np.linspace(s, 2.0 * s, samples)
    vals = np.array([fn(t) for t in taus])
    return float(np.trapezoid(vals, taus) / s)


def density_estimate(field: SpaceTimeField, x0: ParabolicPoint, w: WeightSpec,
                     s_min: float, s_max: float,
                     slack: Optional[SlackModel] = None,
                     fine_per_octave: int = 8,
                     u_floor: Optional[float] = None
                     ) -> Tuple[Optional[float], MonotonicityTrace]:
    """Extrapolate Ebar down a geometric ladder toward the s -> 0 density.

    Returns (theta, trace) at rupture points; (None, trace-with-diverging-flag)
    when Ebar runs off to -infinity at a negative power rate, which is the
    signature of a positivity point.  The trace carries every interval where E
    decreased by more than the slack model allows.
    """
    if not s_min < s_max:
        raise UsageError("s_min < s_max required")
    if field.times.size >= 2:
        dt_near = field.local_dt(x0.t - s_min)
        if s_min < 4.0 * dt_near:
            raise UsageError(
                f"s_min={s_min:g} under-resolves the stored steps near t0 "
                f"(local dt={dt_near:g}); need s_min >= 4*dt")
    slack = slack or SlackModel()
    p = field.params.p
    alpha = field.params.alpha

    n_oct = int(np.floor(np.log2(s_max / s_min) + 1e-12))
    if n_oct < 2:
        raise UsageError("ladder needs at least three octave points (s_max >= 4 s_min)")
    ladder = np.array(sorted(s_max / 2.0 ** k for k in range(n_oct + 1)))

    # ladder, octave averages and fine scan share s values, all at most 2 s_max,
    # and one prepared box; evaluate each s once
    prepared = _prepare_weights(field, x0, w, 2.0 * s_max)
    memo = {}

    def energy(s):
        key = float(s)
        if key not in memo:
            memo[key] = weighted_energy_detail(field, x0, s, w, u_floor, prepared)
        return memo[key]

    singular = False
    e_vals, ebar_vals = [], []
    for s in ladder:
        det = energy(s)
        singular |= det.flagged
        e_vals.append(det.value)
        ebar_vals.append(_average_over_octave(lambda tau: energy(tau).value, s, 9))
    e_vals = np.array(e_vals)
    ebar_vals = np.array(ebar_vals)

    # fine scan of E for almost-monotonicity violations
    n_fine = max(int(np.ceil(fine_per_octave * np.log2(2.0 * s_max / s_min))), 2)
    fine = np.geomspace(s_min, 2.0 * s_max, n_fine + 1)
    fine_e = np.array([energy(s).value for s in fine])
    violations = []
    for a, b, ea, eb in zip(fine[:-1], fine[1:], fine_e[:-1], fine_e[1:]):
        drop = ea - eb
        if drop > slack.allowance(b):
            violations.append(((float(a), float(b)), float(drop)))

    # divergence: deep ladder values far below the calm (large-s) median,
    # falling at a negative power rate of at least 1/(p+1)
    half = max(len(ladder) // 2, 1)
    calm_median = float(np.median(ebar_vals[half:]))
    diverging = False
    if abs(calm_median) > 0 and float(ebar_vals.min()) < -10.0 * abs(calm_median):
        low = slice(0, max(len(ladder) - half, 2))
        ys = ebar_vals[low]
        if np.all(ys < 0):
            coef = np.polyfit(np.log(ladder[low]), np.log(-ys), 1)
            if coef[0] <= -1.0 / (p + 1.0):
                diverging = True

    theta = None
    if not diverging:
        # linear fit of the last three ladder points in the s^alpha basis;
        # the leading correction of E for the collapse oracle is O(s^alpha)
        sk = ladder[:3]
        yk = ebar_vals[:3]
        basis = np.stack([np.ones(3), sk ** alpha], axis=1)
        coef, *_ = np.linalg.lstsq(basis, yk, rcond=None)
        theta = float(coef[0])

    trace = MonotonicityTrace(
        base_point=x0, s_samples=ladder, E_values=e_vals, Ebar_values=ebar_vals,
        theta_estimate=theta, diverging=diverging, violations=violations,
        tail_bound=w.tail_bound(field.n), eta_used=w.eta is not None,
        singular_flag=singular)
    return theta, trace


# -- frequency ----------------------------------------------------------------

def frequency(field: SpaceTimeField, x0: ParabolicPoint, s: float, w: WeightSpec,
              h_tol: float = 1e-12, prepared: Optional[_PreparedWeights] = None
              ) -> Tuple[float, float, Optional[float]]:
    """Height H = int u^2 G, energy D = s int |grad u|^2 G, frequency N = D/H.

    Integrals run over the truncated kernel ball at the slab t0 - s.  These
    are the whole-space functionals, so w must carry no cutoff (eta=None).
    """
    if w.eta is not None:
        raise UsageError("frequency integrates the bare kernel: pass a WeightSpec with eta=None")
    cells, wgt = _gaussian_weights(field, x0, s, w, prepared)
    H = float((wgt * cells.u ** 2).sum())
    D = s * float((wgt * cells.grad2()).sum())
    sup = field.sup_norm
    N = D / H if H > h_tol * max(sup * sup, 1e-300) else None
    return H, D, N


def almgren_scan(field: SpaceTimeField, x0: ParabolicPoint, w: WeightSpec,
                 s_grid: Sequence[float], caloric: bool = True,
                 gamma_half_reference: Optional[float] = None,
                 violation_tol: float = 1e-6) -> FrequencyTrace:
    """Frequency trace over an increasing s grid with monotonicity scanning.

    w must carry no cutoff, as in `frequency`.  Monotonicity of N is only a
    theorem for (two-valued) caloric fields; pass caloric=False to record the trace without asserting the claim (the trace
    keeps monotonicity_claimed=False).
    """
    s_grid = np.asarray(list(s_grid), dtype=float)
    if np.any(np.diff(s_grid) <= 0) or np.any(s_grid <= 0):
        raise UsageError("s_grid must be positive and increasing")
    prepared = _prepare_weights(field, x0, w, s_grid[-1]) if s_grid.size else None
    H, D, N = [], [], []
    for s in s_grid:
        hv, dv, nv = frequency(field, x0, s, w, prepared=prepared)
        H.append(hv)
        D.append(dv)
        N.append(np.nan if nv is None else nv)
    H, D, N = np.array(H), np.array(D), np.array(N)
    violations = []
    if caloric:
        for i in range(len(s_grid) - 1):
            if np.isnan(N[i]) or np.isnan(N[i + 1]):
                continue
            drop = N[i] - N[i + 1]
            if drop > violation_tol:
                violations.append(((float(s_grid[i]), float(s_grid[i + 1])), float(drop)))
    gap = None
    if gamma_half_reference is not None:
        valid = ~np.isnan(N)
        gap = float(np.max(np.abs(N[valid] - gamma_half_reference))) if valid.any() else None
    return FrequencyTrace(
        base_point=x0, s_samples=s_grid, H_values=H, D_values=D, N_values=N,
        gamma_half_reference=gamma_half_reference, violations=violations,
        monotonicity_claimed=caloric, max_reference_gap=gap)


def log_h_identity_error(trace: FrequencyTrace) -> float:
    """Worst relative gap in d/ds log H = 2N/s via centered differences."""
    s, H, N = trace.s_samples, trace.H_values, trace.N_values
    if len(s) < 3:
        raise UsageError("need at least three samples for centered differences")
    worst = 0.0
    for i in range(1, len(s) - 1):
        if np.isnan(N[i]) or H[i - 1] <= 0 or H[i + 1] <= 0:
            continue
        lhs = (np.log(H[i + 1]) - np.log(H[i - 1])) / (s[i + 1] - s[i - 1])
        rhs = 2.0 * N[i] / s[i]
        if rhs != 0:
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst
