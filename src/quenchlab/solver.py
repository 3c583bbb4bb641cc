"""Semi-implicit marching for u_t - Lap u = -f_eps(u) until first touchdown.

Diffusion is treated implicitly (unconditionally stable; the box Laplacian is
inverted by DST-I or DFT, one transform pair per step), the nonlinearity by a
midpoint predictor, so the scheme tracks the collapse with steps proportional
to the remaining lifespan (min u)^(p+1) instead of the explicit dt ~ h^2
restriction.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.fft as sfft

from .errors import (BudgetError, NumericalError, StiffnessError, UsageError,
                     ValidationError)
from .field import DIRICHLET_TRACED, PERIODIC, SpaceTimeField
from .geometry import ParabolicPoint
from .grid import GridSpec
from .params import ModelParams

CONSTANT = "constant"
ANALYTIC_TRACE = "analytic_trace"
PERIODIC_BC = "periodic"

_CHUNK = 32   # stored slabs per chunk of a solve's history


@dataclass(frozen=True)
class BoundaryData:
    """Positive Dirichlet trace phi on the parabolic boundary, or periodic."""

    kind: str
    value: float = 1.0
    value_fn: Optional[Callable] = None   # (xs (m,n), t) -> (m,) positive values

    def __post_init__(self):
        if self.kind not in (CONSTANT, ANALYTIC_TRACE, PERIODIC_BC):
            raise ValidationError(f"unknown boundary kind {self.kind!r}")
        if self.kind == CONSTANT and not self.value > 0:
            raise ValidationError("constant boundary value must be positive")
        if self.kind == ANALYTIC_TRACE and self.value_fn is None:
            raise ValidationError("analytic_trace requires value_fn")

    def trace(self, xs: np.ndarray, t: float) -> np.ndarray:
        if self.kind == CONSTANT:
            return np.full(xs.shape[0], float(self.value))
        vals = np.asarray(self.value_fn(xs, t), dtype=float)
        if np.any(vals <= 0):
            raise ValidationError(f"boundary trace must stay positive (t={t})")
        return vals


@dataclass(frozen=True)
class SolverConfig:
    epsilon_reg: float = 1e-4
    dt_initial: float = 1e-3
    dt_min: float = 1e-14
    safety: float = 0.2
    quench_threshold: float = 1e-3
    max_steps: int = 500_000
    store_stride: int = 1

    def __post_init__(self):
        if self.epsilon_reg <= 0 or self.dt_initial <= 0 or self.dt_min <= 0:
            raise ValidationError("epsilon_reg, dt_initial, dt_min must be positive")
        if not 0 < self.safety < 1:
            raise ValidationError("safety must lie in (0, 1)")
        if self.quench_threshold < 2 * self.epsilon_reg:
            raise ValidationError(
                "quench_threshold >= 2*epsilon_reg required: the regularized and true "
                "equations agree above epsilon, stop before the trusted floor")
        if self.max_steps < 1 or self.store_stride < 1:
            raise ValidationError("max_steps and store_stride must be >= 1")


@dataclass
class QuenchReport:
    quench_time: Optional[float]
    quench_points: List[ParabolicPoint]
    min_history: List[Tuple[float, float]]
    steps_taken: int


def regularized_nonlinearity(params: ModelParams, eps: float, u) -> np.ndarray:
    """f_eps(u): u^-p above eps, linear eps^(-p-1) u below; Lipschitz, f(0)=0."""
    if eps <= 0:
        raise UsageError("eps must be positive")
    u = np.asarray(u, dtype=float)
    above = u > eps
    out = np.where(above,
                   np.power(np.where(above, u, 1.0), -params.p),
                   eps ** (-params.p - 1.0) * u)
    return out if out.ndim else float(out)


# -- discrete operators -------------------------------------------------------

class _Workspace:
    """Grid-bound spectral inverse of I - dt Lap_h on the box.

    On the uniform isotropic grid that GridSpec enforces, the (2n+1)-point
    Laplacian is diagonal in the sine basis on interior nodes (Dirichlet,
    DST-I) or in the Fourier basis (periodic, DFT), so every implicit solve
    is one transform pair and a division, whatever dt is (the fast Poisson
    solver of Buzbee, Golub and Nielson, 1970).
    """

    def __init__(self, grid: GridSpec, periodic: bool):
        self.grid = grid
        self.periodic = periodic
        n = grid.n
        if periodic:
            self.shape = tuple(grid.cells)                  # seam node dropped
            # rfftn keeps the nonnegative half of the last axis
            modes = [np.arange(m) for m in self.shape[:-1]] + [np.arange(self.shape[-1] // 2 + 1)]
            angles = [np.pi * j / m for j, m in zip(modes, self.shape)]
        else:
            self.shape = grid.node_shape
            angles = [np.pi * np.arange(1, m) / (2 * m) for m in grid.cells]
        # eigenvalues of -Lap_h on the transformed grid
        self.symbol = 4.0 / grid.spacing ** 2 * sum(np.ix_(*[np.sin(a) ** 2 for a in angles]))
        self.inner = tuple(slice(None) if periodic else slice(1, -1) for _ in range(n))
        if not periodic:
            self.boundary = np.ones(self.shape, dtype=bool)
            self.boundary[self.inner] = False
            self.boundary_xs = grid.node_points()[self.boundary.ravel()]

    def laplacian(self, work: np.ndarray) -> np.ndarray:
        """Lap_h of work on the interior nodes (all nodes when periodic)."""
        n = self.grid.n
        out = -2.0 * n * work[self.inner]
        for k in range(n):
            if self.periodic:
                out += np.roll(work, 1, axis=k) + np.roll(work, -1, axis=k)
            else:
                for lo, hi in ((0, -2), (2, None)):
                    sl = list(self.inner)
                    sl[k] = slice(lo, hi)
                    out += work[tuple(sl)]
        return out / self.grid.spacing ** 2

    def solve(self, rhs: np.ndarray, dt: float, trace: Optional[np.ndarray]) -> np.ndarray:
        """u with (I - dt Lap_h) u = rhs off the boundary and u = trace on it."""
        if self.periodic:
            coef = sfft.rfftn(rhs) / (1.0 + dt * self.symbol)
            return sfft.irfftn(coef, s=self.shape)
        out = rhs.copy()
        out[self.boundary] = trace
        if self.symbol.size:
            lift = out.copy()
            lift[self.inner] = 0.0
            coef = sfft.dstn(out[self.inner] + dt * self.laplacian(lift), type=1)
            out[self.inner] = sfft.idstn(coef / (1.0 + dt * self.symbol), type=1)
        return out

    def to_work(self, full: np.ndarray) -> np.ndarray:
        if not self.periodic:
            return full.reshape(self.shape).copy()
        sl = tuple(slice(0, -1) for _ in range(self.grid.n))
        return full[sl].copy()

    def to_full(self, work: np.ndarray) -> np.ndarray:
        if not self.periodic:
            return work.reshape(self.shape)
        full = np.empty(self.grid.node_shape)
        sl = tuple(slice(0, -1) for _ in range(self.grid.n))
        full[sl] = work
        # copy the seam: wrap each axis in turn
        for k in range(self.grid.n):
            src = [slice(None)] * self.grid.n
            dst = [slice(None)] * self.grid.n
            src[k] = 0
            dst[k] = -1
            full[tuple(dst)] = full[tuple(src)]
        return full


def step(values: np.ndarray, t: float, dt: float, params: ModelParams,
         workspace: _Workspace, boundary: BoundaryData, config: SolverConfig,
         reaction: bool = True) -> np.ndarray:
    """One semi-implicit step from t to t + dt; returns the new node values.

    Solves (I - dt Lap_h) u_new = u_old - dt f_eps(u_half) with the midpoint
    predictor u_half = u_old + (dt/2)(Lap_h u_old - f_eps(u_old)); Dirichlet
    boundary nodes take the trace at the new time, which the spectral solve
    lifts into the interior right-hand side.  The full-rhs predictor keeps
    the update's fixed point exactly on the discrete steady state
    Lap_h u = f_eps(u), treats the space-constant mode at midpoint accuracy,
    and stays stable because the adaptive dt law bounds dt |f_eps'| <=
    safety * p while the implicit solve damps what the explicit Laplacian in
    the predictor amplifies.  reaction=False marches the pure heat equation.
    """
    if dt < config.dt_min:
        raise UsageError(f"dt={dt} below dt_min={config.dt_min}")
    work = workspace.to_work(values)
    trace = None if workspace.periodic else boundary.trace(workspace.boundary_xs, t + dt)
    rhs = work
    if reaction:
        f_old = regularized_nonlinearity(params, config.epsilon_reg, work)
        half = work.copy()
        half[workspace.inner] += 0.5 * dt * (workspace.laplacian(work) - f_old[workspace.inner])
        rhs = work - dt * regularized_nonlinearity(params, config.epsilon_reg, half)
    new = workspace.solve(rhs, dt, trace)
    if not np.all(np.isfinite(new)):
        raise NumericalError(f"non-finite values after step to t={t + dt}")
    return workspace.to_full(new)


def _extrapolate_quench_time(history: List[Tuple[float, float]], time_end: float) -> float:
    """Linear extrapolation of min u to zero from the last two accepted steps.

    Removes the O(threshold^(p+1)) bias of reporting the crossing time itself.
    """
    (t_prev, m_prev), (t_last, m_last) = history[-2], history[-1]
    if m_prev <= m_last:
        return min(t_last, time_end)
    t_q = t_last + m_last * (t_last - t_prev) / (m_prev - m_last)
    return min(t_q, time_end)


def solve_until_quench(initial: SpaceTimeField, boundary: BoundaryData,
                       config: SolverConfig) -> Tuple[SpaceTimeField, QuenchReport]:
    """March from a single-slab initial field until min u hits the threshold.

    dt adapts as safety * min(dt_initial, (min u)^(p+1)): the exact collapse
    lifespan is u^(p+1)/(p+1), so this resolves the blow-down with a fixed
    number of steps per e-fold.  Returns all accepted slabs (subject to the
    storage stride) and a report with the extrapolated quench time.

    The history is held once: each stored slab is written into a chunk of
    _CHUNK slabs, and the field (or `BudgetError.partial`) is filled from the
    chunks, each freed as soon as it is copied.
    """
    if initial.times.size != 1:
        raise UsageError("initial field must hold exactly one slab")
    params = initial.params
    grid = initial.grid
    periodic = boundary.kind == PERIODIC_BC
    ws = _Workspace(grid, periodic)
    # stored as the solve sees it: a periodic seam node takes node 0's value
    values = ws.to_full(ws.to_work(initial.values[0]))
    if float(values.min()) < config.quench_threshold:
        raise UsageError("initial data must be >= quench_threshold everywhere")
    t = float(initial.times[0])
    time_end = grid.time_end
    pexp = params.p + 1.0

    stored_times = []
    chunks = []

    def store(time, slab):
        k = len(stored_times) % _CHUNK
        if k == 0:
            chunks.append(np.empty((_CHUNK,) + slab.shape))
        chunks[-1][k] = slab
        stored_times.append(time)

    def make_field():
        out = np.empty((len(stored_times),) + grid.node_shape)
        for start in range(0, out.shape[0], _CHUNK):
            out[start:start + _CHUNK] = chunks.pop(0)[:out.shape[0] - start]
        kind = PERIODIC if periodic else DIRICHLET_TRACED
        return SpaceTimeField(params, grid, np.asarray(stored_times), out, boundary_kind=kind)

    store(t, values)
    history = [(t, float(values.min()))]
    steps = 0
    quenched = False

    while True:
        # stop when the remaining horizon is below one admissible step
        if time_end - t <= max(config.dt_min, 1e-14 * max(abs(time_end), 1.0)):
            break
        m = float(values.min())
        dt_law = config.safety * min(config.dt_initial, m ** pexp)
        if dt_law < config.dt_min:
            raise StiffnessError(f"adaptive dt={dt_law} underflowed dt_min at t={t}")
        dt = min(dt_law, time_end - t)
        if steps >= config.max_steps:
            raise BudgetError(f"max_steps={config.max_steps} exhausted at t={t}",
                              partial=make_field())
        values = step(values, t, dt, params, ws, boundary, config)
        t = t + dt
        steps += 1
        m_new = float(values.min())
        if m_new <= 0.0:
            raise NumericalError(f"positivity lost at t={t} (min={m_new})")
        history.append((t, m_new))
        if steps % config.store_stride == 0:
            store(t, values)
        if m_new <= config.quench_threshold:
            quenched = True
            break

    if stored_times[-1] != t:
        store(t, values)

    quench_time = _extrapolate_quench_time(history, time_end) if quenched else None
    m = float(values.min())
    tol = 1e-12 * (1.0 + abs(m))
    nodes = grid.node_points()[values.ravel() <= m + tol] if quenched else []
    report = QuenchReport(quench_time=quench_time,
                          quench_points=[ParabolicPoint(x, t) for x in nodes],
                          min_history=history, steps_taken=steps)
    return make_field(), report


def comparison_guard(field: SpaceTimeField, boundary: BoundaryData,
                     config: Optional[SolverConfig] = None) -> float:
    """Max over stored nodes of (u - Phi), Phi the caloric run with the same data.

    The forcing -u^-p is nonpositive, so a correct run sits below its heat
    equation majorant up to discretization tolerance; the guard value should
    never be meaningfully positive.
    """
    if field.boundary_kind != DIRICHLET_TRACED:
        raise UsageError("comparison guard requires a Dirichlet-traced solver field")
    if boundary.kind == PERIODIC_BC:
        raise UsageError("comparison guard needs Dirichlet boundary data")
    if field.times.size < 2:
        raise UsageError("comparison guard needs at least two stored slabs")
    config = config or SolverConfig()
    ws = _Workspace(field.grid, periodic=False)
    interior = tuple(slice(1, -1) for _ in range(field.n))
    phi = field.values[0].copy()
    # boundary nodes are pinned to identical data in both runs and the first
    # slabs coincide by construction; the comparison carries information on
    # interior nodes at t > t_start only
    worst = -np.inf
    for j in range(field.times.size - 1):
        dt = float(field.times[j + 1] - field.times[j])
        phi = step(phi, float(field.times[j]), dt, field.params, ws, boundary, config,
                   reaction=False)
        worst = max(worst, float((field.values[j + 1] - phi)[interior].max()))
    return worst
