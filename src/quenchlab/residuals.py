"""Weak-form residuals evaluated on discrete fields.

Each operation turns a defining integral identity (distributional equation,
stationarity, localized energy inequality, the five conditions of a
stationary two-valued caloric function) into a quadrature residual with a
scale for relative assessment.  Every space-time integral is one call of
`quadrature.integrate`.  Conditions (ii), (iv) and (v) of the two-valued check
reuse the single-identity functions without their u-power terms:
-distributional_residual, 2 x stationary_residual and
2 x energy_inequality_defect.  Nothing here proves a field *is* a weak
solution; the reports only falsify up to tolerance.
"""

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .bumps import CutoffSpec, SpaceTimeBump, TestVectorField, TimeWindow
from .errors import DomainError, SingularIntegrandError, UsageError
from .field import SpaceTimeField
from .quadrature import integrate, slab_cells

_EXCLUDED_FRACTION_LIMIT = 0.25


@dataclass
class ResidualReport:
    value: float
    scale: float
    quadrature_cells: int
    excluded_fraction: float = 0.0
    detail: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.scale < 0:
            raise UsageError("report scale must be nonnegative")

    @property
    def relative(self) -> float:
        return abs(self.value) / self.scale if self.scale > 0 else abs(self.value)


def default_u_floor(field: SpaceTimeField) -> float:
    """Singular-cell floor h^alpha: cells below it leave the u-power integrals."""
    return field.h ** field.params.alpha


def _require_inside(field: SpaceTimeField, bump: SpaceTimeBump):
    if not bump.inside(field.grid, field.times[0], field.times[-1]):
        raise DomainError("test function support must sit inside the field domain")


def distributional_residual(field: SpaceTimeField, psi: SpaceTimeBump,
                            u_floor: Optional[float] = None,
                            potential: bool = True) -> ResidualReport:
    """Quadrature of  u (-psi_t - Lap psi) + u^-p psi  over the support of psi.

    Near zero for weak solutions of u_t - Lap u = -u^-p.  Cells where u drops
    below the floor are excluded from the u^-p term and their share of the
    support measure is reported.
    """
    _require_inside(field, psi)
    if float(field.values.min()) < 0:
        raise UsageError("distributional residual requires u >= 0")
    floor = default_u_floor(field) if u_floor is None else u_floor
    rep = _distributional(field, psi, floor if potential else None)
    if rep.excluded_fraction > _EXCLUDED_FRACTION_LIMIT:
        raise SingularIntegrandError(
            f"u vanishes on {rep.excluded_fraction:.0%} of the test support; "
            "u^-p quadrature is meaningless")
    return rep


def _distributional(field: SpaceTimeField, psi: SpaceTimeBump,
                    floor: Optional[float]) -> ResidualReport:
    """distributional_residual without its checks; no u^-p term without a floor."""
    p = field.params.p

    def integrand(blk, pts, ok):
        t = blk.t_mid
        terms = [blk.u * (-psi.dt(pts, t) - psi.laplacian(pts, t, field.n))]
        if ok is None:
            return terms, None
        psiv = psi.value(pts, t)
        terms.append(np.where(ok, np.where(ok, blk.u, 1.0) ** (-p), 0.0) * psiv)
        return terms, psiv != 0.0

    t_lo, t_hi = psi.time_support()
    res = integrate(field, integrand, t_lo, t_hi, box=psi.support_box(), floor=floor)
    return ResidualReport(res.value, res.scale, res.cells, res.excluded_fraction)


def _dy_quadratic(jac: np.ndarray, grad: List[np.ndarray]) -> np.ndarray:
    """DY(grad u, grad u) = sum_ij (dY_i/dx_j) u_i u_j at cell centers."""
    n = len(grad)
    out = np.zeros_like(grad[0])
    for i in range(n):
        for j in range(n):
            out += jac[..., i, j] * grad[i] * grad[j]
    return out


def _energy_density(u, grad, ok, p):
    """|grad u|^2/2 - u^(1-p)/(p-1); the u-power term only when ok is given."""
    density = 0.5 * sum(gk ** 2 for gk in grad)
    if ok is None:
        return density
    return density - np.where(ok, np.where(ok, u, 1.0) ** (1.0 - p), 0.0) / (p - 1.0)


def stationary_residual(field: SpaceTimeField, Y: TestVectorField,
                        u_floor: Optional[float] = None,
                        potential: bool = True) -> ResidualReport:
    """Residual of the inner-variation identity

        int (|grad u|^2/2 - u^(1-p)/(p-1)) div Y - DY(grad u, grad u)
            - u_t (grad u . Y)  =  0.

    O(h^2) relative to scale for smooth positive solutions; a genuinely
    nonstationary field keeps a residual bounded away from zero under
    refinement.  The support of Y must sit inside the field domain: clipping
    it would drop the boundary terms of the identity.
    """
    box = Y.support_box()
    t_lo, t_hi = Y.time_support()
    if box is None or t_lo is None:
        raise UsageError("vector field must declare its support")
    lo, hi = box
    g = field.grid
    if (np.any(np.asarray(lo) < np.asarray(g.origin)) or
            np.any(np.asarray(hi) > np.asarray(g.upper())) or
            t_lo < field.times[0] or t_hi > field.times[-1]):
        raise DomainError("vector field support must sit inside the field domain")
    floor = default_u_floor(field) if u_floor is None else u_floor
    p = field.params.p

    def integrand(blk, pts, ok):
        t = blk.t_mid
        yv = Y.value(pts, t)
        return [_energy_density(blk.u, blk.grad, ok, p) * Y.divergence(pts, t),
                -_dy_quadratic(Y.jacobian(pts, t), blk.grad),
                -(blk.dtu * sum(blk.grad[k] * yv[..., k] for k in range(field.n)))], None

    res = integrate(field, integrand, t_lo, t_hi, box=box, floor=floor if potential else None)
    if res.excluded_fraction > _EXCLUDED_FRACTION_LIMIT:
        raise SingularIntegrandError("u vanishes on too much of the vector field support")
    return ResidualReport(res.value, res.scale, res.cells, res.excluded_fraction)


def energy_inequality_defect(field: SpaceTimeField, eta: SpaceTimeBump,
                             t1: float, t2: float,
                             u_floor: Optional[float] = None,
                             potential: bool = True) -> ResidualReport:
    """LHS - RHS of the time-integrated localized energy inequality on [t1, t2]:

        int (|grad u|^2/2 - u^(1-p)/(p-1)) eta^2 |_{t1}^{t2}
          <= int_{t1}^{t2} [ -|u_t|^2 eta^2 - 2 u_t (grad u . grad eta) eta
                             + 2 (|grad u|^2/2 - u^(1-p)/(p-1)) eta eta_t ].

    Positive defect beyond tolerance falsifies the inequality; smooth positive
    solutions turn it into an identity and the defect is pure quadrature error.
    Cells below the floor leave the u-power terms; their share of eta's
    support is reported.
    """
    if not (field.times[0] - 1e-12 <= t1 < t2 <= field.times[-1] + 1e-12):
        raise DomainError("need t1 < t2 within the stored time range")
    floor = default_u_floor(field) if u_floor is None else u_floor
    p = field.params.p
    box = eta.support_box()

    def side(t):
        cells = slab_cells(field, t, box=box)
        pts = cells.points()
        ok = cells.u >= floor if potential else None
        density = _energy_density(cells.u, cells.grad, ok, p)
        return cells.volume * float((density * eta.value(pts, t) ** 2).sum())

    def integrand(blk, pts, ok):
        t = blk.t_mid
        ev = eta.value(pts, t)
        eg = eta.grad(pts, t)
        gdot = sum(blk.grad[k] * eg[..., k] for k in range(field.n))
        # the term order of two-valued condition (v), which is 2 x this bit for bit
        return [-(blk.dtu ** 2) * ev ** 2,
                2.0 * _energy_density(blk.u, blk.grad, ok, p) * ev * eta.dt(pts, t),
                -2.0 * blk.dtu * ev * gdot], ev != 0.0

    s1, s2 = side(t1), side(t2)
    res = integrate(field, integrand, t1, t2, box=box, floor=floor if potential else None)
    return ResidualReport(s2 - s1 - res.value, abs(s1) + abs(s2) + res.scale, res.cells,
                          res.excluded_fraction)


# -- stationary two-valued caloric checker ------------------------------------

def default_bump_dictionary(field: SpaceTimeField, centers_per_axis: int = 3,
                            n_radii: int = 3) -> List[SpaceTimeBump]:
    """Nonnegative test bumps on a coarse lattice with a few radii.

    A complete test of a distributional inequality is impossible; this
    declared finite dictionary is what condition (ii) is checked against.
    """
    g = field.grid
    t0, t1 = float(field.times[0]), float(field.times[-1])
    span = t1 - t0
    tw = TimeWindow(center=0.5 * (t0 + t1), inner=0.2 * span, outer=0.4 * span)
    bumps = []
    ext = min(g.extent)
    radii = [ext / 8.0, ext / 6.0, ext / 4.0][:n_radii]
    fracs = np.linspace(0.25, 0.75, centers_per_axis)
    axes = [g.origin[k] + fracs * g.extent[k] for k in range(g.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=-1)
    lo = np.asarray(g.origin)
    hi = np.asarray(g.upper())
    for c in centers:
        for r in radii:
            if np.all(c - r >= lo) and np.all(c + r <= hi):
                bumps.append(SpaceTimeBump(
                    space=CutoffSpec(tuple(c), 0.5 * r, r), time=tw))
    if not bumps:
        raise UsageError("domain too small for the default bump dictionary")
    return bumps


def _worst(reports: List[ResidualReport], factor: float = 1.0) -> ResidualReport:
    """The report with the largest relative residual, value and scale times factor."""
    rep = max(reports, key=lambda r: r.relative)
    return ResidualReport(factor * rep.value, factor * rep.scale, rep.quadrature_cells)


def two_valued_caloric_check(field: SpaceTimeField,
                             etas: Sequence[SpaceTimeBump],
                             Ys: Sequence[TestVectorField],
                             nonneg_bumps: Optional[Sequence[SpaceTimeBump]] = None
                             ) -> Dict[str, ResidualReport]:
    """Check the five defining conditions of a stationary two-valued caloric field.

    (i)   finiteness of int |grad u|^2 + |u_t|^2,
    (ii)  subcaloricity  int u (psi_t + Lap psi) >= 0  against nonneg bumps,
    (iii) the contact identity  int u_t u eta^2 + |grad u|^2 eta^2
          + 2 eta u (grad u . grad eta) = 0,
    (iv)  the stationarity identity  int |grad u|^2 div Y
          - 2 DY(grad u, grad u) - 2 u_t (grad u . Y) = 0,
    (v)   the energy inequality  d/dt int |grad u|^2 eta^2
          <= -2 int |u_t|^2 eta^2 + 2 int |grad u|^2 eta eta_t
          - 4 int u_t eta (grad u . grad eta).

    (ii) is -distributional_residual, (iv) 2 x stationary_residual and (v)
    2 x energy_inequality_defect over eta's time support, all without u-power
    terms; every eta and Y must sit inside the field domain.  Returns one
    report per condition; (ii) reports the worst case over the bump
    dictionary, (iii)-(v) over the supplied test functions.  No p-power terms
    appear in any of these, so the reports scale exactly (by c for (ii), by
    c^2 for the quadratic ones) when the field is scaled by c.
    """
    if float(field.values.min()) < 0:
        raise UsageError("two-valued caloric checks require u >= 0 on the grid")
    bumps = list(nonneg_bumps) if nonneg_bumps is not None else default_bump_dictionary(field)
    if not (etas and Ys and bumps):
        raise UsageError("every condition needs at least one test function")
    reports: Dict[str, ResidualReport] = {}

    # (i) finiteness over the full stored domain
    full = integrate(field, lambda blk, pts, ok: (
        [sum(gk ** 2 for gk in blk.grad), blk.dtu ** 2], None))
    reports["i"] = ResidualReport(full.value, max(full.measure, 1e-300), full.cells,
                                  detail={"finite": bool(np.isfinite(full.value))})

    # (ii) distributional subcaloricity against a declared dictionary
    worst = max((_distributional(field, psi, None) for psi in bumps), key=lambda r: r.value)
    reports["ii"] = ResidualReport(-worst.value, worst.scale, worst.quadrature_cells,
                                   detail={"dictionary_size": len(bumps),
                                           "one_sided": True})

    # (iii) contact identity, worst over etas
    def contact(eta):
        _require_inside(field, eta)

        def integrand(blk, pts, ok):
            t = blk.t_mid
            ev = eta.value(pts, t)
            eg = eta.grad(pts, t)
            gdot = sum(blk.grad[k] * eg[..., k] for k in range(field.n))
            return [blk.dtu * blk.u * ev ** 2,
                    sum(gk ** 2 for gk in blk.grad) * ev ** 2,
                    2.0 * ev * blk.u * gdot], None

        t_lo, t_hi = eta.time_support()
        res = integrate(field, integrand, t_lo, t_hi, box=eta.support_box())
        return ResidualReport(res.value, res.scale, res.cells)

    reports["iii"] = _worst([contact(eta) for eta in etas])

    # (iv) stationarity identity, worst over Ys
    reports["iv"] = _worst([stationary_residual(field, Y, potential=False) for Y in Ys], 2.0)

    # (v) localized energy inequality (gradient-only form), worst over etas
    reports["v"] = _worst([energy_inequality_defect(field, eta, *eta.time_support(),
                                                    potential=False) for eta in etas], 2.0)
    return reports
