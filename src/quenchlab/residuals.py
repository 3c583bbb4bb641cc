"""Weak-form residuals evaluated on discrete fields.

Each operation turns a defining integral identity (distributional equation,
stationarity, localized energy inequality, the five conditions of a
stationary two-valued caloric function) into a quadrature residual with a
scale for relative assessment.  Each identity is one `quadrature.Integrand`,
whose terms take |grad u|^2, grad u . v and the energy density from
`quadrature.Cells`: its prepare step evaluates the test function's spatial
factor (eta, grad eta, Lap eta) once per time window, and its per-block terms
multiply that by the time factor w(t), which `quadrature.integrate` samples
once per block for each distinct window the integrands name.  The
single-identity functions are one-integrand calls of `quadrature.integrate`;
the two-valued check integrates all five conditions in one call, one sweep
over the stored intervals whatever the time supports of its test functions.
(iv) and (v) reuse the single-identity integrands without their u-power
terms: 2 x stationary_residual and 2 x energy_inequality_defect.  A vector
field is held as Y = psi p, so DY(grad u, grad u) and grad u . Y come from one
p . grad u per block, with no n x n Jacobian.  (ii),
-distributional_residual without u^-p, is linear in u, so its bump
dictionary enters the sweep contracted over time: two moments of u per time
window, against which each bump's eta and Lap eta are summed once.  Every
test function's support (and the energy inequality's [t1, t2]) must lie in
the stored data (`SpaceTimeField.require_inside`): a clipped support drops
boundary terms.  Large windows are summed band by band (`quadrature._bands`):
the slab sides of the energy inequality and each bump's contraction against
(ii)'s moments as `integrate` sums its blocks.
Nothing here proves a field *is* a weak solution; the reports only falsify
up to tolerance.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bumps import CutoffSpec, SpaceTimeBump, TestVectorField, TimeWindow
from .errors import DomainError, SingularIntegrandError, UsageError
from .field import SpaceTimeField
from .quadrature import (Integral, Integrand, _bands, _cell_window, _points, _sub_cells,
                         _union_box, floored_power, integrate, singular_floor, slab_cells)

_EXCLUDED_FRACTION_LIMIT = 0.25


@dataclass
class ResidualReport:
    value: float
    scale: float
    quadrature_cells: int
    excluded_fraction: float = 0.0

    def __post_init__(self):
        if self.scale < 0:
            raise UsageError("report scale must be nonnegative")

    @property
    def relative(self) -> float:
        return abs(self.value) / self.scale if self.scale > 0 else abs(self.value)


def _report(res: Integral) -> ResidualReport:
    return ResidualReport(res.value, res.scale, res.cells, res.excluded_fraction)


def _eta_and_grad(bump: SpaceTimeBump):
    """prepare step: eta and grad eta of the bump at the cell centers."""
    return lambda pts: (bump.space.value(pts), bump.space.grad(pts))


def distributional_residual(field: SpaceTimeField, psi: SpaceTimeBump,
                            u_floor: Optional[float] = None,
                            potential: bool = True) -> ResidualReport:
    """Quadrature of  u (-psi_t - Lap psi) + u^-p psi  over the support of psi.

    Near zero for weak solutions of u_t - Lap u = -u^-p.  Cells where u drops
    below the floor are excluded from the u^-p term and their share of the
    support measure is reported.
    """
    field.require_inside(psi.support_box(), psi.time_support(), "test function support")
    if field.min_value < 0:
        raise UsageError("distributional residual requires u >= 0")
    floor = singular_floor(field, u_floor) if potential else None
    res, = integrate(field, [_distributional(field, psi)], floor=floor)
    rep = _report(res)
    if rep.excluded_fraction > _EXCLUDED_FRACTION_LIMIT:
        raise SingularIntegrandError(
            f"u vanishes on {rep.excluded_fraction:.0%} of the test support; "
            "u^-p quadrature is meaningless")
    return rep


def _distributional(field: SpaceTimeField, psi: SpaceTimeBump) -> Integrand:
    """distributional_residual's integrand; no u^-p term without a floor."""
    n, p = field.n, field.params.p

    def terms(blk, space, ok, wt):
        eta, lap = space
        w, w1 = wt
        out = [blk.u * (-(eta * w1) - lap * w)]
        if ok is None:
            return out, None
        psiv = eta * w
        out.append(floored_power(blk.u, ok, -p) * psiv)
        return out, psiv != 0.0

    return Integrand(terms, psi.support_box(),
                     lambda pts: (psi.space.value(pts), psi.space.laplacian(pts, n)), psi.time,
                     psi.time_support())


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
    field.require_inside(Y.bump.support_box(), Y.bump.time_support(), "test function support")
    floor = singular_floor(field, u_floor) if potential else None
    res, = integrate(field, [_stationary(field, Y)], floor=floor)
    if res.excluded_fraction > _EXCLUDED_FRACTION_LIMIT:
        raise SingularIntegrandError("u vanishes on too much of the vector field support")
    return _report(res)


def _stationary(field: SpaceTimeField, Y: TestVectorField) -> Integrand:
    """stationary_residual's integrand; no u-power term without a floor."""
    p = field.params.p

    def terms(blk, space, ok, wt):
        psi, grad_psi, vec, div, c = space
        w, _ = wt
        pg = blk.grad_dot(vec)   # p . grad u, which DY(grad u, grad u) and grad u . Y share
        dy = pg * blk.grad_dot(grad_psi)
        if c:
            dy = dy + c * psi * blk.grad2()
        return [blk.energy_density(ok, p) * (div * w),
                -w * dy,
                -w * (blk.dtu * (psi * pg))], None

    return Integrand(terms, Y.bump.support_box(), Y.at, Y.bump.time, Y.bump.time_support())


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
    if not t1 < t2:
        raise DomainError("need t1 < t2")
    field.require_inside(eta.support_box(), (t1, t2), "eta's box over [t1, t2]")
    floor = singular_floor(field, u_floor) if potential else None
    res, = integrate(field, [_energy(field, eta, (t1, t2))], floor=floor)
    return _energy_report(field, eta, t1, t2, floor, res)


def _energy(field: SpaceTimeField, eta: SpaceTimeBump, span: Tuple[float, float]) -> Integrand:
    """The time integral of energy_inequality_defect over span; no u-power term without a floor."""
    p = field.params.p

    def terms(blk, space, ok, wt):
        eta_x, grad_eta = space
        w, w1 = wt
        ev = eta_x * w
        # the term order of two-valued condition (v), which is 2 x this bit for bit
        return [-(blk.dtu ** 2) * ev ** 2,
                2.0 * blk.energy_density(ok, p) * ev * (eta_x * w1),
                -2.0 * blk.dtu * ev * blk.grad_dot(grad_eta * w)], ev != 0.0

    return Integrand(terms, eta.support_box(), _eta_and_grad(eta), eta.time, span)


def _energy_report(field: SpaceTimeField, eta: SpaceTimeBump, t1: float, t2: float,
                   floor: Optional[float], res: Integral) -> ResidualReport:
    """The defect from the slab sides at t1, t2 and the time integral res."""
    p = field.params.p
    box = eta.support_box()

    def side(t):
        total = 0.0
        for rows in _bands(field.grid, box):
            cells = slab_cells(field, t, box=box, rows=rows)
            density = cells.energy_density(None if floor is None else cells.u >= floor, p)
            ev = eta.space.value(cells.points()) * eta.time.value(t)
            total += cells.volume * float((density * ev ** 2).sum())
        return total

    s1, s2 = side(t1), side(t2)
    return ResidualReport(s2 - s1 - res.value, abs(s1) + abs(s2) + res.scale, res.cells,
                          res.excluded_fraction)


# -- stationary two-valued caloric checker ------------------------------------

def default_time_window(field: SpaceTimeField, inner: Optional[float] = None,
                        outer: Optional[float] = None) -> TimeWindow:
    """Centred mid-history; inner and outer default to 0.2 and 0.4 of the span."""
    t0, t1 = float(field.times[0]), float(field.times[-1])
    span = t1 - t0
    return TimeWindow(center=0.5 * (t0 + t1), inner=0.2 * span if inner is None else inner,
                      outer=0.4 * span if outer is None else outer)


def default_bump_dictionary(field: SpaceTimeField, centers_per_axis: int = 3,
                            n_radii: int = 3) -> List[SpaceTimeBump]:
    """Nonnegative test bumps on a coarse lattice with a few radii.

    A complete test of a distributional inequality is impossible; this
    declared finite dictionary is what condition (ii) is checked against.
    """
    g = field.grid
    tw = default_time_window(field)
    bumps = []
    ext = min(g.extent)
    radii = [ext / 8.0, ext / 6.0, ext / 4.0][:n_radii]
    fracs = np.linspace(0.25, 0.75, centers_per_axis)
    axes = [g.origin[k] + fracs * g.extent[k] for k in range(g.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=-1)
    for c in centers:
        for r in radii:
            if np.all(g.contains(np.array([c - r, c + r]))):
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
    terms; every test function must sit inside the field domain.  The five
    share one `integrate` sweep: (i) over the full stored range, one integrand
    per test function of (iii)-(v), and (ii)'s dictionary contracted over time,
    two moments of u per distinct time window (`_time_moments`).  The bump
    whose contracted value is worst then gets its own one-integrand pass,
    which gives the reported (ii).  Returns one report per condition; (ii)
    reports the worst case over the bump dictionary, (iii)-(v) over the
    supplied test functions.  No p-power terms appear in any of these, so the
    reports scale exactly (by c for (ii), by c^2 for the quadratic ones) when
    the field is scaled by c.
    """
    if field.min_value < 0:
        raise UsageError("two-valued caloric checks require u >= 0 on the grid")
    bumps = list(nonneg_bumps) if nonneg_bumps is not None else default_bump_dictionary(field)
    if not (etas and Ys and bumps):
        raise UsageError("every condition needs at least one test function")
    for test in bumps + list(etas) + [Y.bump for Y in Ys]:
        field.require_inside(test.support_box(), test.time_support(), "test function support")
    # (ii)'s time windows, distinct by value, each over the union of its bumps' boxes
    boxes: Dict[TimeWindow, List[Tuple]] = {}
    for psi in bumps:
        boxes.setdefault(psi.time, []).append(psi.support_box())
    windows = {tw: _union_box(b) for tw, b in boxes.items()}

    full, *res = integrate(
        field, [Integrand(lambda blk, *_: ([blk.grad2(), blk.dtu ** 2], None))]
        + [_time_moments(tw, box) for tw, box in windows.items()]
        + [_contact(eta) for eta in etas]
        + [_stationary(field, Y) for Y in Ys]
        + [_energy(field, eta, eta.time_support()) for eta in etas])
    nw, ne = len(windows), len(etas)
    moments, iii, iv, v = res[:nw], res[nw:nw + ne], res[nw + ne:-ne], res[-ne:]
    reports: Dict[str, ResidualReport] = {}

    # (i) finiteness over the full stored domain
    reports["i"] = ResidualReport(full.value, max(full.measure, 1e-300), full.cells)
    # (ii) distributional subcaloricity against a declared dictionary
    values = _subcaloric_values(field, bumps, windows, dict(zip(windows, moments)))
    worst, = integrate(field, [_distributional(field, bumps[int(np.argmax(values))])])
    reports["ii"] = ResidualReport(-worst.value, worst.scale, worst.cells)
    # (iii) contact identity, (iv) stationarity identity, (v) localized energy
    # inequality (gradient-only form): worst over the etas or the Ys
    reports["iii"] = _worst([_report(r) for r in iii])
    reports["iv"] = _worst([_report(r) for r in iv], 2.0)
    reports["v"] = _worst([_energy_report(field, eta, *eta.time_support(), None, r)
                           for eta, r in zip(etas, v)], 2.0)
    return reports


def _time_moments(tw: TimeWindow, box: Tuple) -> Integrand:
    """U0 = sum dt h^n w u and U1 = sum dt h^n w' u per cell of box over tw's
    support: (ii)'s integrand is linear in u, so these two carry every bump of tw."""
    return Integrand(lambda blk, pts, ok, wt: ([wt[0] * blk.u, wt[1] * blk.u], None), box,
                     time=tw, span=tw.support(), moments=True)


def _subcaloric_values(field: SpaceTimeField, bumps: Sequence[SpaceTimeBump],
                       boxes: Dict[TimeWindow, Tuple],
                       moments: Dict[TimeWindow, Integral]) -> np.ndarray:
    """Each bump's integral  int u (-psi_t - Lap psi)  (no u^-p term) as
    -<eta, U1> - <Lap eta, U0>, from the moments over its window's box, summed
    piece by piece over the bump's bands."""
    g = field.grid
    values = []
    for psi in bumps:
        u0, u1 = moments[psi.time].moments
        outer = _cell_window(g, boxes[psi.time])[0]
        value = 0.0
        for rows in _bands(g, psi.support_box()):
            nodes, centers = _cell_window(g, psi.support_box(), rows)
            sl = _sub_cells(nodes, outer)
            pts = _points(centers)
            value += (-float((psi.space.value(pts) * u1[sl]).sum())
                      - float((psi.space.laplacian(pts, field.n) * u0[sl]).sum()))
        values.append(value)
    return np.asarray(values)


def _contact(eta: SpaceTimeBump) -> Integrand:
    """Condition (iii): u_t u eta^2 + |grad u|^2 eta^2 + 2 eta u (grad u . grad eta)."""

    def terms(blk, space, ok, wt):
        eta_x, grad_eta = space
        w, _ = wt
        ev = eta_x * w
        return [blk.dtu * blk.u * ev ** 2,
                blk.grad2() * ev ** 2,
                2.0 * ev * blk.u * blk.grad_dot(grad_eta * w)], None

    return Integrand(terms, eta.support_box(), _eta_and_grad(eta), eta.time, eta.time_support())
