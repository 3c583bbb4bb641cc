"""Signature-driven fuzz of the analysis ops' list and scalar options.

Every list-typed option an op of `ops.OPS` declares (`point`, `lambdas`,
`s_grid`, `center`, `radii`, ...) is drawn with 0 to n + 2 entries (empty,
one entry, and the right and wrong lengths of a coordinate list) on a small
n-dimensional field, from values that mix valid and invalid ones.  Every
float or int option is set, one at a time, to values at and past the ends of
its range, and every Literal option to each value it admits.  Each call must
return a finite, JSON-serialisable report or refuse with a QuenchLabError,
and a second call must give the same bytes.  NaN and Infinity are refused
when the config loads (tests/test_config.py), so the scalars here are finite.

The fields are 1D, 2D and 3D.  In 2D and 3D the list options are also drawn
with `quadrature._BAND` shrunk to 4 cells, so that every window of more than
one row takes the band path (`quadrature._bands`).
"""

import functools
import inspect
import json
import math
import typing

import pytest
from hypothesis import given, settings, strategies as st

import quenchlab as ql
from quenchlab import quadrature
from quenchlab.errors import QuenchLabError
from quenchlab.ops import OPS


def _is_list(annotation) -> bool:
    return any(typing.get_origin(a) is list for a in (annotation, *typing.get_args(annotation)))


def _list_options(fn):
    """The keyword-only list options of fn: name -> whether it has a default."""
    return {name: p.default is not p.empty for name, p in inspect.signature(fn).parameters.items()
            if p.kind is p.KEYWORD_ONLY and _is_list(p.annotation)}


LIST_OPS = sorted(op for op, fn in OPS.items() if _list_options(fn))

# the options without a default, at values the fields below accept
REQUIRED = {"s_min": 0.125, "s_max": 0.5, "radii": [0.5, 0.25]}

VALUES = [-2.0, -1.0, -0.5, -0.25, 0.0, 0.125, 0.25, 0.5, 1.0, 2.0,
          math.nan, math.inf, -math.inf]


@functools.lru_cache(maxsize=None)
def _field(n: int):
    """u = 0.5 + |x|^2/2 - t/4 > 0 on [-1, 1]^n x [-1, 0], 16 cells per axis.

    Its 33 slabs resolve density_estimate's s >= 4 dt from s = 0.125 up.
    """
    grid = ql.GridSpec(origin=[-1.0] * n, extent=[2.0] * n, cells=[16] * n,
                       time_start=-1.0, time_end=0.0)
    times = [-1.0 + k / 32.0 for k in range(33)]
    return ql.field_from_function(ql.ModelParams(p=3.0, n=n), grid, times,
                                  lambda xs, t: 0.5 + 0.5 * (xs ** 2).sum(axis=-1) - 0.25 * t)


def _options(n: int, op: str):
    lists = st.lists(st.sampled_from(VALUES), max_size=n + 2)
    fn = OPS[op]
    listed = _list_options(fn)
    return st.fixed_dictionaries(
        {**{k: st.just(v) for k, v in _required(fn).items() if k not in listed},
         **{name: lists for name, optional in listed.items() if not optional}},
        optional={name: lists for name, optional in listed.items() if optional})


def _required(fn):
    params = inspect.signature(fn).parameters
    return {k: v for k, v in REQUIRED.items() if k in params and params[k].default is params[k].empty}


# (n, band): the field's dimension and quadrature._BAND (None: the default)
SHAPES = [(1, None), (2, None), (3, None), (2, 4), (3, 4)]


def _shape_id(shape) -> str:
    n, band = shape
    return str(n) if band is None else f"{n}-band{band}"


@pytest.fixture
def n(request, monkeypatch):
    """The field's dimension, with quadrature._BAND set for the test."""
    dim, band = request.param
    if band is not None:
        monkeypatch.setattr(quadrature, "_BAND", band)
    return dim


def _outcome(op: str, field, options) -> bytes:
    try:
        result, _ = OPS[op](field, {"seed": 7}, **options)
    except QuenchLabError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    # allow_nan=False: a NaN or infinite value in the report fails the test
    return json.dumps(result, sort_keys=True, allow_nan=False).encode()


@pytest.mark.parametrize("n", SHAPES, indirect=True, ids=_shape_id)
@pytest.mark.parametrize("op", LIST_OPS)
def test_list_options_are_reported_or_refused(op, n):
    field = _field(n)

    @settings(max_examples=20 if n < 3 else 8, deadline=None, derandomize=True)
    @given(_options(n, op))
    def check(options):
        assert _outcome(op, field, options) == _outcome(op, field, options)

    check()


def test_every_list_option_is_fuzzed():
    assert {(op, name) for op in LIST_OPS for name in _list_options(OPS[op])} >= {
        ("density_estimate", "point"), ("almgren_scan", "s_grid"),
        ("apriori_scaling", "radii"), ("rupture_dimension", "radii"),
        ("two_valued_check", "center"), ("self_similarity", "lambdas"),
        ("self_similarity", "window_center")}


# a scalar past either end of its range; an int cannot hold 1e-300, and a
# huge count asks for work rather than past a range end
FLOATS = [0.0, -1.0, 1e-300, 1e300]
INTS = [0, -1, 1, 2]
# the work holder_seminorm does grows with its budget (no cap): small ones only
SMALL = {"budget": [-1, 0, 1, 2000]}


def _scalar_cases():
    """(op, option, value) for every float, int and Literal option of every op."""
    cases = []
    for op, fn in sorted(OPS.items()):
        for name, p in inspect.signature(fn).parameters.items():
            if p.kind is not p.KEYWORD_ONLY or _is_list(p.annotation):
                continue
            kinds = (p.annotation, *typing.get_args(p.annotation))
            values = [v for a in kinds if typing.get_origin(a) is typing.Literal
                      for v in typing.get_args(a)]
            if float in kinds:
                values += FLOATS
            elif int in kinds:
                values += SMALL.get(name, INTS)
            cases += [(op, name, v) for v in values]
    return cases


SCALAR_CASES = _scalar_cases()


@pytest.mark.parametrize("n", SHAPES[:3], indirect=True, ids=_shape_id)
@pytest.mark.parametrize("op,name,value", SCALAR_CASES)
def test_scalar_options_are_reported_or_refused(op, name, value, n):
    options = {**_required(OPS[op]), name: value}
    assert _outcome(op, _field(n), options) == _outcome(op, _field(n), options)


def test_every_scalar_option_is_drawn():
    drawn = {(op, name) for op, name, _ in SCALAR_CASES}
    assert drawn >= {
        ("almgren_scan", "s_min"), ("almgren_scan", "s_max"), ("almgren_scan", "num"),
        ("almgren_scan", "truncation"), ("density_estimate", "truncation"),
        ("density_estimate", "eta_outer"), ("holder_seminorm", "budget"),
        ("rupture_dimension", "tau"), ("rupture_dimension", "slice_at"),
        ("apriori_scaling", "quantity"), ("two_valued_check", "rel_tol"),
        ("self_similarity", "window_radius"), ("self_similarity", "window_time")}
    assert ("rupture_dimension", "tau", "auto") in SCALAR_CASES
    assert ("apriori_scaling", "quantity", "energy") in SCALAR_CASES


@pytest.mark.parametrize("truncation", [math.nan, math.inf])
@pytest.mark.parametrize("op", ["almgren_scan", "density_estimate"])
def test_nonfinite_truncation_refused(op, truncation):
    # through the API, past the config's float check: inf reached
    # int(np.floor(inf)) as an OverflowError, NaN passed WeightSpec's `< 4` test
    with pytest.raises(QuenchLabError, match="truncation_multiple must be finite"):
        OPS[op](_field(2), {"seed": 7}, truncation=truncation, **_required(OPS[op]))


@pytest.mark.parametrize("options", [{"num": 0}, {"num": 1}, {"s_grid": [0.05]}])
def test_almgren_scan_refuses_fewer_than_two_samples(options):
    # each used to report monotonicity_claimed = true (num = 0 with N_min null)
    with pytest.raises(QuenchLabError, match="at least two samples"):
        OPS["almgren_scan"](_field(1), {"seed": 7}, **options)
