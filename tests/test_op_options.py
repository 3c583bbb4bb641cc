"""Signature-driven fuzz of the analysis ops' list options.

Every list-typed option an op of `ops.OPS` declares (`point`, `lambdas`,
`s_grid`, `center`, `radii`, ...) is drawn with 0 to n + 2 entries (empty,
one entry, and the right and wrong lengths of a coordinate list) on a small
n-dimensional field, from values that mix valid and invalid ones.  Each call
must return a finite, JSON-serialisable report or refuse with a
QuenchLabError, and a second call must give the same bytes.
"""

import functools
import inspect
import json
import math
import typing

import pytest
from hypothesis import given, settings, strategies as st

import quenchlab as ql
from quenchlab.errors import QuenchLabError
from quenchlab.ops import OPS


def _is_list(annotation) -> bool:
    return any(typing.get_origin(a) is list for a in (annotation, *typing.get_args(annotation)))


def _list_options(fn):
    """The keyword-only list options of fn: name -> whether it has a default."""
    return {name: p.default is not p.empty for name, p in inspect.signature(fn).parameters.items()
            if p.kind is p.KEYWORD_ONLY and _is_list(p.annotation)}


LIST_OPS = sorted(op for op, fn in OPS.items() if _list_options(fn))

# the required options that are not lists, at values the fields below accept
REQUIRED = {"s_min": 0.01, "s_max": 0.05}

VALUES = [-2.0, -1.0, -0.5, -0.25, 0.0, 0.125, 0.25, 0.5, 1.0, 2.0,
          math.nan, math.inf, -math.inf]


@functools.lru_cache(maxsize=None)
def _field(n: int):
    """u = 0.5 + |x|^2/2 - t/4 > 0 on [-1, 1]^n x [-1, 0], 16 cells per axis."""
    grid = ql.GridSpec(origin=[-1.0] * n, extent=[2.0] * n, cells=[16] * n,
                       time_start=-1.0, time_end=0.0)
    times = [-1.0 + k / 8.0 for k in range(9)]
    return ql.field_from_function(ql.ModelParams(p=3.0, n=n), grid, times,
                                  lambda xs, t: 0.5 + 0.5 * (xs ** 2).sum(axis=-1) - 0.25 * t)


def _options(n: int, op: str):
    lists = st.lists(st.sampled_from(VALUES), max_size=n + 2)
    fn = OPS[op]
    listed = _list_options(fn)
    required = {k: v for k, v in REQUIRED.items() if k in inspect.signature(fn).parameters}
    return st.fixed_dictionaries(
        {**{k: st.just(v) for k, v in required.items()},
         **{name: lists for name, optional in listed.items() if not optional}},
        optional={name: lists for name, optional in listed.items() if optional})


def _outcome(op: str, field, options) -> bytes:
    try:
        result, _ = OPS[op](field, {"seed": 7}, **options)
    except QuenchLabError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    # allow_nan=False: a NaN or infinite value in the report fails the test
    return json.dumps(result, sort_keys=True, allow_nan=False).encode()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("op", LIST_OPS)
def test_list_options_are_reported_or_refused(op, n):
    field = _field(n)

    @settings(max_examples=20, deadline=None, derandomize=True)
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


@pytest.mark.parametrize("truncation", [math.nan, math.inf])
@pytest.mark.parametrize("op", ["almgren_scan", "density_estimate"])
def test_nonfinite_truncation_refused(op, truncation):
    # through the API, past the config's float check: inf reached
    # int(np.floor(inf)) as an OverflowError, NaN passed WeightSpec's `< 4` test
    required = {k: v for k, v in REQUIRED.items() if k in inspect.signature(OPS[op]).parameters}
    with pytest.raises(QuenchLabError, match="truncation_multiple must be finite"):
        OPS[op](_field(2), {"seed": 7}, truncation=truncation, **required)


@pytest.mark.parametrize("options", [{"num": 0}, {"num": 1}, {"s_grid": [0.05]}])
def test_almgren_scan_refuses_fewer_than_two_samples(options):
    # each used to report monotonicity_claimed = true (num = 0 with N_min null)
    with pytest.raises(QuenchLabError, match="at least two samples"):
        OPS["almgren_scan"](_field(1), {"seed": 7}, **options)
