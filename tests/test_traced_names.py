"""The names perfbench/tracing.py wraps still resolve in the package.

Tracing skips a name it cannot find, and the per-layer metrics fed by it then
read 0 with no error, so a rename under src/ must fail here instead.
"""

import importlib
import importlib.util
import inspect
import pathlib

import numpy as np

import quenchlab as ql
import quenchlab.field
import quenchlab.pipeline
import quenchlab.quadrature
import quenchlab.rupture

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    modules = {layer: importlib.import_module(f"quenchlab.{layer}") for layer in tracing.LAYERS}
    assert sorted(f"{m}.{f}" for m, f in tracing.SPANNED
                  if not callable(getattr(modules[m], f, None))) == []
    # wrapped as a generator, one span per block
    assert inspect.isgeneratorfunction(quenchlab.quadrature.spacetime_blocks)
    # counted per call, not spanned
    assert callable(quenchlab.field.SpaceTimeField.time_bracket)
    # its entries are wrapped in place, one span per op
    handlers = quenchlab.pipeline._HANDLERS
    assert isinstance(handlers, dict) and handlers


def test_rupture_set_len_is_its_point_count():
    # tracing counts rupture.rupture_points as len() of rupture_set's result
    grid = ql.GridSpec(origin=[-1.0], extent=[2.0], cells=[8], time_start=-1.0, time_end=0.0)
    f = ql.field_from_function(ql.ModelParams(p=3.0, n=1), grid, [-1.0, -0.5, 0.0],
                               lambda xs, t: np.abs(xs[:, 0]) - t)
    S = quenchlab.rupture.rupture_set(f, 0.3)
    # |x| - t <= 0.3 at t = 0 only, on the nodes 0 and +-0.25
    assert len(S) == S.ts.size == S.xs.shape[0] == 3
