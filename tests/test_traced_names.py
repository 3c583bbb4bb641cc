"""The names perfbench/tracing.py wraps still resolve in the package.

Tracing skips a name it cannot find, and the per-layer metrics fed by it then
read 0 with no error, so a rename under src/ must fail here instead.
"""

import importlib
import importlib.util
import inspect
import pathlib

import quenchlab.field
import quenchlab.pipeline
import quenchlab.quadrature

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
