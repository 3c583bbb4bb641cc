"""In-memory spans around the public functions of each quenchlab module.

`install` rebinds module attributes (every quenchlab module that holds the
function, so `from .x import f` call sites are covered too) with wrappers
that record a span and the layer's work counters.  Nothing under src/
changes; the wrappers live only in the traced interpreter.  The run is
serial, so one stack gives every span its parent.
"""

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped with a span named "<module>.<function>".
SPANNED = (
    ("config", "load_config"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "acquire_field"),
    ("solver", "solve_until_quench"),
    ("solver", "comparison_guard"),
    ("solver", "step"),
    ("quadrature", "slab_cells"),
    ("residuals", "two_valued_caloric_check"),
    ("monotonicity", "weighted_energy_detail"),
    ("monotonicity", "density_estimate"),
    ("monotonicity", "frequency"),
    ("field", "sample_many"),
    ("exact", "self_similarity_residual"),
    ("rupture", "holder_seminorm"),
    ("rupture", "rupture_set"),
    ("rupture", "parabolic_box_dimension"),
    ("rupture", "apriori_scaling_check"),
    ("qlf", "save_field"),
    ("qlf", "load_field"),
)

_DONE = object()

LAYERS = ("config", "pipeline", "solver", "quadrature", "residuals", "monotonicity",
          "field", "exact", "rupture", "qlf")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []              # (id, parent, name, start, end)
        self.counters = Counter()
        self.energy_keys = set()
        self._stack = []

    def _open(self):
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, parent, time.perf_counter()))

    def _close(self, name):
        sid, parent, start = self._stack.pop()
        self.spans.append((sid, parent, name, start, time.perf_counter()))

    def wrap(self, name, fn, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name)
            if on_call is not None:
                on_call(out, *args, **kwargs)
            return out
        return traced

    def wrap_generator(self, name, fn, on_item):
        """A span per item produced, so consumer work between items is not counted."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._open()
                try:
                    item = next(it, _DONE)
                finally:
                    self._close(name)
                if item is _DONE:
                    return
                on_item(item)
                yield item
        return traced

    def write(self, path):
        rows = [{"run_id": self.run_id, "id": sid, "parent": parent, "name": name,
                 "start": start, "end": end}
                for sid, parent, name, start, end in sorted(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": rows,
                       "counters": dict(self.counters)}, fh, indent=0)

    # -- reduction to per-layer metrics ------------------------------------------------

    def totals(self):
        """Inclusive seconds and call counts per span name."""
        secs, calls = defaultdict(float), Counter()
        for _, _, name, start, end in self.spans:
            secs[name] += end - start
            calls[name] += 1
        return secs, calls

    def self_times(self):
        """Per layer: span time minus the time of its child spans."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name.split(".")[0]] += end - start - child[sid]
        return out

    def metrics(self):
        secs, calls = self.totals()
        c = self.counters
        steps = calls["solver.step"]
        facts = calls["solver.factorize"]
        ops_s = sum(v for k, v in secs.items() if k.startswith("pipeline.op."))
        dimension = ["rupture.rupture_set", "rupture.parabolic_box_dimension"]
        m = {
            "solver.solve_s": secs["solver.solve_until_quench"],
            "solver.guard_s": secs["solver.comparison_guard"],
            "solver.steps": steps,
            "solver.step_s": secs["solver.step"],
            "solver.factorizations": facts,
            "solver.factorize_s": secs["solver.factorize"],
            "solver.factor_reuse": 1.0 - facts / steps if steps else 0.0,
            "quadrature.slab_cells_calls": calls["quadrature.slab_cells"],
            "quadrature.slab_cells_s": secs["quadrature.slab_cells"],
            "quadrature.blocks": c["quadrature.blocks"],
            "quadrature.blocks_s": secs["quadrature.spacetime_blocks"],
            "quadrature.cells": c["quadrature.cells"],
            "residuals.two_valued_s": secs["residuals.two_valued_caloric_check"],
            "monotonicity.energy_evals": calls["monotonicity.weighted_energy_detail"],
            "monotonicity.energy_distinct": len(self.energy_keys),
            "monotonicity.energy_s": secs["monotonicity.weighted_energy_detail"],
            "monotonicity.density_s": secs["monotonicity.density_estimate"],
            "monotonicity.frequency_s": secs["monotonicity.frequency"],
            "field.sample_many_calls": calls["field.sample_many"],
            "field.sample_points": c["field.sample_points"],
            "field.sample_many_s": secs["field.sample_many"],
            "field.time_bracket_calls": c["field.time_bracket_calls"],
            "exact.self_similarity_s": secs["exact.self_similarity_residual"],
            "rupture.holder_s": secs["rupture.holder_seminorm"],
            "rupture.holder_pairs": c["rupture.holder_pairs"],
            "rupture.holder_pairs_per_budget": (c["rupture.holder_pairs"] / c["rupture.holder_budget"]
                                                if c["rupture.holder_budget"] else 0.0),
            "rupture.dimension_s": sum(secs[k] for k in dimension),
            "rupture.rupture_points": c["rupture.rupture_points"],
            "rupture.apriori_s": secs["rupture.apriori_scaling_check"],
            "qlf.save_s": secs["qlf.save_field"],
            "qlf.save_mb": c["qlf.save_bytes"] / 2 ** 20,
            "qlf.load_s": secs["qlf.load_field"],
            "qlf.load_mb": c["qlf.load_bytes"] / 2 ** 20,
            "pipeline.acquire_s": secs["pipeline.acquire_field"],
            "pipeline.output_s": (secs["pipeline.run_pipeline"] - secs["pipeline.acquire_field"]
                                  - ops_s),
            "pipeline.run_s": secs["pipeline.run_pipeline"],
            "config.load_s": secs["config.load_config"],
        }
        selfs = self.self_times()
        for layer in LAYERS:
            m[f"{layer}.self_s"] = selfs[layer]
        ops = {k[len("pipeline.op."):]: v for k, v in secs.items() if k.startswith("pipeline.op.")}
        return m, ops


def _rebind(package, old, new):
    """Point every quenchlab module attribute that holds `old` at `new`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package.__name__ or name.startswith(package.__name__ + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def install(package, run_id):
    """Wrap the layers of an imported quenchlab package; return the tracer.

    A function, module or attribute the package no longer has is skipped, and
    its metrics read 0.
    """
    tr = Tracer(run_id)
    mods = {layer: sys.modules.get(f"{package.__name__}.{layer}") for layer in LAYERS}
    c = tr.counters

    def on_slab_cells(out, *args, **kwargs):
        c["quadrature.cells"] += out.u.size

    def on_energy(out, field, x0, s, *args, **kwargs):
        tr.energy_keys.add((tuple(x0.x), x0.t, float(s)))

    def on_sample(out, field, xs, ts):
        c["field.sample_points"] += out.size

    def on_holder(out, field, exponent, budget, *args, **kwargs):
        c["rupture.holder_pairs"] += getattr(out, "pairs_sampled", 0)
        c["rupture.holder_budget"] += budget

    def on_rupture_set(out, *args, **kwargs):
        c["rupture.rupture_points"] += len(out)

    def on_save(out, field, path):
        c["qlf.save_bytes"] += os.path.getsize(path)

    def on_load(out, path):
        c["qlf.load_bytes"] += os.path.getsize(path)

    hooks = {"quadrature.slab_cells": on_slab_cells,
             "monotonicity.weighted_energy_detail": on_energy,
             "field.sample_many": on_sample,
             "rupture.holder_seminorm": on_holder,
             "rupture.rupture_set": on_rupture_set,
             "qlf.save_field": on_save,
             "qlf.load_field": on_load}
    for layer, func in SPANNED:
        name = f"{layer}.{func}"
        old = getattr(mods[layer], func, None)
        if old is not None:
            _rebind(package, old, tr.wrap(name, old, hooks.get(name)))

    def on_block(blk):
        c["quadrature.blocks"] += 1
        c["quadrature.cells"] += blk.u.size

    old = getattr(mods["quadrature"], "spacetime_blocks", None)
    if old is not None:
        _rebind(package, old, tr.wrap_generator("quadrature.spacetime_blocks", old, on_block))

    # the sparse LU behind the solver's dt-keyed factor cache
    spla = getattr(mods["solver"], "spla", None)
    if spla is not None:
        spla.factorized = tr.wrap("solver.factorize", spla.factorized)

    # one call per sampled point inside sample_many: counted, not spanned
    field_cls = getattr(mods["field"], "SpaceTimeField", None)
    bracket = getattr(field_cls, "time_bracket", None)
    if bracket is not None:
        def counted_bracket(self, t):
            c["field.time_bracket_calls"] += 1
            return bracket(self, t)

        field_cls.time_bracket = counted_bracket

    handlers = getattr(mods["pipeline"], "_HANDLERS", {})
    for op, fn in list(handlers.items()):
        handlers[op] = tr.wrap(f"pipeline.op.{op}", fn)
    return tr
