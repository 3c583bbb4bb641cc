"""quenchlab benchmark: one workload of `quenchlab simulate`, end to end or traced.

    python3 perfbench/run.py --workload collapse_2d --seed 3 --seconds 30 --trace 0

`--workload all` runs quench_3d, collapse_2d and radial_2d_load in turn.

Writes the seeded inputs into a fresh directory under .perfbench_work/, then
runs the workload in fresh interpreters (perfbench/worker.py) until
--seconds have passed, at least MIN_REPEATS times.  Every repeat's
report.json is checked against the workload's closed-form oracles and must
be byte-identical to the other repeats'.  Human-readable lines come first;
the last line of stdout is one JSON object:

  --trace 0: wall_s and setup_s (medians over the repeats), peak_rss_mb (max)
  --trace 1: the per-layer metrics of traced repeats, alternated with
             untraced ones to give the tracing overhead

attempted/failed count operations (field acquisition and each analysis); an
operation fails if it errors or fails its oracle check.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version

import workloads as W
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_SAMPLES = 9       # setup-only interpreters per run, after one warm-up
MIN_REPEATS = 3         # untraced repeats (trace 0) or traced/untraced pairs (trace 1: 1)
RUN_BUDGET = 170        # seconds: one workload's run ends within this, hung workers too


def cores():
    return len(os.sched_getaffinity(0))


def worker_env():
    """Serial analyses, numpy/scipy pools capped at the core count, src/ first.

    glibc's mmap threshold is pinned at its 128 KiB default: left dynamic, it
    rises after the first freed LU factor, later factors stay in the heap, and
    peak RSS of identical 3D runs jumped between 426 and 499 MB.
    """
    env = dict(os.environ)
    env.pop("QUENCHLAB_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cores())
    return env


def run_worker(config, cwd, deadline, setup_only=False, trace_id=None):
    """Run one fresh interpreter; return its result dict, or None if it failed.

    The worker is killed at `deadline` (a time.perf_counter() value).
    """
    timeout = max(deadline - time.perf_counter(), 1.0)
    result = os.path.join(cwd, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), config, result]
    if setup_only:
        cmd.append("--setup-only")
    if trace_id:
        cmd += ["--trace", trace_id]
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=worker_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker killed after {timeout:.0f}s in {cwd}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker failed in {cwd}:\n{proc.stdout[-4000:]}", file=sys.stderr)
        return None
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


class Repeat:
    """One run_pipeline in a fresh output directory, with its oracle verdict."""

    def __init__(self, workload, config, directory, n_ops, deadline, trace_id=None):
        os.makedirs(directory)
        self.traced = trace_id is not None
        self.result = run_worker(config, directory, deadline, trace_id=trace_id)
        out = os.path.join(directory, "out")
        self.report_bytes = None
        if os.path.exists(os.path.join(out, "report.json")):
            with open(os.path.join(out, "report.json"), "rb") as fh:
                self.report_bytes = fh.read()
        if os.path.exists(os.path.join(out, "field.qlf")):
            os.unlink(os.path.join(out, "field.qlf"))
        self.attempted = n_ops
        if self.report_bytes is None:
            self.report, self.checks, self.failed = None, {"report.json": math.inf}, n_ops
            return
        self.report = json.loads(self.report_bytes)
        self.checks = W.oracle_checks(workload, self.report)
        self.failed = len(W.failed_ops(self.report, self.checks))


def prepare(workload, seed, work, deadline):
    """Write the seeded inputs into a fresh `work` directory; return the config path.

    Building the radial checkpoint is input preparation, outside set-up time.
    """
    shutil.rmtree(work, ignore_errors=True)
    config, ckpt_config = W.write_inputs(workload, seed, work)
    if ckpt_config is not None:
        ckpt_dir = os.path.dirname(ckpt_config)
        if run_worker(ckpt_config, ckpt_dir, deadline) is None:
            print("checkpoint generation failed", file=sys.stderr)
            return None
        os.replace(os.path.join(ckpt_dir, "field.qlf"), os.path.join(work, W.CHECKPOINT))
    return config


def _median(values):
    return statistics.median(values) if values else math.nan


def _finite(x):
    """JSON has no infinity: a failed check reads as 1e9 tolerances."""
    return x if math.isfinite(x) else 1e9


def measure(workload, args):
    deadline = time.perf_counter() + RUN_BUDGET
    work = os.path.join(WORK, f"{workload}-seed{args.seed}")
    config = prepare(workload, args.seed, work, deadline)
    if config is None:
        return 1
    with open(config, encoding="utf-8") as fh:
        n_ops = 1 + sum(line.startswith("[analysis.") for line in fh)

    # set-up: fresh interpreter to parsed config; the first one fills bytecode caches
    setups = []
    for k in range(SETUP_SAMPLES + 1):
        d = os.path.join(work, f"setup{k}")
        os.makedirs(d)
        res = run_worker(config, d, deadline, setup_only=True)
        if res is None:
            return 1
        if k:
            setups.append(res["setup_s"])

    repeats = []
    start = time.perf_counter()
    plan = [False, True] if args.trace else [False]
    min_rounds = MIN_REPEATS if not args.trace else 1
    rounds, round_s = 0, []
    while rounds < min_rounds or time.perf_counter() - start + _median(round_s) <= args.seconds:
        t0 = time.perf_counter()
        for traced in plan:
            k = len(repeats)
            trace_id = f"{workload}-seed{args.seed}-rep{k:02d}" if traced else None
            repeats.append(Repeat(workload, config, os.path.join(work, f"rep{k:02d}"),
                                  n_ops, deadline, trace_id))
        round_s.append(time.perf_counter() - t0)
        rounds += 1
    if os.path.exists(os.path.join(work, W.CHECKPOINT)):
        os.unlink(os.path.join(work, W.CHECKPOINT))

    timed = [r for r in repeats if r.result is not None]
    plain = [r for r in timed if not r.traced]
    traced = [r for r in timed if r.traced]
    if not plain or (args.trace and not traced):
        print("no repeat completed; nothing to report", file=sys.stderr)
        return 1

    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    oracle_err = max(max(r.checks.values()) for r in repeats)
    reports = {r.report_bytes for r in repeats}
    deterministic = len(reports) == 1
    with open(config, encoding="utf-8") as fh:
        ref_path = W.reference_path(HERE, workload, fh.read())
    if os.path.exists(ref_path) and repeats[0].report is not None:
        with open(ref_path, encoding="utf-8") as fh:
            drift = W.report_drift(repeats[0].report, json.load(fh))
    else:
        print(f"no reference report at {ref_path}", file=sys.stderr)
        drift = 1.0
    correct = failed == 0 and oracle_err <= 1.0 and deterministic

    wall = _median([r.result["wall_s"] for r in plain])
    end_to_end = {
        "wall_s": (wall, "s"),
        "setup_s": (_median(setups + [r.result["setup_s"] for r in plain]), "s"),
        "peak_rss_mb": (max(r.result["peak_rss_mb"] for r in plain), "MB"),
        "oracle_err": (_finite(oracle_err), "ratio"),
        "report_drift": (drift, "ratio"),
        "ops_failed": (failed / attempted, "fraction"),
    }
    print(f"machine: {cores()} cores, python {sys.version.split()[0]}, "
          f"numpy {version('numpy')}, scipy {version('scipy')}")
    print(f"workload {workload}, seed {args.seed}, "
          f"{len(plain)} untraced + {len(traced)} traced repeats, {len(setups)} set-up samples")
    for name, value in sorted(repeats[0].checks.items()):
        print(f"  oracle {name:<24} |value - closed form| / tol = {value:.3g}")
    print(f"  reports byte-identical across repeats: {deterministic}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<14} {value:.6g} {unit}")

    if not args.trace:
        metrics = {k: end_to_end[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
    else:
        metrics = per_layer(traced, wall, oracle_err, drift)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def per_layer(traced, untraced_wall, oracle_err, drift):
    """Median of each layer metric over the traced repeats, plus the overhead."""
    keys = traced[0].result["layers"]
    layers = {k: _median([r.result["layers"][k] for r in traced]) for k in keys}
    ops = {k: _median([r.result["ops"][k] for r in traced]) for k in traced[0].result["ops"]}
    overhead = _median([r.result["wall_s"] for r in traced]) - untraced_wall

    print("layer          self s    (self time: span minus child spans)")
    for layer in LAYERS:
        print(f"  {layer:<12} {layers[layer + '.self_s']:9.4f}")
    print("analysis op    inclusive s")
    for op, secs in ops.items():
        print(f"  {op:<18} {secs:9.4f}")
    for k, v in layers.items():
        print(f"  {k:<34} {v:.6g}")
    print(f"  tracing overhead: {overhead:.4f} s against untraced wall {untraced_wall:.4f} s")

    metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["check.oracle_err"] = (_finite(oracle_err), "ratio")
    metrics["check.report_drift"] = (drift, "ratio")
    return metrics


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("factor_reuse", "per_budget")):
        return "ratio"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",),
                    help="one workload, or all three in turn (one JSON line each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "quenchlab", "__init__.py")):
        print(f"no quenchlab sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        sys.exit(2)
    chosen = W.WORKLOADS if args.workload == "all" else (args.workload,)
    sys.exit(max(measure(w, args) for w in chosen))


if __name__ == "__main__":
    main()
