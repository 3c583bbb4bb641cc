"""Command line interface.

    quenchlab simulate --config run.ini
    quenchlab analyze  --field field.qlf --op density_estimate [--point x,t] [--config run.ini]
    quenchlab dimension --field field.qlf --tau auto|0.05
    quenchlab report   --run rundir --format json|text

Exit codes: 0 ok, 2 usage/validation, 3 numerical/accuracy, 4 budget,
5 corrupt file.  QUENCHLAB_THREADS (a positive integer) caps analysis
parallelism.
"""

import argparse
import json
import os
import sys

from .config import KNOWN_OPS, load_config
from .errors import QuenchLabError, UsageError
from .pipeline import Report, _HANDLERS, _auto_radii, emit_report, run_pipeline
from .qlf import load_field
from .rupture import parabolic_box_dimension, rupture_set, rupture_threshold


def _build_parser():
    ap = argparse.ArgumentParser(prog="quenchlab")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured pipeline")
    sim.add_argument("--config", required=True)

    ana = sub.add_parser("analyze", help="run one analysis on a stored field")
    ana.add_argument("--field", required=True)
    ana.add_argument("--op", required=True, choices=sorted(KNOWN_OPS))
    ana.add_argument("--point", default=None, help="comma separated x..., t")
    ana.add_argument("--config", default=None, help="optional config with [analysis.*] options")

    dim = sub.add_parser("dimension", help="rupture set box dimension")
    dim.add_argument("--field", required=True)
    dim.add_argument("--tau", default="auto")

    rep = sub.add_parser("report", help="re-emit a stored run report")
    rep.add_argument("--run", required=True)
    rep.add_argument("--format", default="text", choices=("json", "text"))
    return ap


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    run_pipeline(cfg)
    sys.stdout.write(f"report written to {os.path.join(cfg.output_dir, 'report.json')}\n")
    return 0


def _cmd_analyze(args) -> int:
    field = load_field(args.field)
    options = {}
    seed = 0
    boundary = solver = None
    if args.config:
        cfg = load_config(args.config)
        seed = cfg.seed
        boundary, solver = cfg.boundary, cfg.solver
        for req in cfg.analyses:
            if req.op == args.op:
                options.update(req.options)
    if args.point:
        options["point"] = [float(v) for v in args.point.split(",")]
    ctx = {"seed": seed, "boundary": boundary, "solver": solver, "quench": None}
    result, _ = _HANDLERS[args.op](field, options, ctx)
    report = Report(meta={"package": "quenchlab", "seed": seed, "config_digest": ""},
                    run={"mode": "analyze"},
                    analyses=[{"index": 1, "name": "cli", "op": args.op,
                               "status": "ok", **result}])
    sys.stdout.buffer.write(emit_report(report, "text"))
    return 0


def _cmd_dimension(args) -> int:
    field = load_field(args.field)
    tau = rupture_threshold(field) if args.tau == "auto" else float(args.tau)
    S = rupture_set(field, tau)
    if len(S) == 0:
        sys.stdout.write(f"tau={tau:g}: rupture set empty\n")
        return 0
    fit = parabolic_box_dimension(S, _auto_radii(field))
    sys.stdout.write(f"tau={tau:g} points={len(S)} dim_P={fit.fitted_dim:.3f} "
                     f"residual={fit.residual:.3g}\n")
    for rad, cnt in zip(fit.radii, fit.counts):
        sys.stdout.write(f"  r={rad:g} count={int(cnt)}\n")
    return 0


def _cmd_report(args) -> int:
    path = os.path.join(args.run, "report.json")
    if not os.path.exists(path):
        raise UsageError(f"no report.json under {args.run}")
    with open(path, "rb") as fh:
        doc = json.loads(fh.read().decode())
    report = Report(meta=doc.get("meta", {}), run=doc.get("run", {}),
                    analyses=doc.get("analyses", []))
    sys.stdout.buffer.write(emit_report(report, args.format))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "dimension": _cmd_dimension,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except QuenchLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except (ValueError, KeyError, TypeError, OSError) as exc:
        sys.stderr.write(f"error: {exc!r}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
