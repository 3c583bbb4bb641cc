"""Command line interface.

    quenchlab simulate --config run.ini
    quenchlab analyze  --field field.qlf --op density_estimate [--point x,t] [--config run.ini]
    quenchlab dimension --field field.qlf --tau auto|0.05
    quenchlab report   --run rundir --format json|text

`analyze` takes its options from the one [analysis.*] section of --config
that runs --op (several are refused); `dimension` is the rupture_dimension op
with its defaults and --tau.  The --op choices are the keys of `ops.OPS`.
Both run their op through `pipeline.run_op`, as `simulate` does.

Exit codes: 0 ok, 2 usage/validation, 3 numerical/accuracy, 4 budget,
5 corrupt file.
"""

import argparse
import json
import os
import sys

from .config import check_options, load_config
from .errors import QuenchLabError, UsageError
from .ops import OPS
from .pipeline import Report, emit_report, run_op, run_pipeline
from .qlf import load_field


def _build_parser():
    ap = argparse.ArgumentParser(prog="quenchlab")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured pipeline")
    sim.add_argument("--config", required=True)

    ana = sub.add_parser("analyze", help="run one analysis on a stored field")
    ana.add_argument("--field", required=True)
    ana.add_argument("--op", required=True, choices=sorted(OPS))
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
        seed, boundary, solver = cfg.seed, cfg.boundary, cfg.solver
        matches = [req for req in cfg.analyses if req.op == args.op]
        if len(matches) > 1:
            names = ", ".join(f"[{req.name}]" for req in matches)
            raise UsageError(f"{args.op} is configured by more than one section ({names})")
        if matches:
            options = dict(matches[0].options)
    if args.point:
        options["point"] = [float(v) for v in args.point.split(",")]
    ctx = {"seed": seed, "boundary": boundary, "solver": solver}
    result, _ = run_op(args.op, field, ctx,
                       check_options(f"--op {args.op}", OPS[args.op], options))
    report = Report(meta={"package": "quenchlab", "seed": seed, "config_digest": ""},
                    run={"mode": "analyze"},
                    analyses=[{"index": 1, "name": "cli", "op": args.op,
                               "status": "ok", **result}])
    sys.stdout.buffer.write(emit_report(report, "text"))
    return 0


def _cmd_dimension(args) -> int:
    tau = args.tau if args.tau == "auto" else float(args.tau)
    result, csvs = run_op("rupture_dimension", load_field(args.field), {}, {"tau": tau})
    if not result["points"]:
        sys.stdout.write(f"tau={result['threshold']:g}: rupture set empty\n")
        return 0
    sys.stdout.write(f"tau={result['threshold']:g} points={result['points']} "
                     f"dim_P={result['fitted_dim']:.3f} residual={result['fit_residual']:.3g}\n")
    for rad, cnt in csvs["counts"][1]:
        sys.stdout.write(f"  r={rad:g} count={cnt}\n")
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
