"""One fresh interpreter driving `quenchlab.run_pipeline(quenchlab.load_config(path))`.

    python3 worker.py CONFIG RESULT [--setup-only] [--trace RUN_ID]

Run from the directory the config's relative paths refer to, with the
package's src/ on PYTHONPATH.  Writes RESULT as JSON: setup_s (import plus
load_config), and unless --setup-only, wall_s of run_pipeline and the peak
resident memory of this process.  With --trace the layers are wrapped
before load_config, the spans go to spans.json and the per-layer metrics
into RESULT.
"""

import argparse
import json
import resource
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="RUN_ID")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import quenchlab
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(quenchlab, args.trace)
    cfg = quenchlab.load_config(args.config)
    out = {"setup_s": time.perf_counter() - t0}
    if not args.setup_only:
        t1 = time.perf_counter()
        quenchlab.run_pipeline(cfg, raise_errors=False)
        out["wall_s"] = time.perf_counter() - t1
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.write("spans.json")
            out["layers"], out["ops"] = tracer.metrics()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
