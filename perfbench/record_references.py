"""Store the reference report.json of every workload input.

    python3 perfbench/record_references.py

Run once at the commit the benchmark was defined on; `run.py` reports
report_drift against these files, found by the digest of the config text.
Re-recording them resets the baseline.
"""

import os
import shutil
import time

import run
import workloads as W


def main():
    for workload in W.WORKLOADS:
        shutil.rmtree(os.path.join(run.HERE, "references", workload), ignore_errors=True)
        os.makedirs(os.path.join(run.HERE, "references", workload))
        for seed in range(W.VARIANTS):
            work = os.path.join(run.WORK, f"reference-{workload}-{seed:02d}")
            deadline = time.perf_counter() + run.RUN_BUDGET
            config = run.prepare(workload, seed, work, deadline)
            if config is None:
                raise SystemExit(f"{workload} seed {seed}: input preparation failed")
            with open(config, encoding="utf-8") as fh:
                target = W.reference_path(run.HERE, workload, fh.read())
            if not os.path.exists(target):
                rep = os.path.join(work, "rep")
                os.makedirs(rep)
                if run.run_worker(config, rep, deadline) is None:
                    raise SystemExit(f"{workload} seed {seed} failed")
                shutil.copyfile(os.path.join(rep, "out", "report.json"), target)
                print(f"{workload} seed {seed:02d} -> {os.path.basename(target)}", flush=True)
            shutil.rmtree(work)


if __name__ == "__main__":
    main()
