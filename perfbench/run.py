#!/usr/bin/env python3
"""Walk-serving benchmark: Table 6 cells on the lj analogue, timed from the driver.

One run measures one workload, in a fresh process:

1. set-up, once: start a local[nproc] SparkSession and build the lj
   analogue;
2. a reference: the same system's engine run in-process on the same
   queries, outside the clock and outside set-up;
3. eight discarded warm-up cells, which end set-up (``setup_s`` is the
   session start, the graph build and the warm-up);
4. a closed loop with one client for ``--seconds``: each cell clears the
   sampler tables, calls ``run_system_spark`` and is checked against the
   graph and the reference.

``--trace 1`` alternates traced and untraced cells. Traced cells record
spans around the runner's public functions on the driver; one partition's
queries are replayed in-process with the engine's timers and RNG/UDF probes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload node2vec-lj --seed 1 --seconds 25 --trace 0

The last line of standard output is the JSON result; the spans and every
cell are written to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
RESULTS = ROOT / "perfbench" / "results"


def configure(cores: int) -> None:
    """Environment for the driver, the JVM and the Python workers.

    Spark and Python temporary files stay under ``perfbench/.work``, which
    starts empty so that no run sees what an earlier one left; the workers
    import the program from ``src``.
    """
    shutil.rmtree(WORK, ignore_errors=True)
    for sub in ("spark", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark")
    # Every JVM the launcher starts: no hsperfdata files in the system /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={WORK / 'tmp'}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = f"--master local[{cores}] --driver-memory 1g pyspark-shell"
    sys.path.insert(0, str(SRC))


def report(name: str, value: float, unit: str, extra: dict | None = None) -> None:
    note = "  " + " ".join(f"{k}={v}" for k, v in extra.items()) if extra else ""
    print(f"{name:<36} {value:>16.6g} {unit}{note}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's source {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    configure(cores)
    import serve

    if args.workload not in serve.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(serve.WORKLOADS)}")
    run = serve.Run(args.workload, args.seed, cores, WORK)
    try:
        result = run.execute(args.seconds, trace=bool(args.trace))
        env = serve.environment(run.spark, cores, run.system, run.g, run.app, run.sources, args.seed, ROOT)
    finally:
        run.stop()

    records = result["records"]
    failed = sum(1 for r in records if r["errors"])
    metrics = run.per_layer(result) if args.trace else run.end_to_end(result)
    env.update(workload=args.workload, seconds=args.seconds, trace=args.trace)

    for key, value in env.items():
        print(f"# {key}: {value}")
    for name, (value, unit, *extra) in metrics.items():
        report(name, value, unit, *extra)
    report("failed_frac", failed / len(records), "ratio",
           {"failed": failed, "attempted": len(records)})
    for r in records:
        if r["errors"]:
            print(f"# failed cell {r['cell']}: {'; '.join(r['errors'])}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "environment": env,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
        "end_state": result["end"],
        "cells": [{k: r[k] for k in ("cell", "traced", "seconds", "moves", "errors") if k in r}
                  for r in records],
        "spans": run.tracer.spans,
    }, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
