"""Run one pass of a workload in this fresh process; print its record as JSON.

Started by ``run.py`` with the BLAS thread cap already in the environment.
The process imports the package from ``src/`` of the checkout that holds this
file, draws the workload's inputs from the seed, notes the wall-clock time it
became ready, and runs every task of the workload once, traced when
``--trace-file`` is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"  # pass directories here, results and spans from run.py too


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    # import everything the tasks import lazily, so the pass pays no import
    import numpy
    import scipy
    import scipy.sparse  # noqa: F401

    import boskraus
    import boskraus.cli
    import boskraus.verify  # noqa: F401

    if Path(boskraus.__file__).resolve().parent != ROOT / "src" / "boskraus":
        raise ImportError(f"boskraus was imported from {boskraus.__file__}, not from this checkout")
    return boskraus, {"numpy": numpy.__version__, "scipy": scipy.__version__}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_tasks(workload, bk, inputs: dict, pass_dir: Path) -> dict:
    """Run every task of the workload in its own directory under ``pass_dir``; its failed checks."""
    problems = {}
    for task in workload.tasks:
        try:
            problems[task.__name__] = task(bk, inputs, pass_dir / task.__name__)
        except Exception as exc:  # a raising task is counted as failed, and the pass goes on
            traceback.print_exc(file=sys.stderr)
            problems[task.__name__] = [f"raised {type(exc).__name__}: {exc}"]
    return problems


def _artifacts(task_dir: Path) -> dict:
    """The sha256 of every file a task wrote, and their total size."""
    files = sorted(p for p in task_dir.iterdir() if p.is_file())
    return {"sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
            "bytes": sum(p.stat().st_size for p in files)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-file", type=Path, default=None)
    args = parser.parse_args(argv)

    bk, versions = _import_package()
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    ready = time.time()
    tracer = Tracer() if args.trace_file is not None else None
    pass_dir = OUT_DIR / f"pass-{os.getpid()}"
    try:
        for task in workload.tasks:
            (pass_dir / task.__name__).mkdir(parents=True)
        t0, c0 = time.perf_counter(), _cpu_seconds()
        with tracer.installed() if tracer else nullcontext():
            problems = _run_tasks(workload, bk, inputs, pass_dir)
        run_s, cpu_s = time.perf_counter() - t0, _cpu_seconds() - c0
        tasks = {name: {"problems": found, **_artifacts(pass_dir / name)} for name, found in problems.items()}
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    if tracer is not None:
        args.trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                               "spans": tracer.to_json()}) + "\n")
    print(json.dumps({
        "ready": ready,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "tasks": tasks,
        "layers": tracer.summary() if tracer else None,
        "env": {"python": sys.version.split()[0], **versions},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
