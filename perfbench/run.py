"""Benchmark for boskraus: one workload per invocation, checked and timed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fixedpoint --seed 1 --seconds 40 --trace 0

Each pass of the workload runs in a fresh process (``worker.py``) that
imports the package from this checkout's ``src/``, so the checkout is what is
measured, draws the inputs from the seed and runs every task of the workload
once.  Another pass starts while it is expected to end within half a pass of
``--seconds``, so a run lasts ``--seconds`` on average.  The BLAS thread
count is capped at the number of usable CPUs before any of them imports
numpy.

``--trace 0`` reports the end-to-end metrics of untraced passes:

* ``run_s``      wall seconds of one pass, median over the passes of the run
* ``cpu_s``      user plus system CPU seconds of one pass, median
* ``setup_s``    seconds from process spawn to ready (imports and inputs),
  median over the passes
* ``peak_rss_mb`` ``ru_maxrss`` of a pass's process in MB (10^6 bytes), median
* ``pass_frac``  tasks that passed every check, over tasks attempted.  It is
  ``1 - failed_frac``; the failed fraction itself is printed above the result.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (medians over traced passes): self seconds
``<layer>.s`` and call counts ``<layer>.n`` from ``tracer.py``, the computed
counts ``kraus.ops_mb``, ``scheme.taylor_cells`` and ``cli.artifact_bytes``,
the traced pass time ``trace.pass_s`` and ``trace.overhead_s``, the traced
minus the untraced median pass time.

The last line of standard output is the JSON result; every line above it is
for people.  The full record (environment, per-pass times and failures,
artifact hashes) goes to ``.perfbench_out/`` in the checkout, and with
``--trace 1`` the spans of the last traced pass go there too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT_DIR, ROOT
from workloads import WORKLOADS

DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_frac", "fraction"))
PER_LAYER = (
    ("kraus.build_discrete.s", "s"), ("kraus.build_discrete.n", "count"),
    ("kraus.raw_completeness_defect.s", "s"), ("kraus.ops_mb", "MB"),
    ("kraus.apply.first.s", "s"), ("kraus.apply.warm.s", "s"), ("kraus.apply.n", "count"),
    ("kraus.apply_matrix.s", "s"), ("kraus.completeness_defect.s", "s"), ("kraus.dual.s", "s"),
    ("kraus.build_continuous.s", "s"),
    ("fock.displacement_op.s", "s"), ("fock.displacement_op.n", "count"),
    ("fock.char_weyl.n", "count"), ("fock.DensityMatrix.s", "s"), ("fock.DensityMatrix.n", "count"),
    ("fock.trace_distance.s", "s"), ("fock.trace_distance.n", "count"),
    ("scheme.kraus_from_scheme.s", "s"), ("scheme.generating_form.s", "s"),
    ("scheme.taylor_cells", "count"),
    ("analysis.iterate.s", "s"), ("analysis.cumulants.s", "s"), ("analysis.gram_rank.s", "s"),
    ("analysis.simultaneous_diagonality.s", "s"), ("analysis.classicality_check.s", "s"),
    ("phasespace.s", "s"), ("verify.run_all.s", "s"), ("cli.main.s", "s"),
    ("cli.artifact_bytes", "bytes"), ("trace.pass_s", "s"), ("trace.overhead_s", "s"),
)


def blas_threads(nproc: int) -> int:
    """The caller's BLAS thread setting, capped at ``nproc``."""
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        wanted = nproc
    return max(1, min(wanted, nproc))


def git_commit() -> dict | None:
    """HEAD of the checkout and whether its tree differs from it, or None outside git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True,
                                timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return {"head": head, "dirty": bool(status.strip())}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spawn_worker(args, extra: list[str], env: dict, timeout: float) -> tuple[float, dict]:
    """Run ``worker.py`` to completion; seconds from spawn to ready, and its record."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    spawned = time.time()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["ready"] - spawned, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "boskraus" / "__init__.py").is_file():
        print(f"error: no boskraus package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads(nproc)
    env = {**os.environ, **{var: str(threads) for var in BLAS_THREAD_VARS}}
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    passes, setups = [], []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            extra = ["--trace-file", str(trace_file)] if traced else []
            setup, record = spawn_worker(args, extra, env, remaining())
            setups.append(setup)
            passes.append({**record, "traced": traced})
            elapsed = time.monotonic() - started
            # a traced run needs one pass of each kind
            if len(passes) > args.trace and elapsed + 0.5 * elapsed / len(passes) > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # a task fails on a failed check, on raising, or when its artifacts
    # differ byte for byte from the first pass (same code, same seed)
    failures, reference = [], passes[0]["tasks"]
    for i, record in enumerate(passes):
        for name, task in record["tasks"].items():
            problems = task["problems"] + (["artifacts differ from the first pass"]
                                           if task["sha256"] != reference[name]["sha256"] else [])
            task["failed"] = bool(problems)
            failures += [f"pass {i} {name}: {problem}" for problem in problems]
    attempted = sum(len(record["tasks"]) for record in passes)
    failed = sum(task["failed"] for record in passes for task in record["tasks"].values())
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    run_q = quartiles([p["run_s"] for p in plain])
    cpu_q = quartiles([p["cpu_s"] for p in plain])
    setup_q = quartiles(setups)
    peak_rss_mb = statistics.median(p["peak_rss_mb"] for p in plain)

    if args.trace:
        pass_s = statistics.median(p["run_s"] for p in traced)
        computed = {
            "cli.artifact_bytes": statistics.median(sum(t["bytes"] for t in p["tasks"].values()) for p in traced),
            "trace.pass_s": pass_s,
            "trace.overhead_s": pass_s - run_q[1],
        }
        metrics = {name: computed[name] if name in computed
                   else statistics.median(p["layers"][name] for p in traced) for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
    else:
        metrics = {"run_s": run_q[1], "cpu_s": cpu_q[1], "setup_s": setup_q[1],
                   "peak_rss_mb": peak_rss_mb, "pass_frac": 1.0 - failed / attempted}
        units = dict(END_TO_END)

    env_record = {"nproc": nproc, "blas_threads": threads, **passes[0]["env"], "cpu_model": cpu_model(),
                  "git_commit": git_commit()}
    hashes = {f: h for task in reference.values() for f, h in task["sha256"].items()}
    full = {"workload": args.workload, "why": WORKLOADS[args.workload].why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env_record, "setup_s_samples": setups,
            "passes": passes, "artifact_sha256": hashes, "metrics": metrics}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {WORKLOADS[args.workload].why}")
    print("env " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    for name, (q1, med, q3), n in (("run_s", run_q, len(plain)), ("cpu_s", cpu_q, len(plain)),
                                   ("setup_s", setup_q, len(setups))):
        print(f"{name:<12} median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n {n}")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"failed_frac  {failed / attempted:.4f}  ({failed} of {attempted} tasks)")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, digest in sorted(hashes.items()):
        print(f"sha256 {digest}  {name}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:<36} {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
