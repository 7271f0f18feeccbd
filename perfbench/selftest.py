"""Self-test of the benchmark; exits 0 when every check holds.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--seed 7]

Checks that

* ``BENCHMARK.json`` names the workloads, whys and metrics (with units) that
  ``run.py`` and ``workloads.py`` define;
* two traced runs of each workload with the same code and seed, each in its
  own processes, pass every check and report exactly the same computed
  counts (``COUNTS``);
* ``run.py`` exits non-zero without printing a result in a directory that
  holds only ``BENCHMARK.json`` and the benchmark, without the package.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, OUT_DIR, PER_LAYER, ROOT
from workloads import WORKLOADS

COUNTS = ("kraus.ops_mb", "scheme.taylor_cells", "kraus.apply.n", "fock.char_weyl.n",
          "cli.artifact_bytes")


def _run(cwd: Path, workload: str, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300, check=False)


def check_manifest() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if whys != {name: w.why for name, w in WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads or whys differ from workloads.py")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end metrics differ from run.py")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer metrics differ from run.py")
    return problems


def check_counts(seed: int) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        seen = []
        for _ in range(2):
            proc = _run(ROOT, workload, seed)
            if proc.returncode != 0:
                problems.append(f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-500:]}")
                break
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                problems.append(f"{workload}: {result['failed']} of {result['attempted']} tasks failed")
            seen.append({name: result["metrics"][name]["value"] for name in COUNTS})
        if len(seen) == 2 and seen[0] != seen[1]:
            problems.append(f"{workload}: counts differ between runs: {seen[0]} vs {seen[1]}")
        print(f"{workload}: {seen[0] if seen else 'no result'}")
    return problems


def check_bare_directory() -> list[str]:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, next(iter(WORKLOADS)), 1)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run.py without the package exited {proc.returncode} printing {proc.stdout[-200:]!r}"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    problems = check_manifest() + check_bare_directory() + check_counts(args.seed)
    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
