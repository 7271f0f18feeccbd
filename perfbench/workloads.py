"""The benchmark's three workloads: their inputs, tasks and checks.

A workload draws its inputs from the seed once, in ``make_inputs``.  Gains,
cutoffs and index cuts are fixed, so the seed draws only starting states and
the cost of a pass does not depend on it.  One pass runs every task of the
workload; each task rebuilds its Kraus families from their specs, so a pass
pays what the matching CLI invocations pay, minus the import.  A task returns
the list of its failed checks, empty when it passed; every tolerance is the
one the package itself uses for that quantity.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    why: str
    make_inputs: Callable[[int], dict]
    tasks: tuple


def cli(bk, argv: list[str]) -> tuple[int, str]:
    """Run ``boskraus.cli.main(argv)`` in-process; exit code and captured stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = bk.cli.main(argv)
    return code, out.getvalue()


def _exit_check(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


# fixedpoint: few large banded families, many applications

def _fixedpoint_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"a0": [float(a) for a in rng.uniform(1.0, 10.0, size=4)],
            "c1_a0": float(rng.uniform(1.0, 10.0))}


def fixedpoint_cli(bk, inputs: dict, out_dir: Path) -> list[str]:
    code, text = cli(bk, ["experiment", "fixedpoint", "--family", "D", "--kappa", "0.8",
                          "--a0", ",".join(repr(a) for a in inputs["a0"]), "--steps", "40",
                          "--ncut", "96", "--output-dir", str(out_dir)])
    failed = _exit_check(code)
    gap = re.search(r"worst_final_gap (\S+)", text)
    if gap is None or not float(gap.group(1)) <= 0.01:
        failed.append(f"worst fixed-point gap {gap and gap.group(1)} > 0.01")
    return failed


def attenuator_to_vacuum(bk, inputs: dict, out_dir: Path) -> list[str]:
    spec = bk.ChannelSpec("C1", 0.7)
    family = bk.build_discrete(spec, bk.suggest_ell_max(spec, 96), 96)
    traj = bk.iterate(family, bk.thermal_state(inputs["c1_a0"], 96), 40)
    final = traj.a0_estimates[-1]
    return [] if abs(final - 1.0) <= 1e-2 else [f"C1 final a0 {final!r} not within 1e-2 of 1"]


def amplifier_from_vacuum(bk, inputs: dict, out_dir: Path) -> list[str]:
    spec = bk.ChannelSpec("C2", 1.1)
    family = bk.build_discrete(spec, bk.suggest_ell_max(spec, 96), 96)
    traj = bk.iterate(family, bk.state_new("fock", 96, n=0), 6)
    want, worst = 1.0, 0.0
    for got in traj.a0_estimates:
        worst = max(worst, abs(got - want))
        want = bk.thermal_step(spec, want)
    return [] if worst <= 1e-9 else [f"C2 a0 estimates off thermal_step by {worst:.3e} > 1e-9"]


# oracle: the pure-Python recurrences

def _oracle_inputs(seed: int) -> dict:
    # a0 <= 3 keeps the N=48 thermal tail below 1e-14, far under the
    # 1e-5 cumulant tolerance
    return {"a0": float(np.random.default_rng(seed).uniform(1.0, 3.0))}


def _scheme_matches_closed_form(bk, spec) -> list[str]:
    scheme = bk.kraus_from_scheme(bk.mix_matrix(spec), 30, 48)
    closed = bk.build_discrete(spec, 30, 48, defect_limit=2.0)
    dev = float(np.max(np.abs(scheme.ops - closed.ops)))
    return [] if dev <= 1e-12 else [f"{spec} scheme off closed form by {dev:.3e} > 1e-12"]


def scheme_conjugator(bk, inputs: dict, out_dir: Path) -> list[str]:
    return _scheme_matches_closed_form(bk, bk.ChannelSpec("D", 0.8))


def scheme_amplifier(bk, inputs: dict, out_dir: Path) -> list[str]:
    return _scheme_matches_closed_form(bk, bk.ChannelSpec("C2", 1.3))


def quadrature_noise(bk, inputs: dict, out_dir: Path) -> list[str]:
    family = bk.build_continuous(bk.ChannelSpec("B1", noise_a=0.5), 64, 64)
    out = bk.apply(family, bk.thermal_state(inputs["a0"], 64))
    return [] if out.tail_mass <= 1e-6 else [f"B1 leaks {out.tail_mass:.3e} > 1e-6"]


def attenuator_cumulants(bk, inputs: dict, out_dir: Path) -> list[str]:
    spec = bk.ChannelSpec("C1", 0.7)
    family = bk.build_discrete(spec, bk.suggest_ell_max(spec, 48), 48)
    gamma = bk.cumulants(bk.apply(family, bk.thermal_state(inputs["a0"], 48)), 4)
    dev = abs(gamma[2, 0] - bk.thermal_step(spec, inputs["a0"]))
    return [] if dev <= 1e-5 else [f"gamma[2,0] off thermal_step by {dev:.3e} > 1e-5"]


# verify: many small families, few applications, dense-ops consumers

def _verify_inputs(seed: int) -> dict:
    return {"seed": seed}


def verify_all(bk, inputs: dict, out_dir: Path) -> list[str]:
    code, _ = cli(bk, ["experiment", "verify-all", "--ncut", "48", "--seed", str(inputs["seed"]),
                       "--output-dir", str(out_dir)])
    failed = _exit_check(code)
    path = out_dir / "verify_all.json"
    suites = json.loads(path.read_text())["invariants"] if path.exists() else {}
    failed += [f"suite {name} failed" for name, rec in suites.items() if not rec["passed"]]
    if not suites:
        failed.append("verify_all.json holds no suites")
    return failed


def extremal(bk, inputs: dict, out_dir: Path) -> list[str]:
    code, _ = cli(bk, ["experiment", "extremal", "--ncut", "64", "--output-dir", str(out_dir)])
    return _exit_check(code)


def scaling(bk, inputs: dict, out_dir: Path) -> list[str]:
    code, _ = cli(bk, ["experiment", "scaling", "--ncut", "48", "--seed", str(inputs["seed"]),
                       "--output-dir", str(out_dir)])
    return _exit_check(code)


def kraus_json(bk, inputs: dict, out_dir: Path) -> list[str]:
    code, _ = cli(bk, ["kraus", "C1:0.7", "--ncut", "48", "--out", str(out_dir / "kraus_C1.json")])
    return _exit_check(code)


WORKLOADS = {
    "fixedpoint": Workload(
        "few large banded families (D stack at ell_max 246, N=96) applied ~200 times: "
        "what coefficient tables replace",
        _fixedpoint_inputs, (fixedpoint_cli, attenuator_to_vacuum, amplifier_from_vacuum)),
    "oracle": Workload(
        "pure-Python recurrences (metaplectic Taylor box, displacement_op) with tiny banded "
        "builds: what a vectorized recurrence replaces",
        _oracle_inputs, (scheme_conjugator, scheme_amplifier, quadrature_noise, attenuator_cumulants)),
    "verify": Workload(
        "~30 small families each applied once or twice plus readers of dense ops: "
        "shows what a table-based family costs",
        _verify_inputs, (verify_all, extremal, scaling, kraus_json)),
}
