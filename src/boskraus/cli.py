"""Command-line surface: build families, compose channels, run experiments.

Channel arguments parse as ``FAMILY[:kappa[:a]]`` (``FAMILY[:a]`` for a
family without a gain).  ``compose OUTER INNER`` follows the
composition-table convention: the right argument acts first.
``experiment NAME -h`` lists the options that experiment takes.
Artifacts land in ``--output-dir`` or ``$BK_OUTPUT_DIR`` (default: cwd),
written atomically, with numeric fields at 12 significant digits.

Exit codes: 2 usage error (an option the command does not take, say),
completeness defect too large or no Kraus list for the family; 3 unsupported
composition pair; 4 invariant violation inside an experiment; 1 other errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import analysis, kraus, phasespace
from .channels import _KAPPA_FAMILIES, ChannelSpec, parse_channel
from .errors import BoskrausError, DefectTooLarge, InvalidParameter, UnsupportedFamily, UnsupportedPair
from .fock import DEFAULT_TAIL_TOL, state_new

SCHEMA_VERSION = 1


def _round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    return value


def _emit_json(payload: dict, path: str | None = None) -> None:
    payload = {"schema": SCHEMA_VERSION, **_round12(payload)}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-boskraus-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _output_dir(args) -> str:
    return args.output_dir or os.environ.get("BK_OUTPUT_DIR", ".")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_kraus(args) -> int:
    spec = parse_channel(args.channel)
    build, size = kraus.builder(spec)
    other = "nodes" if size == "ell_max" else "ell_max"
    if getattr(args, other) is not None:
        raise InvalidParameter(f"family {spec.family} takes no --{other.replace('_', '-')}")
    try:
        count = getattr(args, size)
        if count is None:
            count = 64 if size == "nodes" else kraus.suggest_ell_max(spec, args.ncut)
        family = build(spec, count, args.ncut)
    except (UnsupportedFamily, DefectTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"completeness_defect {_fmt(family.completeness_defect)}")
    _emit_json(family.to_json_dict(), args.out)
    return 0


def cmd_compose(args) -> int:
    outer = parse_channel(args.outer)
    inner = parse_channel(args.inner)
    try:
        composite = phasespace.table2_compose(outer, inner, args.lam, args.theta)
    except UnsupportedPair as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    payload = {"composite": composite.to_json_dict()}
    if args.verify:
        # the mismatch between the pair: squeeze(lam), or for an A2 outer squeeze(sqrt(lam)) R(theta)^T
        g = phasespace.squeeze(args.lam).s
        if outer.family == "A2":
            g = phasespace.squeeze(np.sqrt(args.lam)).s @ phasespace.rotation(args.theta).s.T
        mismatch = phasespace.XYPair(g, np.zeros((2, 2)))
        xy = phasespace.compose_xy(phasespace.compose_xy(phasespace.canonical_xy(inner), mismatch),
                                   phasespace.canonical_xy(outer))
        direct = phasespace.classify(xy)
        payload["verify"] = {
            "classified": direct.to_json_dict(),
            "family_match": direct.family == composite.family,
            "kappa_delta": abs((direct.kappa or 0.0) - (composite.kappa or 0.0)),
            "a_delta": abs(direct.noise_a - composite.noise_a),
        }
    print(str(composite))
    _emit_json(payload, args.out)
    return 0


def _experiment_fixedpoint(args, out_dir: str) -> int:
    kappa = 0.8 if args.kappa is None and args.family in _KAPPA_FAMILIES else args.kappa
    spec = ChannelSpec(args.family, kappa)
    ell = kraus.suggest_ell_max(spec, args.ncut)
    family = kraus.build_discrete(spec, ell, args.ncut)
    rows = ["a0_input,step,a0_estimate,trace_distance"]
    final = []
    for a0 in args.a0:
        rho = state_new("thermal", args.ncut, a0=a0)
        traj = analysis.iterate(family, rho, args.steps)
        for step in range(args.steps + 1):
            dist = traj.step_distances[step - 1] if step else 0.0
            rows.append(f"{_fmt(a0)},{step},{_fmt(traj.a0_estimates[step])},{_fmt(dist)}")
        final.append(traj.a0_estimates[-1])
        if traj.lost_mass > DEFAULT_TAIL_TOL:
            print(f"truncation: a0 {_fmt(a0)} lost {traj.lost_mass:.3e} of its mass past --ncut {args.ncut} "
                  f"over {args.steps} steps", file=sys.stderr)
    _atomic_write(os.path.join(out_dir, "fixedpoint.csv"), "\n".join(rows) + "\n")
    target = analysis.fixed_point(spec)
    if target is not None:
        worst = max(abs(f - target) for f in final)
        print(f"fixed_point target {_fmt(target)} worst_final_gap {_fmt(worst)}")
        if worst > 0.01:
            print("invariant violated: fixedpoint-convergence", file=sys.stderr)
            return 4
    return 0


def _experiment_zeno(args, out_dir: str) -> int:
    if min(args.interrupts) < 1:
        raise InvalidParameter("--interrupts needs at least one positive segment count")
    rows = ["mode,n_interrupts,step,kappa"]
    for n in args.interrupts:
        for step in range(n + 1):
            val = analysis.zeno_kappa(args.mode, n, step, args.total)
            rows.append(f"{args.mode},{n},{step},{_fmt(val)}")
    _atomic_write(os.path.join(out_dir, "zeno.csv"), "\n".join(rows) + "\n")
    return 0


def _experiment_extremal(args, out_dir: str) -> int:
    report = {}
    for text in args.channels:
        spec = parse_channel(text)
        ell = max(kraus.suggest_ell_max(spec, args.ncut), args.block)
        family = kraus.build_discrete(spec, ell, args.ncut)
        rep = analysis.gram_rank(family, args.block)
        report[text] = {
            "block": rep.block,
            "numerical_rank": rep.numerical_rank,
            "smallest_over_largest": float(rep.singular_values[-1] / rep.singular_values[0]),
        }
        if rep.numerical_rank != rep.block:
            print(f"invariant violated: extremality({text})", file=sys.stderr)
            _emit_json({"gram": report}, os.path.join(out_dir, "extremal.json"))
            return 4
    _emit_json({"gram": report}, os.path.join(out_dir, "extremal.json"))
    return 0


def _experiment_scaling(args, out_dir: str) -> int:
    rng = np.random.default_rng(args.seed)
    grid = rng.uniform(-1.2, 1.2, size=(max(args.grid, 0), 2)) @ np.array([1.0, 1.0j])
    report, bad = {}, None
    probes = {"C2": state_new("fock", args.ncut, n=1), "C1": state_new("coherent", args.ncut, alpha=0.7),
              "D": state_new("coherent", args.ncut, alpha=0.5 + 0.3j)}
    for text in args.channels:
        spec = parse_channel(text)
        out = analysis.classicality_check(spec, [probes.get(spec.family, probes["C2"])], grid)
        report[text] = [{"check": r.check, "max_deviation": r.max_deviation, "passed": r.passed}
                        for r in out]
        if not all(r.passed for r in out):
            bad = text
    _emit_json({"scaling": report}, os.path.join(out_dir, "scaling.json"))
    if bad is not None:
        print(f"invariant violated: scaling({bad})", file=sys.stderr)
        return 4
    return 0


def _experiment_verify_all(args, out_dir: str) -> int:
    from .verify import run_all

    results = run_all(args.ncut, args.seed)
    _emit_json({"invariants": results}, os.path.join(out_dir, "verify_all.json"))
    failures = [name for name, rec in results.items() if not rec["passed"]]
    for name in failures:
        print(f"invariant violated: {name}", file=sys.stderr)
    if failures:
        return 4
    print(f"verified {len(results)} invariant suites")
    return 0


def _csv_fields(text: str) -> list[str]:
    fields = text.split(",")
    if "" in fields:
        raise argparse.ArgumentTypeError(f"empty field in {text!r}")
    return fields


def _csv_floats(text: str) -> list[float]:
    return [float(v) for v in _csv_fields(text)]


def _csv_ints(text: str) -> list[int]:
    return [int(v) for v in _csv_fields(text)]


def _cutoff(text: str) -> int:
    if int(text) < 8:
        raise argparse.ArgumentTypeError("the cutoff must be at least 8")
    return int(text)


_NCUT = {"type": _cutoff, "default": 48}
_SEED = {"type": int, "default": 0}
_CHANNELS = {"type": lambda s: s.split(","), "default": ["D:0.5", "C1:0.7", "C2:1.3"]}
# name -> (runner, {dest: add_argument keywords} of each option the runner reads but --output-dir)
_EXPERIMENTS = {
    "fixedpoint": (_experiment_fixedpoint, dict(
        family={"default": "D"}, kappa={"type": float, "help": "gain (default 0.8 for D, C1 and C2)"},
        a0={"type": _csv_floats, "default": [1.0, 3.0, 7.0, 10.0]}, steps={"type": int, "default": 40}, ncut=_NCUT)),
    "zeno": (_experiment_zeno, dict(
        mode={"default": "attenuator", "choices": ["attenuator", "amplifier"]},
        interrupts={"type": _csv_ints, "default": [2, 3, 5, 10]}, total={"type": float})),
    "extremal": (_experiment_extremal, dict(channels=_CHANNELS, block={"type": int, "default": 6}, ncut=_NCUT)),
    "scaling": (_experiment_scaling, dict(channels=_CHANNELS, grid={"type": int, "default": 25}, ncut=_NCUT,
                                          seed=_SEED)),
    "verify-all": (_experiment_verify_all, dict(ncut=_NCUT, seed=_SEED)),
}


def cmd_experiment(args) -> int:
    runner, options = _EXPERIMENTS[args.name]
    parser = argparse.ArgumentParser(prog=f"boskraus experiment {args.name}")
    for dest, keywords in options.items():
        parser.add_argument(f"--{dest}", **keywords)
    parser.add_argument("--output-dir", default=None)
    opts = parser.parse_args(args.options)
    return runner(opts, _output_dir(opts))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boskraus", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_kraus = sub.add_parser("kraus", help="build and serialize a Kraus family")
    p_kraus.add_argument("channel", help="FAMILY[:kappa[:a]]")
    p_kraus.add_argument("--ncut", type=_cutoff, default=32)
    p_kraus.add_argument("--ell-max", type=int, default=None)
    p_kraus.add_argument("--nodes", type=int, default=None, help="quadrature nodes of A2 and B1 (default 64)")
    p_kraus.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_kraus.set_defaults(func=cmd_kraus)

    p_comp = sub.add_parser("compose", help="compose two channels (right argument acts first)")
    p_comp.add_argument("outer")
    p_comp.add_argument("inner")
    p_comp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_comp.add_argument("--theta", type=float, default=0.0)
    p_comp.add_argument("--verify", action="store_true")
    p_comp.add_argument("--out", default=None)
    p_comp.set_defaults(func=cmd_compose)

    p_exp = sub.add_parser("experiment", help="run a canned experiment, writing CSV/JSON artifacts")
    p_exp.add_argument("name", choices=_EXPERIMENTS)
    p_exp.add_argument("options", nargs=argparse.REMAINDER, help="options of that experiment, listed by its -h")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoskrausError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
