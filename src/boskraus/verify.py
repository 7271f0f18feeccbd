"""Invariant battery behind ``boskraus experiment verify-all``.

Each suite exercises one package-level invariant on a small but
representative configuration and reports its worst deviation against the
tolerance it must meet.
"""

from __future__ import annotations

import numpy as np

from . import analysis, kraus, phasespace
from .channels import ChannelSpec
from .fock import DensityMatrix, TruncatedOperator, coherent_state, random_mixed_state, thermal_state, trace_distance


def _family(spec: ChannelSpec, n_cut: int) -> kraus.KrausFamily:
    build, size = kraus.builder(spec)
    return build(spec, 2 * n_cut if size == "nodes" else kraus.suggest_ell_max(spec, n_cut, 1e-13), n_cut)


def run_all(n_cut: int = 48, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    results = {}

    def record(name: str, dev: float, tol: float):
        results[name] = {"max_deviation": float(dev), "tolerance": tol, "passed": bool(dev < tol)}

    # trace preservation: probes small enough that the amplifying members
    # keep their output inside the cutoff
    dev = 0.0
    block = max(6, n_cut // 6)
    small = np.zeros((n_cut, n_cut), dtype=complex)
    small[:block, :block] = random_mixed_state(seed + 1, 4, block).mat
    for spec in (ChannelSpec("D", 0.8), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3),
                 ChannelSpec("A1"), ChannelSpec("A2"), ChannelSpec("B1", noise_a=0.5)):
        fam = _family(spec, n_cut)
        dev = max(dev, abs(np.trace(kraus.apply_matrix(fam, small)).real - 1.0))
    record("trace-preservation", dev, 1e-6)

    # completeness defects at recommended sizes
    dev = max(_family(ChannelSpec("D", 0.8), n_cut).completeness_defect,
              _family(ChannelSpec("C1", 0.9), n_cut).completeness_defect,
              _family(ChannelSpec("C2", 1.5), n_cut).completeness_defect)
    record("completeness-defect", dev, 1e-6)

    # duality: kappa T^dag = T(1/kappa), kappa A^dag = B(1/kappa)
    # (entrywise identities; the short index cut needs no completeness)
    dev = 0.0
    for k in (0.5, 1.25):
        d1 = kraus.build_discrete(ChannelSpec("D", k), 12, n_cut, defect_limit=2.0)
        d2 = kraus.build_discrete(ChannelSpec("D", 1.0 / k), 12, n_cut, defect_limit=2.0)
        dev = max(dev, float(np.max(np.abs(kraus.dual(d1).ops - d2.ops))))
    a = kraus.build_discrete(ChannelSpec("C2", 1.6), 12, n_cut, defect_limit=2.0)
    b = kraus.build_discrete(ChannelSpec("C1", 1.0 / 1.6), 12, n_cut, defect_limit=2.0)
    dev = max(dev, float(np.max(np.abs(kraus.dual(a).ops - b.ops))))
    record("duality", dev, 1e-12)

    # semigroup on a random probe
    rho = random_mixed_state(seed + 2, 4, block)
    rho_big = np.zeros((n_cut, n_cut), dtype=complex)
    rho_big[:block, :block] = rho.mat
    rho_pad = DensityMatrix(TruncatedOperator(rho_big), 0.0)
    one = kraus.apply(_family(ChannelSpec("C1", 0.8), n_cut), rho_pad)
    two = kraus.apply(_family(ChannelSpec("C1", 0.9), n_cut), one)
    direct = kraus.apply(_family(ChannelSpec("C1", 0.72), n_cut), rho_pad)
    record("semigroup-attenuator", trace_distance(two, direct), 1e-9)

    # composition table vs phase-space classification
    dev_k, dev_a = 0.0, 0.0
    draws = [(ChannelSpec("C2", 1.0 + rng.uniform(0.1, 0.9)), ChannelSpec("C1", rng.uniform(0.3, 0.9)))
             for _ in range(50)]
    draws += [(ChannelSpec("D", rng.uniform(0.5, 2.0)), ChannelSpec("D", rng.uniform(0.5, 2.0)))
              for _ in range(50)]
    families_ok = True
    for s2, s1 in draws:
        if s1.family == "D" and abs(s1.kappa * s2.kappa - 1.0) < 0.05:
            continue
        want = phasespace.table1_compose(s2, s1)
        got = phasespace.classify(phasespace.compose_xy(phasespace.canonical_xy(s1),
                                                        phasespace.canonical_xy(s2)))
        families_ok &= got.family == want.family
        dev_k = max(dev_k, abs((got.kappa or 0.0) - (want.kappa or 0.0)))
        dev_a = max(dev_a, abs(got.noise_a - want.noise_a))
    record("composition-table", max(dev_k, dev_a) if families_ok else np.inf, 1e-9)

    # Kraus vs covariance-map moments on a thermal probe
    dev = 0.0
    g_in = phasespace.moments_from_density(thermal_state(2.0, n_cut))
    for spec in (ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3), ChannelSpec("D", 0.8)):
        out = kraus.apply(_family(spec, n_cut), thermal_state(2.0, n_cut))
        want = phasespace.covariance_map(phasespace.canonical_xy(spec), g_in)
        got = phasespace.moments_from_density(out)
        dev = max(dev, float(np.max(np.abs(got.cov - want.cov))))
    record("moments-consistency", dev, 1e-5)

    # simultaneous diagonality of W^dag W
    ok = True
    for spec in (ChannelSpec("D", 0.8), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3)):
        flag, basis = analysis.simultaneous_diagonality(_family(spec, n_cut))
        ok &= flag and basis == "fock"
    flag, basis = analysis.simultaneous_diagonality(_family(ChannelSpec("A2"), n_cut))
    ok &= flag and basis == "position"
    record("simultaneous-diagonality", 0.0 if ok else np.inf, 1.0)

    # attenuator coherent-state covariance: coherent -> coherent
    fam = _family(ChannelSpec("C1", 0.6), n_cut)
    out = kraus.apply(fam, coherent_state(1.1 + 0.4j, n_cut))
    record("attenuator-coherent", trace_distance(out, coherent_state(0.6 * (1.1 + 0.4j), n_cut)), 1e-8)

    return results
