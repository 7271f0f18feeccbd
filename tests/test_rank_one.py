"""Rank-one families (A2 and ``rank_one_d``) held as kets, bra rows and scales.

The dense references below are the stacks these families were stored as
before: one outer product per node, scaled by the square root of its weight.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import StoredDefectFamily, read_record
from test_analysis import reference_simultaneous_diagonality
from test_family_kinds import KINDS, dense_action

from boskraus.analysis import gram_rank, simultaneous_diagonality
from boskraus.channels import ChannelSpec
from boskraus.errors import DefectTooLarge
from boskraus.fock import coherent_amplitudes, coherent_disc_grid, hermite_psi_table, random_mixed_state, thermal_state
from boskraus.kraus import (
    RankOneFamily,
    apply,
    apply_matrix,
    build_continuous,
    hermite_quadrature,
    rank_one_d,
)


def reference_a2_ops(node_count, n_cut):
    x, w = hermite_quadrature(node_count)
    ops = coherent_amplitudes(x / np.sqrt(2.0), n_cut)[:, :, None] * hermite_psi_table(n_cut - 1, x).T[:, None, :]
    ops *= np.sqrt(w)[:, None, None]
    return ops


def reference_rank_one_ops(kappa, alphas, weights, n_cut):
    ket_scale = 1.0 / np.sqrt(1.0 + kappa**-2)
    bra_scale = 1.0 / np.sqrt(1.0 + kappa**2)
    kets = coherent_amplitudes(alphas.ravel() * ket_scale, n_cut)
    bras = coherent_amplitudes(np.conj(alphas.ravel()) * bra_scale, n_cut)
    ops = kets[:, :, None] * bras.conj()[:, None, :]
    ops *= (bra_scale * np.sqrt(weights.ravel() / np.pi))[:, None, None]
    return ops


@pytest.mark.parametrize("node_count,n_cut", [(32, 8), (64, 32), (96, 48)])
def test_a2_stack_is_the_dense_reference(node_count, n_cut):
    family = build_continuous(ChannelSpec("A2"), node_count, n_cut)
    want = reference_a2_ops(node_count, n_cut)
    assert family.ops.tobytes() == want.tobytes()
    dense = StoredDefectFamily(family.spec, want, family.index, family.origin, family.completeness_defect)
    assert json.dumps(family.to_json_dict()) == json.dumps(dense.to_json_dict())


@pytest.mark.parametrize("kappa,n_cut", [(0.8, 16), (1.3, 24)])
def test_rank_one_stack_is_the_dense_reference(kappa, n_cut):
    alphas, weights = coherent_disc_grid(6.0, 8, 10)
    family = rank_one_d(kappa, alphas, weights, n_cut, probe_check=False)
    assert family.ops.tobytes() == reference_rank_one_ops(kappa, alphas, weights, n_cut).tobytes()


@settings(max_examples=30, deadline=None)
@given(nodes=st.integers(32, 128), n_cut=st.integers(8, 64), seed=st.integers(0, 2**16),
       kind=st.sampled_from(["A2", "rank-one"]))
def test_act_matches_the_dense_action(nodes, n_cut, seed, kind):
    if kind == "A2":
        family = build_continuous(ChannelSpec("A2"), nodes, n_cut)
    else:
        family = rank_one_d(0.8, *coherent_disc_grid(6.0, max(nodes // 8, 1), 8), n_cut, probe_check=False)
    mat = random_mixed_state(seed, 4, n_cut).mat
    assert np.max(np.abs(apply_matrix(family, mat) - dense_action(family.ops, mat))) <= 1e-13


@pytest.mark.parametrize("kind,want", [("A2", (True, "position")), ("rank-one", (False, "none")),
                                       ("scheme-position-A2", (True, "position"))])
def test_diagonality_verdict_of_the_factors(kind, want):
    # the record read back from JSON, and the scheme's A2 oracle, are dense stacks: the reference
    # tests them product by product, and a rank-one family answers from its factors
    family = KINDS[kind]()
    loaded = read_record(json.loads(json.dumps(family.to_json_dict())))
    assert reference_simultaneous_diagonality(family) == reference_simultaneous_diagonality(loaded) == want
    if isinstance(family, RankOneFamily):
        assert simultaneous_diagonality(family) == want


def test_a2_build_and_apply_hold_no_stack():
    # the dense stack of 256 nodes at N=128 is 67 MB
    tracemalloc.start()
    try:
        family = build_continuous(ChannelSpec("A2"), 256, 128)
        out = apply(family, thermal_state(2.0, 128))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert family._ops is None
    assert peak < 16e6
    assert abs(np.trace(out.mat).real - 1.0) < 1e-12


def test_rank_one_d_at_256_levels_on_a_64x64_grid():
    # the dense stack of 4096 nodes at N=256 would be 4.3 GB, past MAX_DENSE_BYTES
    tracemalloc.start()
    try:
        family = rank_one_d(0.8, *coherent_disc_grid(6.0, 64, 64), 256, probe_check=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(family), family.dim) == (4096, 256)
    assert family._ops is None
    assert peak < 200e6


def test_rank_one_d_refuses_a_grid_that_misses_the_completeness():
    # a disc of radius 6 resolves only the low levels of 256: it passes the thermal probe, at a defect of 1.0
    with pytest.raises(DefectTooLarge, match="defect 1.000e"):
        rank_one_d(0.8, *coherent_disc_grid(6.0, 64, 64), 256)


def test_a2_gram_rank_builds_one_operator():
    # the whole stack is 1024 * 512^2 * 16 bytes = 4.3 GB, past MAX_DENSE_BYTES; one operator is 4.2 MB
    fam = build_continuous(ChannelSpec("A2"), 1024, 512)
    tracemalloc.start()
    try:
        report = gram_rank(fam, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.numerical_rank == 1 and fam._ops is None
    assert peak < 16e6
