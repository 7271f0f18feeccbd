"""Coefficient-table storage of the single-band families against dense references.

The reference builders below construct each Kraus operator as a dense matrix
from the closed forms, one operator at a time, with enough rows that no band
weight falls off the bottom of the block.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import position_kraus

from boskraus import analysis, families
from boskraus.analysis import gram_rank, thermal_estimate
from boskraus.channels import ChannelSpec, _log_binom_sqrt
from boskraus.cli import main
from boskraus.errors import AllocationTooLarge
from boskraus.fock import (
    DensityMatrix,
    TruncatedOperator,
    bandwidth,
    coherent_disc_grid,
    random_mixed_state,
    thermal_state,
    trace_distance,
)
from boskraus.families import MAX_DENSE_BYTES, BandedFamily
from boskraus.kraus import (
    apply,
    apply_matrix,
    build_continuous,
    build_discrete,
    completeness_defect,
    dual,
    rank_one_d,
    raw_completeness_defect,
    suggest_ell_max,
)
from boskraus.scheme import mix_matrix


def _d_op(kappa, ell, n_rows, n_cols):
    op = np.zeros((n_rows, n_cols), dtype=np.complex128)
    n = np.arange(max(0, ell - n_rows + 1), min(ell, n_cols - 1) + 1)
    if n.size == 0:
        return op
    logc = (
        _log_binom_sqrt(ell, n)
        - 0.5 * (n + 1) * math.log1p(kappa**2)
        - 0.5 * (ell - n) * math.log1p(kappa**-2)
    )
    op[ell - n, n] = np.exp(logc)
    return op


def _c1_op(kappa, ell, n_rows, n_cols):
    op = np.zeros((n_rows, n_cols), dtype=np.complex128)
    if kappa == 0.0:
        if ell < n_cols:
            op[0, ell] = 1.0
        return op
    if kappa == 1.0:
        if ell == 0:
            np.fill_diagonal(op, 1.0)
        return op
    m = np.arange(0, min(n_rows, n_cols - ell))
    if m.size == 0:
        return op
    logc = _log_binom_sqrt(m + ell, ell) + 0.5 * ell * math.log(1.0 - kappa**2) + m * math.log(kappa)
    op[m, m + ell] = np.exp(logc)
    return op


def _c2_op(kappa, ell, n_rows, n_cols):
    op = np.zeros((n_rows, n_cols), dtype=np.complex128)
    if kappa == 1.0:
        if ell == 0:
            np.fill_diagonal(op, 1.0)
        return op
    m = np.arange(0, min(n_cols, n_rows - ell))
    if m.size == 0:
        return op
    logc = (
        -math.log(kappa)
        + _log_binom_sqrt(m + ell, ell)
        + 0.5 * ell * math.log(1.0 - kappa**-2)
        - m * math.log(kappa)
    )
    op[m + ell, m] = np.exp(logc)
    return op


def _banded_ops(spec, ell_max, n_rows, n_cols):
    """Dense ``(ell_max + 1, n_rows, n_cols)`` reference stack."""
    if spec.family == "I":
        ops = np.zeros((1, n_rows, n_cols), dtype=np.complex128)
        np.fill_diagonal(ops[0], 1.0)
        return ops
    maker = {"D": _d_op, "C1": _c1_op, "C2": _c2_op, "A1": _c1_op}[spec.family]
    kappa = 0.0 if spec.family == "A1" else spec.kappa
    return np.stack([maker(kappa, ell, n_rows, n_cols) for ell in range(ell_max + 1)])


SPECS = [ChannelSpec("D", 0.8), ChannelSpec("D", 1.3), ChannelSpec("C1", 0.7),
         ChannelSpec("C2", 1.3), ChannelSpec("A1"), ChannelSpec("I"),
         ChannelSpec("C1", 1.0), ChannelSpec("C2", 1.0)]
SPEC_IDS = [f"{s.family}({s.kappa})" for s in SPECS]


def _ell_max(n_cut, above):
    """An index cut below the cutoff, or one above even the D band's reach."""
    return 2 * n_cut + 5 if above else n_cut // 3


def _probe(n_cut, seed):
    rng = np.random.default_rng(seed)
    half = n_cut // 2
    g = rng.normal(size=(half, half)) + 1j * rng.normal(size=(half, half))
    mat = np.zeros((n_cut, n_cut), dtype=complex)
    mat[:half, :half] = g @ g.conj().T
    mat[half:, :] += 0.01 * rng.normal(size=(n_cut - half, n_cut))  # reach the top rows too
    return mat


@pytest.mark.parametrize("above", [False, True], ids=["ell<N", "ell>N"])
@pytest.mark.parametrize("n_cut", [16, 48, 96])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_apply_matches_dense_operator_sum(spec, n_cut, above):
    fam = build_discrete(spec, _ell_max(n_cut, above), n_cut, defect_limit=2.0)
    mat = _probe(n_cut, n_cut)
    ref = np.einsum("lij,jk,lmk->im", fam.ops, mat, fam.ops.conj(), optimize=True)
    got = apply_matrix(fam, mat)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("above", [False, True], ids=["ell<N", "ell>N"])
@pytest.mark.parametrize("n_cut", [16, 48])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_table_against_extended_dense_stack(spec, n_cut, above):
    ell_max = _ell_max(n_cut, above)
    fam = build_discrete(spec, ell_max, n_cut, defect_limit=2.0)
    extended = _banded_ops(spec, ell_max, n_cut + ell_max, n_cut)
    assert np.array_equal(fam.ops, extended[:, :n_cut, :])
    assert abs(fam.completeness_defect - raw_completeness_defect(extended)) <= 1e-15
    for block in (1, n_cut // 4, n_cut):
        assert abs(completeness_defect(fam, block) - raw_completeness_defect(extended, block)) <= 1e-15


def test_len_and_dim_leave_ops_unbuilt():
    spec = ChannelSpec("D", 0.8)
    fam = build_discrete(spec, suggest_ell_max(spec, 32), 32)
    assert (len(fam), fam.dim) == (fam.index.ell_max + 1, 32)
    assert fam._ops is None
    assert fam.ops.shape == (len(fam), 32, 32)
    assert fam.ops is fam.ops  # materialized once, then cached


@pytest.mark.parametrize("spec", [ChannelSpec("D", 0.8), ChannelSpec("C1", 0.6), ChannelSpec("C2", 1.4)],
                         ids=["D", "C1", "C2"])
def test_dual_reads_the_input_coefficients(spec):
    # a family whose table is not the closed form of any spec: its dual must
    # still be kappa W^dag of exactly these operators
    fam = build_discrete(spec, 20, 24, defect_limit=2.0)
    doubled = BandedFamily(spec, 2.0 * fam.coeffs, fam.band, fam.index)
    want = spec.kappa * np.transpose(doubled.ops.conj(), (0, 2, 1))
    assert np.array_equal(dual(doubled).ops, want)


def test_large_cutoff_stays_small():
    # N=256 at the suggested index cut (553) would be a 1.8 GB dense stack
    spec = ChannelSpec("D", 0.8)
    n_cut = 256
    tracemalloc.start()
    try:
        fam = build_discrete(spec, suggest_ell_max(spec, n_cut), n_cut)
        rho = thermal_state(3.0, n_cut)
        for _ in range(3):
            rho = apply(fam, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fam._ops is None
    assert peak < 64e6
    assert fam.completeness_defect < 1e-10


def test_dense_stack_over_the_limit_raises_before_allocating(tmp_path):
    # D(0.8) at N=512 and the suggested index cut 1021: a 4 MB table whose
    # dense stack would be 1022 * 512^2 * 16 bytes = 4.29 GB.  The JSON writer
    # builds a bounded chunk of operators at a time, so only its record bounds it.
    spec = ChannelSpec("D", 0.8)
    assert suggest_ell_max(spec, 512) == 1021
    path = tmp_path / "k.json"
    tracemalloc.start()
    try:
        fam = build_discrete(spec, 1021, 512)
        assert fam.coeffs.nbytes < 5e6
        assert len(fam) * fam.dim**2 * 16 > MAX_DENSE_BYTES
        with pytest.raises(AllocationTooLarge):
            fam.ops
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert main(["kraus", "D:0.8", "--ncut", "512", "--out", str(path)]) == 0
        _, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    operators = json.loads(path.read_text())["operators"]
    assert len(operators) == 1022
    assert write_peak - held < sum(len(op["rows"]) for op in operators) * families.JSON_ENTRY_BYTES


@pytest.mark.parametrize("build,k", [
    (lambda: build_continuous(ChannelSpec("B1", noise_a=0.5), 64, 256), 40),  # 41^2 products at N=256: 1.76 GB
    (lambda: build_continuous(ChannelSpec("A2"), 128, 8), 99),  # the Gram matrix of 100^2 products: 1.6 GB
    (lambda: build_discrete(ChannelSpec("C1", 0.7), 99, 48), 99),  # the same Gram matrix off the table
], ids=["products", "gram", "banded-gram"])
def test_oversized_gram_raises_before_allocating(build, k):
    family = build()
    tracemalloc.start()
    try:
        with pytest.raises(AllocationTooLarge):
            gram_rank(family, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_extremal_with_an_oversized_block_exits_1(tmp_path, capsys):
    tracemalloc.start()
    try:
        assert main(["experiment", "extremal", "--block", "99", "--output-dir", str(tmp_path)]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert "error: the Gram matrix" in capsys.readouterr().err


@pytest.mark.parametrize("build,limit", [
    (lambda: build_continuous(ChannelSpec("A2"), 64, 32), 8 << 20),
    (lambda: build_discrete(ChannelSpec("C1", 0.7), 7, 8), 12 << 10),
], ids=["A2", "C1"])
def test_json_record_over_the_limit_raises_before_any_list(build, limit, monkeypatch, tmp_path, capsys):
    # the stack fits under the limit, but its record, at JSON_ENTRY_BYTES per entry, does not
    family = build()
    monkeypatch.setattr(families, "MAX_DENSE_BYTES", limit)
    assert len(family) * family.dim**2 * 16 <= limit
    tracemalloc.start()
    try:
        with pytest.raises(AllocationTooLarge, match="JSON record"):
            family.to_json_dict()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit
    spec = "A2" if family.spec.family == "A2" else "C1:0.7"
    assert main(["kraus", spec, "--ncut", str(family.dim), "--out", str(tmp_path / "k.json")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "k.json").exists()


@pytest.mark.parametrize("build,factored", [
    (lambda: build_continuous(ChannelSpec("A2"), 2000, 256), True),
    (lambda: build_continuous(ChannelSpec("B1", noise_a=0.5), 2000, 256), True),
    (lambda: rank_one_d(0.8, *coherent_disc_grid(6.0, 40, 50), 256, probe_check=False), True),
    (lambda: position_kraus(mix_matrix(ChannelSpec("A2")), 2000, 256), False),
    (lambda: position_kraus(mix_matrix(ChannelSpec("B1", noise_a=1.0)), 2000, 256), False),
], ids=["A2", "B1", "rank-one", "position-A2", "position-B1"])
def test_quadrature_stack_over_the_limit_raises_before_allocating(build, factored):
    # 2000 nodes at N=256: the stack would be 2000 * 256^2 * 16 bytes = 2.1 GB.  A rank-one
    # family builds from its factors, and B1 from its nodes, and each raises only when its stack is read.
    assert 2000 * 256**2 * 16 > MAX_DENSE_BYTES
    tracemalloc.start()
    try:
        if factored:
            family = build()
            with pytest.raises(AllocationTooLarge):
                family.ops
        else:
            with pytest.raises(AllocationTooLarge):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_product_stack_over_the_limit_raises_before_allocating(monkeypatch):
    # C1(0.7) at N=64: each factor's 16 operators are 1 MB, their 256 products 16.8 MB
    c1 = build_discrete(ChannelSpec("C1", 0.7), 63, 64)
    monkeypatch.setattr(families, "MAX_DENSE_BYTES", 1 << 20)
    assert 16 * 64**2 * 16 <= families.MAX_DENSE_BYTES < 256 * 64**2 * 16
    tracemalloc.start()
    try:
        with pytest.raises(AllocationTooLarge, match="256 operators"):
            analysis.product_family(c1, c1, 15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("spec", [ChannelSpec("D", 2.0), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3)])
def test_band_table_over_the_limit_raises_before_allocating(monkeypatch, spec):
    # a 4 MiB limit: 4096 rows at N=64 would take about 14.7 MB to build, 1024 rows fit
    monkeypatch.setattr(families, "MAX_DENSE_BYTES", 4 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(AllocationTooLarge, match="4096 rows at N=64"):
            build_discrete(spec, 4095, 64, defect_limit=1e300)
        _, refused = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        build_discrete(spec, 1023, 64, defect_limit=1e300)
        _, built = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert refused < 1e5
    assert built <= families.MAX_DENSE_BYTES


def test_band_table_over_the_limit_exits_1(capsys):
    # 10^7 rows at N=512 would ask for a 41 GB table
    assert main(["kraus", "C1:0.7", "--ell-max", "10000000", "--ncut", "512"]) == 1
    assert "rows at N=512" in capsys.readouterr().err


def test_quadrature_stack_over_the_limit_exits_1(capsys):
    assert main(["kraus", "B1:0.5", "--nodes", "2000", "--ncut", "256"]) == 1
    assert "error:" in capsys.readouterr().err


def reference_band_apply(coeffs, band, mat):
    """The block update ``apply_matrix`` used before it visited only the
    populated diagonals: one dense ``outer(c, c) * M[src, src]`` per ``l``."""
    n_ops, dim = coeffs.shape
    out = np.zeros((dim, dim), dtype=np.complex128)
    if band == "anti":
        for ell in range(min(n_ops, 2 * dim - 1)):
            lo, hi = max(0, ell - dim + 1), min(ell, dim - 1) + 1
            c = coeffs[ell, lo:hi]
            dst = slice(ell - hi + 1, ell - lo + 1)
            out[dst, dst] += (np.outer(c, c) * mat[lo:hi, lo:hi])[::-1, ::-1]
        return out
    ells = range(min(n_ops, dim))
    for ell in reversed(ells) if band == "lower" else ells:
        c = coeffs[ell, :dim - ell]
        low, high = slice(0, dim - ell), slice(ell, dim)
        src, dst = (high, low) if band == "upper" else (low, high)
        out[dst, dst] += np.outer(c, c) * mat[src, src]
    return out


def _banded_matrix(n_cut, width, seed, hermitian):
    """Random complex matrix with nonzero entries only at ``|m - n| <= width``,
    some of them exact zeros of either sign."""
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n_cut, n_cut)) + 1j * rng.normal(size=(n_cut, n_cut))
    if hermitian:
        mat = mat + mat.conj().T
    rows, cols = np.indices(mat.shape)
    mat[np.abs(rows - cols) > width] = 0.0
    zeros = rng.random(mat.shape) < 0.1
    mat[zeros] = -0.0 - 0.0j if seed % 2 else 0.0
    return mat


BIT_SPECS = SPECS[:3] + [ChannelSpec("C2", 1.1)] + SPECS[3:]
BIT_IDS = [f"{s.family}({s.kappa})" for s in BIT_SPECS]


@pytest.mark.parametrize("above", [False, True], ids=["ell<N", "ell>N"])
@pytest.mark.parametrize("n_cut", [16, 48, 96])
@pytest.mark.parametrize("spec", BIT_SPECS, ids=BIT_IDS)
def test_apply_is_the_block_update_bit_for_bit(spec, n_cut, above):
    fam = build_discrete(spec, _ell_max(n_cut, above), n_cut, defect_limit=2.0)
    for width in (0, 1, 5, n_cut - 1):
        for hermitian in (True, False):
            mat = _banded_matrix(n_cut, width, n_cut + width, hermitian)
            assert bandwidth(mat) == width
            got = apply_matrix(fam, mat)
            assert got.tobytes() == reference_band_apply(fam.coeffs, fam.band, mat).tobytes()


@settings(max_examples=200, deadline=None)
@given(spec=st.sampled_from(BIT_SPECS), n_cut=st.integers(2, 64), ell_frac=st.floats(0.0, 2.2),
       width_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1), hermitian=st.booleans())
def test_apply_bit_identity_property(spec, n_cut, ell_frac, width_frac, seed, hermitian):
    fam = build_discrete(spec, int(ell_frac * n_cut), n_cut, defect_limit=1e300)
    mat = _banded_matrix(n_cut, int(width_frac * (n_cut - 1)), seed, hermitian)
    assert apply_matrix(fam, mat).tobytes() == reference_band_apply(fam.coeffs, fam.band, mat).tobytes()


@settings(max_examples=100, deadline=None)
@given(spec=st.sampled_from(BIT_SPECS), n_cut=st.integers(2, 48), ell_frac=st.floats(0.0, 2.2))
def test_apply_table_is_the_summed_square_stack(spec, n_cut, ell_frac):
    # each (source, output) pair is joined by at most one operator of a band; build_discrete
    # rejects a one-level cutoff, which no state can have
    fam = build_discrete(spec, int(ell_frac * n_cut), n_cut, defect_limit=1e300)
    assert np.array_equal(fam.output_table, fam.operators(len(fam)).sum(0).T)


_KAPPAS = {"D": st.floats(0.3, 3.0), "C1": st.floats(0.1, 0.95), "C2": st.floats(1.05, 3.0)}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(_KAPPAS)), n_cut=st.integers(4, 40),
       seed=st.integers(0, 2**32 - 1))
def test_dual_is_the_adjoint_map(data, family, n_cut, seed):
    # tr(B f(A)) = kappa^-2 tr(dual(f)(B) A), since dual(f) has the operators kappa W^dag
    spec = ChannelSpec(family, data.draw(_KAPPAS[family]))
    fam = build_discrete(spec, data.draw(st.integers(0, 2 * n_cut)), n_cut, defect_limit=1e300)
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(n_cut, n_cut)) + 1j * rng.normal(size=(n_cut, n_cut)) for _ in range(2))
    lhs = np.trace(b @ apply_matrix(fam, a))
    rhs = np.trace(apply_matrix(dual(fam), b) @ a) / spec.kappa**2
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(a) * np.linalg.norm(b)


def reference_offset_step(pair, parts):
    """The offset step as it was before it became one einsum: the whole product
    ``pair * parts[..., None]``, reduced over the source axis by ``np.add.reduce``,
    which adds whole slices in turn."""
    return np.add.reduce(pair * parts[..., None], axis=-2)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(_KAPPAS)), n_cut=st.integers(2, 300),
       seed=st.integers(0, 2**32 - 1))
def test_offset_step_is_the_reduce_form_bit_for_bit(data, family, n_cut, seed):
    # every offset of act: its pair of output-table weights against the strided complex view of
    # each diagonal pair of a full-band matrix; and the population step on a real vector
    spec = ChannelSpec(family, data.draw(_KAPPAS[family]))
    fam = build_discrete(spec, data.draw(st.integers(0, 2 * n_cut)), n_cut, defect_limit=1e300)
    table, flip = fam.output_table, fam.band == "anti"
    rng = np.random.default_rng(seed)
    p = rng.random(n_cut) * (rng.random(n_cut) < 0.8)
    assert families._offset_step(table * table, p).tobytes() == reference_offset_step(table * table, p).tobytes()
    assert fam.populations(p).tobytes() == reference_offset_step(table * table, p).tobytes()
    mat = rng.normal(size=(n_cut, n_cut)) + 1j * rng.normal(size=(n_cut, n_cut))
    for k in range(n_cut):
        size = n_cut - k
        pair = table[k:, :size] * table[:size, k:] if flip else table[:size, :size] * table[k:, k:]
        parts = families._diagonal_parts(mat, k)
        assert not parts.flags.c_contiguous or size == 1
        assert families._offset_step(pair, parts).tobytes() == reference_offset_step(pair, parts).tobytes(), k


@pytest.mark.parametrize("spec", [ChannelSpec("D", 0.8), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.1)],
                         ids=["D(0.8)", "C1(0.7)", "C2(1.1)"])
def test_act_on_a_full_band_state_is_the_block_update(spec):
    n_cut = 160
    fam = build_discrete(spec, suggest_ell_max(spec, n_cut), n_cut)
    rho = random_mixed_state(7, 5, n_cut)
    assert bandwidth(rho.mat) == n_cut - 1
    assert fam.act(rho.mat).tobytes() == reference_band_apply(fam.coeffs, fam.band, rho.mat).tobytes()


_TP_KAPPAS = {"D": st.floats(0.3, 1.0), "C1": st.floats(0.1, 0.95), "C2": st.floats(1.05, 1.3)}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(_TP_KAPPAS)), seed=st.integers(0, 2**32 - 1))
def test_trace_is_preserved_on_off_diagonal_states(data, family, seed):
    spec = ChannelSpec(family, data.draw(_TP_KAPPAS[family]))
    n_cut = 48
    fam = build_discrete(spec, suggest_ell_max(spec, n_cut, 1e-13), n_cut)
    rho = np.zeros((n_cut, n_cut), dtype=complex)
    rho[:6, :6] = random_mixed_state(seed, 4, 6).mat  # rank 4 on the lowest 6 levels
    assert abs(np.trace(apply_matrix(fam, rho)) - 1.0) <= 1e-9


def test_output_table_is_built_once_on_first_apply():
    spec = ChannelSpec("D", 0.8)
    fam = build_discrete(spec, suggest_ell_max(spec, 32), 32)
    assert fam._output_table is None
    apply(fam, thermal_state(2.0, 32))
    table, weights = fam._output_table, fam._weights
    assert table.shape == (32, 32)  # one square for the D band, whatever ell_max is
    assert np.array_equal(weights, table * table)
    apply(fam, thermal_state(3.0, 32))
    apply_matrix(fam, random_mixed_state(1, 3, 32).mat)  # act leaves the cached tables as they are
    assert fam._output_table is table and fam._weights is weights
    assert fam._ops is None


def test_fixedpoint_csv_unchanged_by_the_offset_loop(tmp_path, monkeypatch, capsys):
    # five steps from a0 = 3 stop short of the fixed point (exit 4) but write the CSV
    argv = ["experiment", "fixedpoint", "--ncut", "256", "--a0", "3", "--steps", "5", "--output-dir"]
    codes = [main(argv + [str(tmp_path / "new")])]
    new_out = capsys.readouterr()
    steps = []

    def reference_iterate(family, rho, count):
        """Each step one dense block update per ``l``, then the dense symmetrize, trace and rescale,
        and ``trace_distance`` and ``thermal_estimate`` of the states."""
        a0s, dists, kept = [thermal_estimate(rho)], [], 1.0
        for _ in range(count):
            steps.append(rho.dim)
            out = reference_band_apply(family.coeffs, family.band, rho.mat)
            out = 0.5 * (out + out.conj().T)
            tr = float(np.trace(out).real)
            nxt = DensityMatrix(TruncatedOperator(out / tr), max(0.0, 1.0 - tr))
            dists.append(trace_distance(nxt, rho))
            rho = nxt
            a0s.append(thermal_estimate(rho))
            kept *= 1.0 - rho.tail_mass
        return analysis.Trajectory(rho, a0s, dists, 1.0 - kept)

    monkeypatch.setattr(analysis, "iterate", reference_iterate)
    codes.append(main(argv + [str(tmp_path / "ref")]))
    assert steps == [256] * 5
    assert codes == [4, 4]
    assert capsys.readouterr() == new_out
    csv = [(tmp_path / side / "fixedpoint.csv").read_bytes() for side in ("new", "ref")]
    assert csv[0] == csv[1]
    assert csv[0].count(b"\n") == 7  # header and steps 0..5


def reference_to_json_dict(family):
    """The JSON writer before it read the table: every operator from the dense stack ``ops``."""
    if isinstance(family.index, families.DiscreteIndex):
        index = {"kind": "discrete", "ell_max": family.index.ell_max}
    else:
        nodes = family.index.nodes
        index = {"kind": "quadrature", "nodes": nodes.real.tolist(), "weights": family.index.weights.tolist()}
        if np.iscomplexobj(nodes):  # rank-one families sit on complex nodes
            index["nodes_im"] = nodes.imag.tolist()
    operators = []
    for op in family.ops:
        rows, cols = np.nonzero(op)
        operators.append({
            "rows": rows.tolist(),
            "cols": cols.tolist(),
            "re": op[rows, cols].real.tolist(),
            "im": op[rows, cols].imag.tolist(),
        })
    return {
        "spec": family.spec.to_json_dict() if family.spec is not None else None,
        "index_kind": index,
        "dim": family.dim,
        "completeness_defect": float(family.completeness_defect),
        "origin": family.origin,
        "operators": operators,
    }


@pytest.mark.parametrize("spec,ell_max,n_cut", [
    (ChannelSpec("D", 0.8), None, 32), (ChannelSpec("D", 1.3), 10, 24), (ChannelSpec("C1", 0.7), None, 48),
    (ChannelSpec("C1", 1e-10), None, 48), (ChannelSpec("C2", 1.3), None, 32), (ChannelSpec("A1"), None, 16),
    (ChannelSpec("I"), None, 16),
], ids=["D", "D-short", "C1", "C1-underflow", "C2", "A1", "I"])
def test_json_of_a_banded_family_reads_its_table(spec, ell_max, n_cut):
    ell_max = suggest_ell_max(spec, n_cut) if ell_max is None else ell_max
    fam = build_discrete(spec, ell_max, n_cut, defect_limit=2.0)
    got = json.dumps(fam.to_json_dict(), sort_keys=True)
    assert fam._ops is None
    assert got == json.dumps(reference_to_json_dict(fam), sort_keys=True)
    if spec == ChannelSpec("C1", 1e-10):  # underflowed coefficients are dropped like any zero
        assert np.count_nonzero(fam.coeffs == 0.0) > 0
        assert len(json.loads(got)["operators"][0]["rows"]) < n_cut


@settings(max_examples=60, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(_KAPPAS)), n_cut=st.integers(4, 64),
       seed=st.integers(0, 2**32 - 1))
def test_apply_is_stable_when_the_cutoff_grows_by_16(data, family, n_cut, seed):
    # the table entries and every term that reaches the first N levels are the same at N + 16
    spec = ChannelSpec(family, data.draw(_KAPPAS[family]))
    ell_max = data.draw(st.integers(0, 2 * n_cut))
    block = data.draw(st.integers(2, n_cut))  # a state needs two levels
    state = random_mixed_state(seed, min(4, block), block).mat
    outputs = []
    for dim in (n_cut, n_cut + 16):
        mat = np.zeros((dim, dim), dtype=complex)
        mat[:block, :block] = state
        outputs.append(apply_matrix(build_discrete(spec, ell_max, dim, defect_limit=1e300), mat))
    assert np.array_equal(outputs[1][:n_cut, :n_cut], outputs[0])


def reference_raw_completeness_defect(ops, block=None):
    """``raw_completeness_defect`` by the plain contraction over the whole stack it used before."""
    s = np.einsum("lji,ljk->ik", ops.conj(), ops)
    b = len(s) // 2 if block is None else block
    return float(np.linalg.norm((s - np.eye(len(s)))[:b, :b], ord=2))


@pytest.mark.parametrize("build", [
    lambda: _banded_ops(ChannelSpec("C2", 1.3), 40, 64, 24),
    lambda: build_continuous(ChannelSpec("B1", noise_a=0.5), 48, 24).ops,
    lambda: np.random.default_rng(3).normal(size=(30, 20, 16)) + 0j,
], ids=["rectangular-band", "displacements", "random"])
def test_raw_defect_is_the_contraction(build):
    # the batched products sum in another order: a tolerance a few hundred ulps wide
    ops = build()
    for block in (None, 1, ops.shape[-1]):
        want = reference_raw_completeness_defect(ops, block)
        assert abs(raw_completeness_defect(ops, block) - want) <= 1e-13 * max(1.0, want)
