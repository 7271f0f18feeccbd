"""B1 as a streamed displacement family: the real-arithmetic action on the nonnegative nodes
against the dense complex action it replaced, its memory, its operators built alone, and the
mirror facts it rests on."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import StoredDefectFamily, read_record
from test_analysis import reference_simultaneous_diagonality
from test_displacement_stack import reference_table_displacement_op, stack_of

from boskraus.analysis import gram_rank, simultaneous_diagonality
from boskraus.channels import ChannelSpec
from boskraus.errors import InvalidParameter
from boskraus.fock import _gauss_hermite, random_mixed_state
from boskraus.kraus import apply, apply_matrix, build_continuous, completeness_defect

ACT_RTOL = 1e-13  # of the largest output entry: the streamed sum groups its terms in another order


def reference_dense_act(ops: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``sum_l W_l M W_l^dag`` by the two flattened complex GEMMs of the dense stack, as B1 acted before."""
    n_ops, n, _ = ops.shape
    tmp = (ops.reshape(n_ops * n, n) @ mat).reshape(n_ops, n, n)
    left = np.ascontiguousarray(tmp.transpose(1, 0, 2)).reshape(n, n_ops * n)
    right = ops.conj().transpose(0, 2, 1).reshape(n_ops * n, n)
    return left @ right


class TestMirrorFacts:
    def test_nodes_and_weights_are_mirror_images_to_the_bit(self):
        for count in [*range(32, 320), 511, 512, 1024, 2001]:
            x, w = _gauss_hermite(count)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), count
            if count % 2:  # the zero node is +0.0, the point the dense build computed
                assert x[count // 2] == 0.0 and not np.signbit(x[count // 2]), count

    def test_mirror_operator_is_the_transpose_bit_for_bit(self, rng):
        points = np.concatenate([[0.0], np.abs(2.0 * rng.normal(size=9))])
        for n_cut in (2, 7, 48):
            plus, minus = stack_of(points, n_cut), stack_of(-points[1:], n_cut)
            assert minus.tobytes() == np.ascontiguousarray(np.swapaxes(plus[1:], 1, 2)).tobytes()

    def test_real_kernel_is_the_real_part_of_the_reference(self, rng):
        points = np.concatenate([[0.0], np.abs(2.0 * rng.normal(size=9))])
        for n_cut in (2, 3, 16, 97):
            real = stack_of(points, n_cut)
            want = np.stack([reference_table_displacement_op(x, n_cut).mat for x in points])
            assert real.dtype == np.float64 and not np.any(want.imag)
            assert real[1:].tobytes() == want[1:].real.tobytes() and np.array_equal(real[0], want[0].real)
            parity = (-1.0) ** np.arange(n_cut)
            assert np.array_equal(np.swapaxes(real, 1, 2), real * parity[:, None] * parity)


class TestStreamedAction:
    @settings(max_examples=80, deadline=None)
    @given(half=st.integers(16, 48), odd=st.booleans(), n_cut=st.integers(2, 96), a=st.floats(0.05, 3.0),
           kind=st.sampled_from(["hermitian", "general", "real"]), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_dense_complex_action(self, half, odd, n_cut, a, kind, seed):
        fam = build_continuous(ChannelSpec("B1", noise_a=a), 2 * half + odd, n_cut)
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(n_cut, n_cut)) + 1j * rng.normal(size=(n_cut, n_cut))
        if kind == "hermitian":
            mat = mat + mat.conj().T
        elif kind == "real":
            mat = mat.real + 0j
        want = reference_dense_act(fam.ops, mat)
        assert np.max(np.abs(apply_matrix(fam, mat) - want)) <= ACT_RTOL * np.max(np.abs(want))

    def test_build_and_apply_peak_memory(self):
        # the dense stack alone was 256 * 128^2 * 16 bytes = 67 MB, and its action about 320 MB
        spec, rho = ChannelSpec("B1", noise_a=0.5), random_mixed_state(3, 4, 128)
        apply(build_continuous(spec, 64, 16), random_mixed_state(3, 4, 16))
        tracemalloc.start()
        try:
            out = apply(build_continuous(spec, 256, 128), rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.dim == 128
        assert peak < 32e6

    def test_json_record_gives_the_same_diagonality_verdict(self):
        fam = build_continuous(ChannelSpec("B1", noise_a=0.5), 41, 12)
        dense = read_record(json.loads(json.dumps(fam.to_json_dict())))
        assert type(dense) is StoredDefectFamily
        assert simultaneous_diagonality(fam) == reference_simultaneous_diagonality(dense) == (True, "any")


class TestOperatorsAlone:
    @pytest.mark.parametrize("nodes", [40, 41])
    def test_center_out_operators_are_the_stack_rows(self, nodes):
        fam = build_continuous(ChannelSpec("B1", noise_a=0.7), nodes, 12)
        got = [fam.operators(count) for count in (1, 2, 9, nodes)]
        assert fam._ops is None
        order = np.argsort(np.abs(fam.index.nodes))
        assert [ops.tobytes() for ops in got] == [fam.ops[order[:len(ops)]].tobytes() for ops in got]

    def test_gram_rank_builds_one_operator(self):
        # the whole stack is 256 * 128^2 * 16 bytes = 67 MB; one operator is 0.26 MB
        spec = ChannelSpec("B1", noise_a=0.5)
        gram_rank(build_continuous(spec, 64, 16), 0)
        fam = build_continuous(spec, 256, 128)
        tracemalloc.start()
        try:
            report = gram_rank(fam, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.numerical_rank == 1 and fam._ops is None
        assert peak < 4e6


@pytest.mark.parametrize("nodes,n_cut", [(64, 64), (41, 12), (256, 128)])
def test_defect_is_the_build_defect_on_every_nonempty_block(nodes, n_cut):
    # the displacement factor is unitary: only the Gaussian quadrature falls short, on every block
    fam = build_continuous(ChannelSpec("B1", noise_a=0.5), nodes, n_cut)
    for block in (None, 1, n_cut // 3, n_cut):
        assert completeness_defect(fam, block) == fam.completeness_defect
    assert completeness_defect(fam, 0) == 0.0


@pytest.mark.parametrize("nodes,n_cut", [(64, 64), (41, 12)])
def test_a_record_reports_the_defect_of_the_family_that_wrote_it(nodes, n_cut):
    # the record's stack lost the rows past the cutoff: it answers the build defect on the default block
    built = build_continuous(ChannelSpec("B1", noise_a=0.5), nodes, n_cut)
    for data in (built.to_json_dict(), json.loads(json.dumps(built.to_json_dict()))):
        loaded = read_record(data)
        for block in (None, 0, n_cut // 2):
            assert loaded.defect(block) == built.defect(block), block
        with pytest.raises(InvalidParameter, match="gone"):
            loaded.defect(1)
