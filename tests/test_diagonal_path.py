"""Diagonal states stay on the Fock diagonal: ``apply``, ``iterate``, the state checks and ``trace_distance``.

Each fast path is compared bit for bit with the dense computation it replaces,
which is kept here as the reference.
"""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from references import phase_averaged_state, read_record

from boskraus import analysis, families, fock
from boskraus.analysis import iterate, thermal_estimate
from boskraus.channels import ChannelSpec
from boskraus.errors import BoskrausError, CutoffTooSmall, InvalidParameter, _count
from boskraus.fock import (
    DensityMatrix,
    TruncatedOperator,
    coherent_amplitudes,
    coherent_disc_grid,
    coherent_state,
    fock_state,
    q_function,
    random_mixed_state,
    thermal_state,
    trace_distance,
)
from boskraus.families import KrausFamily
from boskraus.kraus import (
    apply,
    apply_matrix,
    build_continuous,
    build_discrete,
    completeness_defect,
    rank_one_d,
    suggest_ell_max,
)
from boskraus.scheme import kraus_from_scheme, mix_matrix
from boskraus.special import poisson_tail

GAINS = {"D": st.floats(0.2, 2.0), "C1": st.floats(0.05, 1.0), "C2": st.floats(1.0, 2.0)}


def dense_apply(family: KrausFamily, rho: DensityMatrix) -> DensityMatrix:
    """``apply`` as the dense path computes it: symmetrize, trace and rescale the whole matrix."""
    out = apply_matrix(family, rho.mat)
    out = 0.5 * (out + out.conj().T)
    tr = float(np.trace(out).real)
    if tr <= 1e-12:
        raise InvalidParameter("channel output has vanishing trace inside the cutoff")
    return DensityMatrix(TruncatedOperator(out / tr), max(0.0, 1.0 - tr))


def outcome(call):
    try:
        return call()
    except BoskrausError as exc:
        return type(exc), str(exc)


def diagonal_state(draw, kind: str, n_cut: int) -> DensityMatrix:
    if kind == "thermal":
        return thermal_state(draw(st.floats(1.0, 20.0)), n_cut, tail_tol=1.0)
    if kind == "fock":
        return fock_state(draw(st.integers(0, n_cut - 1)), n_cut)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diag = rng.random(n_cut) * (rng.random(n_cut) < 0.7)
    diag[rng.integers(n_cut)] += 1e-3
    tail = draw(st.floats(0.0, 0.5))
    return DensityMatrix(TruncatedOperator(np.diag((diag / diag.sum() * (1.0 - tail)).astype(complex))), tail)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), family=st.sampled_from(["D", "C1", "C2", "A1", "I"]), n_cut=st.integers(2, 128),
       kind=st.sampled_from(["thermal", "fock", "random"]))
def test_apply_to_a_diagonal_state_is_the_dense_path(data, family, n_cut, kind):
    gain = GAINS.get(family)
    spec = ChannelSpec(family, data.draw(gain)) if gain is not None else ChannelSpec(family)
    fam = build_discrete(spec, data.draw(st.integers(0, 3 * n_cut)), n_cut, defect_limit=1e300)
    rho = diagonal_state(data.draw, kind, n_cut)
    assert rho.bandwidth == 0
    got, want = outcome(lambda: apply(fam, rho)), outcome(lambda: dense_apply(fam, rho))
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.mat.tobytes() == want.mat.tobytes()
    assert np.float64(got.tail_mass).tobytes() == np.float64(want.tail_mass).tobytes()
    assert got.bandwidth == want.bandwidth == 0


def dense_trajectory(family: KrausFamily, rho: DensityMatrix, steps: int):
    """``iterate`` as a loop of :func:`dense_apply`, ``trace_distance`` and ``thermal_estimate``."""
    a0s, dists, kept = [thermal_estimate(rho)], [], 1.0
    for _ in range(steps):
        nxt = dense_apply(family, rho)
        dists.append(trace_distance(nxt, rho))
        rho = nxt
        a0s.append(thermal_estimate(rho))
        kept *= 1.0 - rho.tail_mass
    return rho, a0s, dists, 1.0 - kept


@settings(max_examples=150, deadline=None)
@given(data=st.data(), family=st.sampled_from(["D", "C1", "C2", "A1", "I"]), n_cut=st.integers(2, 128),
       kind=st.sampled_from(["thermal", "fock", "random"]), steps=st.integers(1, 12))
def test_iterate_on_a_diagonal_state_is_the_dense_loop(data, family, n_cut, kind, steps):
    gain = GAINS.get(family)
    spec = ChannelSpec(family, data.draw(gain)) if gain is not None else ChannelSpec(family)
    fam = build_discrete(spec, data.draw(st.integers(0, 3 * n_cut)), n_cut, defect_limit=1e300)
    rho = diagonal_state(data.draw, kind, n_cut)
    got, want = outcome(lambda: iterate(fam, rho, steps)), outcome(lambda: dense_trajectory(fam, rho, steps))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    final, a0s, dists, lost = want
    assert np.array(got.a0_estimates).tobytes() == np.array(a0s).tobytes()
    assert np.array(got.step_distances).tobytes() == np.array(dists).tobytes()
    assert got.final.mat.tobytes() == final.mat.tobytes()
    assert np.float64(got.final.tail_mass).tobytes() == np.float64(final.tail_mass).tobytes()
    assert np.float64(got.lost_mass).tobytes() == np.float64(lost).tobytes()
    assert got.final.bandwidth == final.bandwidth == 0


def test_iterate_holds_only_the_state_it_is_on():
    # keeping every state of the trajectory took 174 MB here
    n_cut = 512
    spec = ChannelSpec("D", 0.8)
    family = build_discrete(spec, suggest_ell_max(spec, n_cut), n_cut)
    rho = thermal_state(4.0, n_cut)
    apply(family, rho)  # builds the family's tables
    tracemalloc.start()
    try:
        traj = iterate(family, rho, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n_cut**2 * 16  # the state it is on, the next, and a real weights temporary
    assert len(traj.a0_estimates) == 41 and traj.final.dim == n_cut


def test_iterate_memory_does_not_grow_with_steps():
    n_cut = 512
    spec = ChannelSpec("D", 0.8)
    family = build_discrete(spec, suggest_ell_max(spec, n_cut), n_cut)
    rho = thermal_state(4.0, n_cut)
    apply(family, rho)  # builds the family's tables
    tracemalloc.start()
    try:
        traj = iterate(family, rho, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert len(traj.step_distances) == 400 and len(traj.a0_estimates) == 401


def _free_table_family(band, coeffs):
    """A banded family with a free table: steps that lose mass past the cutoff, or all of it."""
    coeffs = np.asarray(coeffs, dtype=float)
    return families.BandedFamily(ChannelSpec("C2", 1.1), coeffs, band, families.DiscreteIndex(len(coeffs) - 1))


def _recorded(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = outcome(call)
    return result, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300, deadline=None)
@given(n_cut=st.integers(2, 12), band=st.sampled_from(["upper", "lower", "anti"]), rows=st.integers(1, 5),
       steps=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_iterate_in_blocks_is_the_dense_loop(n_cut, band, rows, steps, seed):
    # random tables lose mass, drop all of it or amplify it, and starts sit at the eigenvalue floor, so
    # the steps fail each check at any row of any block
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.0, 1.5, (rng.integers(1, 2 * n_cut + 1), n_cut)) * (rng.random((1, n_cut)) < 0.8)
    start = rng.random(n_cut) * (rng.random(n_cut) < 0.7)
    start[rng.integers(n_cut)] = -rng.uniform(0.0, 1e-10)
    assume(start.sum() > 0.1)
    rho = outcome(lambda: DensityMatrix(TruncatedOperator(np.diag(start / start.sum()).astype(complex)), 0.0))
    assume(isinstance(rho, DensityMatrix))
    family = _free_table_family(band, coeffs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_BLOCK_BYTES", 8 * n_cut * rows)
        got, got_warnings = _recorded(lambda: iterate(family, rho, steps))
    want, want_warnings = _recorded(lambda: dense_trajectory(family, rho, steps))
    assert got_warnings == want_warnings
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    final, a0s, dists, lost = want
    assert np.array(got.a0_estimates).tobytes() == np.array(a0s).tobytes()
    assert np.array(got.step_distances).tobytes() == np.array(dists).tobytes()
    assert got.final.mat.tobytes() == final.mat.tobytes()
    assert np.float64(got.final.tail_mass).tobytes() == np.float64(final.tail_mass).tobytes()
    assert np.float64(got.lost_mass).tobytes() == np.float64(lost).tobytes()


@pytest.mark.parametrize("rows", [1, 3, 64])
def test_a_later_vanishing_trace_leaves_an_earlier_verdict(rows, monkeypatch):
    # the first step halves the trace and doubles the entry at the floor; the eighth drops all the mass
    coeffs = np.zeros((2, 8))
    coeffs[1] = [np.sqrt(0.5), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    family = _free_table_family("lower", coeffs)
    rho = DensityMatrix._diagonal(np.array([1.0 + 9e-11, -9e-11, 0, 0, 0, 0, 0, 0]), 0.0)
    monkeypatch.setattr(analysis, "_BLOCK_BYTES", 8 * 8 * rows)
    with pytest.raises(InvalidParameter, match=r"^density matrix has eigenvalue -1\.800e-10 < -1e-10$"):
        iterate(family, rho, 12)
    with pytest.raises(InvalidParameter, match="^channel output has vanishing trace inside the cutoff$"):
        iterate(family, fock_state(0, 8), 12)
    assert outcome(lambda: iterate(family, rho, 12)) == outcome(lambda: dense_trajectory(family, rho, 12))


@pytest.mark.parametrize("make", [
    lambda n: thermal_state(4.0, n),
    lambda n: fock_state(5, n),
    lambda n: phase_averaged_state(3.0, n),
    lambda n: apply(build_discrete(ChannelSpec("C2", 1.1), 3 * n, n), thermal_state(2.0, n)),
], ids=["thermal", "fock", "phase-averaged", "banded-image"])
def test_a_diagonal_state_builds_its_matrix_once_from_its_populations(make):
    rho = make(24)
    assert rho.bandwidth == 0 and rho.dim == 24
    populations = rho.diagonal
    with pytest.raises(ValueError):
        populations[0] = 0.5
    mat = rho.mat
    assert rho.mat is mat and TruncatedOperator(mat).mat is mat
    assert not mat.flags.writeable
    assert mat.tobytes() == np.diag(populations.astype(np.complex128)).tobytes()
    assert rho.diagonal.tobytes() == np.diagonal(mat).real.tobytes()


def dense_thermal_state(a0, n_cut, tail_tol):
    """``thermal_state`` as it was built before states kept their populations: around the matrix."""
    if a0 < 1.0:
        raise InvalidParameter(f"thermal parameter must satisfy a0 >= 1, got {a0}")
    x = (a0 - 1.0) / (a0 + 1.0)
    tail = x**n_cut
    if tail > tail_tol:
        raise CutoffTooSmall(f"thermal({a0}): tail mass {tail:.3e} exceeds {tail_tol:.3e}; raise the cutoff")
    diag = (1.0 - x) * x ** np.arange(n_cut)
    return DensityMatrix(TruncatedOperator(np.diag(diag.astype(np.complex128))), tail)


def dense_fock_state(n, n_cut):
    _count(n_cut, "n_cut", _count(n, "n") + 1)
    mat = np.zeros((n_cut, n_cut), dtype=np.complex128)
    mat[n, n] = 1.0
    return DensityMatrix(TruncatedOperator(mat), 0.0)


def dense_phase_averaged_state(lam, n_cut):
    if lam < 0:
        raise InvalidParameter("Poisson parameter must be nonnegative")
    tail = poisson_tail(lam, n_cut)  # scipy's gammainc, checked against it in test_special
    if tail > fock.DEFAULT_TAIL_TOL:
        raise CutoffTooSmall(f"phase_averaged({lam}): tail mass {tail:.3e} exceeds "
                             f"{fock.DEFAULT_TAIL_TOL:.3e}; raise the cutoff")
    n = np.arange(n_cut)
    logp = -lam + n * np.log(lam) - gammaln(n + 1) if lam > 0 else np.where(n == 0, 0.0, -np.inf)
    return DensityMatrix(TruncatedOperator(np.diag(np.exp(logp).astype(np.complex128))), tail)


_PARAMETERS = st.one_of(st.floats(-1.0, 40.0), st.sampled_from([0.0, 1.0, np.nan, np.inf]))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["thermal", "fock", "phase-averaged"]), value=_PARAMETERS,
       level=st.integers(-2, 140), n_cut=st.integers(0, 130), tail_tol=st.sampled_from([1e-2, 1.0]))
def test_diagonal_constructors_give_the_dense_verdict_and_bits(kind, value, level, n_cut, tail_tol):
    calls = {
        "thermal": (lambda: thermal_state(value, n_cut, tail_tol), lambda: dense_thermal_state(value, n_cut, tail_tol)),
        "fock": (lambda: fock_state(level, n_cut), lambda: dense_fock_state(level, n_cut)),
        "phase-averaged": (lambda: phase_averaged_state(value, n_cut),
                           lambda: dense_phase_averaged_state(value, n_cut)),
    }[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # log(0), nan and inf parameters
        got, want = (outcome(call) for call in calls)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.mat.tobytes() == want.mat.tobytes()
    assert np.float64(got.tail_mass).tobytes() == np.float64(want.tail_mass).tobytes()
    assert got.bandwidth == want.bandwidth == 0


def test_thermal_state_builds_no_matrix():
    # one dense 512 x 512 complex matrix is 4.2 MB
    tracemalloc.start()
    try:
        rho = thermal_state(4.0, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert rho.dim == 512


def test_iterate_on_populations_builds_no_matrix():
    # one dense 512 x 512 complex matrix is 4.2 MB
    n_cut = 512
    spec = ChannelSpec("D", 0.8)
    family = build_discrete(spec, suggest_ell_max(spec, n_cut), n_cut)
    rho = thermal_state(4.0, n_cut)
    apply(family, rho)  # builds the family's tables
    tracemalloc.start()
    try:
        traj = iterate(family, rho, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert len(traj.step_distances) == 40 and traj.final.bandwidth == 0


@pytest.mark.parametrize("make", [
    lambda n: build_continuous(ChannelSpec("A2"), 64, n),
    lambda n: build_continuous(ChannelSpec("B1", noise_a=0.5), 48, n),
])
def test_dense_families_keep_the_dense_path(make):
    fam, rho = make(24), thermal_state(2.0, 24)
    got, want = apply(fam, rho), dense_apply(fam, rho)
    assert got.mat.tobytes() == want.mat.tobytes() and got.tail_mass == want.tail_mass


def test_non_diagonal_state_keeps_the_dense_path():
    fam = build_discrete(ChannelSpec("D", 0.8), 60, 24)
    rho = coherent_state(0.6 - 0.3j, 24)
    assert rho.bandwidth == 23
    got, want = apply(fam, rho), dense_apply(fam, rho)
    assert got.mat.tobytes() == want.mat.tobytes() and got.tail_mass == want.tail_mass


def test_iterate_scans_each_input_once(monkeypatch):
    calls = []

    def counting(mat):
        calls.append(mat.shape)
        return scan(mat)

    scan = fock.bandwidth
    monkeypatch.setattr(fock, "bandwidth", counting)
    monkeypatch.setattr(families, "bandwidth", counting)
    spec = ChannelSpec("D", 0.8)
    family = build_discrete(spec, suggest_ell_max(spec, 48), 48)
    thermal = thermal_state(3.0, 48)
    assert not calls  # built from its populations
    traj = iterate(family, DensityMatrix(TruncatedOperator(thermal.mat), thermal.tail_mass), 40)
    assert len(calls) == 1  # its dense copy; each step reads its input's recorded bandwidth
    assert traj.final.bandwidth == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_bandwidth_matches_the_nonzero_entries(dim, width, seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rows, cols = np.indices(mat.shape)
    mat[np.abs(rows - cols) > width] = 0.0
    mat[rng.random(mat.shape) < 0.3] = rng.choice([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)])
    mat.real[rng.random(mat.shape) < 0.1] = 0.0  # entries with one nonzero part
    mat.imag[rng.random(mat.shape) < 0.1] = -0.0
    nonzero = np.nonzero(mat)
    assert fock.bandwidth(mat) == int(np.max(np.abs(nonzero[0] - nonzero[1]), initial=0))


@pytest.mark.parametrize("entry, width", [(1e-300j, 3), (1e-300, 3), (complex(-0.0, -0.0), 0), (-0.0j, 0)])
def test_bandwidth_reads_either_part_of_an_entry(entry, width):
    mat = np.diag(np.arange(1.0, 7.0)).astype(np.complex128)
    mat[4, 1] = entry
    assert fock.bandwidth(mat) == width


def test_states_record_their_bandwidth():
    assert thermal_state(2.0, 16).bandwidth == 0
    assert random_mixed_state(1, 3, 16).bandwidth == 15
    rho = thermal_state(2.0, 16)
    mat = rho.mat.copy()
    mat[2, 5] = mat[5, 2] = 1e-4
    assert DensityMatrix(TruncatedOperator(mat), rho.tail_mass).bandwidth == 3


def test_a_state_keeps_its_matrix_from_the_caller():
    thermal = thermal_state(2.0, 8)
    mat = thermal.mat.copy()
    rho = DensityMatrix(TruncatedOperator(mat), thermal.tail_mass)
    mat[1, 2] = mat[2, 1] = 0.1  # the caller's array, not the state's
    assert rho.bandwidth == fock.bandwidth(rho.mat) == 0
    with pytest.raises(ValueError):
        rho.mat[0, 1] = 0.1
    base = np.eye(4, dtype=np.complex128) / 4
    view = base.view()
    view.flags.writeable = False
    op = TruncatedOperator(view)
    base[0, 3] = 1.0
    assert op.mat[0, 3] == 0.0
    assert TruncatedOperator(rho.mat).mat is rho.mat  # a recorded matrix is shared, not copied


def test_a_banded_image_is_read_only():
    out = apply(build_discrete(ChannelSpec("D", 0.8), 60, 24), thermal_state(2.0, 24))
    assert out.bandwidth == 0
    with pytest.raises(ValueError):
        out.mat[0, 0] = 0.5


def _diagonal_matrix(values) -> np.ndarray:
    mat = np.zeros((len(values), len(values)), dtype=np.complex128)
    mat[np.diag_indices(len(values))] = values
    return mat


@pytest.mark.parametrize("values, tail, message", [
    ([0.5, np.nan, 0.5], 0.0, "operator entries must be finite"),
    ([0.5, 0.5, np.inf], 0.0, "operator entries must be finite"),
    ([0.5, 0.5 + 1e-9j, 0.0], 0.0, "density matrix is not Hermitian to tolerance"),
    ([0.6, 0.4 + 1e-13j, 0.0], 0.0, None),
    ([1.0 + 1e-9, -1e-9, 0.0], 0.0, "density matrix has eigenvalue -1.000e-09 < -1e-10"),
    ([1.0 + 1e-11, -1e-11, 0.0], 0.0, None),
    ([0.5, 0.4, 0.0], 0.0, "trace 0.9 outside"),
    ([0.5, 0.4, 0.0], 0.1, None),
    ([0.5, 0.5, 1e-9], 0.0, "trace 1.000000001 outside"),
    ([0.5, 0.5, 0.0], -1e-3, "tail_mass must be nonnegative"),
    ([1.0], 0.0, "cutoff dimension must be at least 2"),
    ([0.5, 0.5, 0.0], 7.0, "tail_mass must be nonnegative and at most 1"),
    ([0.25, 0.25, 0.0], np.inf, "tail_mass must be nonnegative and at most 1"),
    ([0.5, 0.5, 0.0], np.nan, "tail_mass must be nonnegative and at most 1"),
    ([0.0, 0.0, 0.0], 1.0, None),
])
def test_diagonal_checks_give_the_constructor_verdict(values, tail, message):
    want = outcome(lambda: DensityMatrix(TruncatedOperator(_diagonal_matrix(values)), tail))
    got = outcome(lambda: DensityMatrix._diagonal(np.asarray(values), tail))
    if message is not None:
        assert got == want and want[0] is InvalidParameter and want[1].startswith(message)
    else:
        assert got.mat.tobytes() == want.mat.tobytes() and got.tail_mass == want.tail_mass
        assert got.bandwidth == want.bandwidth == 0


def _pair(draw, kind: str, n_cut: int) -> DensityMatrix:
    seed = draw(st.integers(0, 2**16))
    if kind == "thermal":
        return thermal_state(draw(st.floats(1.0, 10.0)), n_cut, tail_tol=1.0)
    if kind == "fock":
        return fock_state(draw(st.integers(0, n_cut - 1)), n_cut)
    if kind == "coherent":
        return coherent_state(complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))), n_cut, tail_tol=1.0)
    return random_mixed_state(seed, draw(st.integers(1, n_cut)), n_cut)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_cut=st.integers(2, 96),
       kinds=st.tuples(*[st.sampled_from(["thermal", "fock", "coherent", "mixed"])] * 2))
def test_trace_distance_is_the_eigvalsh_value(data, n_cut, kinds):
    rho, sigma = (_pair(data.draw, kind, n_cut) for kind in kinds)
    want = float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.mat - sigma.mat))))
    assert trace_distance(rho, sigma) == want


@settings(max_examples=60, deadline=None)
@given(n_cut=st.integers(2, 128), points=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["thermal", "coherent", "mixed"]))
def test_q_function_is_the_per_point_product(n_cut, points, seed, kind):
    rng = np.random.default_rng(seed)
    rho = {"thermal": lambda: thermal_state(2.0, n_cut, tail_tol=1.0),
           "coherent": lambda: coherent_state(0.4 - 0.3j, n_cut, tail_tol=1.0),
           "mixed": lambda: random_mixed_state(seed, 1 + seed % n_cut, n_cut)}[kind]()
    alpha = rng.uniform(-2.0, 2.0, points) + 1j * rng.uniform(-2.0, 2.0, points)
    loop = np.array([(v.conj() @ rho.mat @ v).real for v in coherent_amplitudes(alpha, n_cut)])
    assert q_function(rho, alpha).tobytes() == loop.tobytes()
    assert q_function(rho, alpha[0]) == loop[0]


def test_q_function_keeps_its_negativity_check():
    # eigenvalue -5e-11 passes the state check, Q(0) = -5e-11 does not
    rho = DensityMatrix(TruncatedOperator(np.diag([-5e-11, 1.0 + 5e-11, 0.0])), 0.0)
    with pytest.raises(InvalidParameter, match="Q function came out negative: -5.000e-11"):
        q_function(rho, np.array([1.5, 0.0]))


@pytest.mark.parametrize("spec", [ChannelSpec("D", 0.8), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3)])
def test_loaded_banded_family_reports_its_stored_defect(spec):
    built = build_discrete(spec, suggest_ell_max(spec, 32), 32)
    loaded = read_record(json.loads(json.dumps(built.to_json_dict())))
    assert completeness_defect(loaded) == loaded.completeness_defect == built.completeness_defect
    assert completeness_defect(loaded, 16) == built.completeness_defect
    assert completeness_defect(loaded, 0) == 0.0
    with pytest.raises(InvalidParameter, match="gone"):
        completeness_defect(loaded, 8)


def test_scheme_family_answers_its_build_block():
    # and every other block, measured on the rows past the cutoff it keeps
    sch = kraus_from_scheme(mix_matrix(ChannelSpec("C2", 1.3)), 96, 24)
    assert completeness_defect(sch, 12) == completeness_defect(sch) == sch.completeness_defect
    assert completeness_defect(sch, 0) == 0.0
    ref = build_discrete(ChannelSpec("C2", 1.3), 96, 24)
    for block in range(1, 25):
        assert abs(completeness_defect(sch, block) - completeness_defect(ref, block)) < 1e-13, block


def test_dual_of_a_loaded_family_measures_its_own_stack():
    built = build_discrete(ChannelSpec("C2", 1.3), 40, 16)
    loaded = read_record(json.loads(json.dumps(built.to_json_dict())))
    dual = loaded.dual()
    assert dual.completeness_defect == families.raw_completeness_defect(dual.ops)
    for block in (3, 5, 12):  # blocks other than 0 and dim // 2 too
        assert completeness_defect(dual, block) == families.raw_completeness_defect(dual.ops, block)


def test_complex_nodes_are_ordered_without_a_cast():
    family = rank_one_d(0.8, *coherent_disc_grid(6.0, 8, 8), 16, probe_check=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = family.operators(5)
    assert np.array_equal(got, family.ops[np.argsort(np.abs(family.index.nodes))[:5]])
