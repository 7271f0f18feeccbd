"""Transposition plus threshold noise is the phase conjugator ``D(kappa)``, at the Kraus level.

The paper: the antilinear, unphysical transposition map, accompanied by the injection of a threshold
classical noise, becomes the physical channel ``D(kappa)``.  With ``C(kappa; a)`` the noisy attenuator
(``kappa < 1``) or amplifier (``kappa > 1``) and ``a* = 2 min(1, kappa^2)``,
``D(kappa)(rho) = C(kappa; a*)(rho^T)``; ``C(kappa; a*)`` runs as ``synthesize_noisy``'s pair of
quantum-limited banded families.  Below the threshold the map ``rho -> C(kappa; f a*)(rho^T)`` is not
completely positive: its Choi matrix has a negative eigenvalue.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import family_for, padded_random_state

from boskraus.channels import ChannelSpec
from boskraus.fock import DensityMatrix, TruncatedOperator, trace_distance
from boskraus.kraus import apply, apply_matrix
from boskraus.phasespace import cp_defect, synthesize_noisy


def noisy_partner(kappa: float, f: float = 1.0) -> ChannelSpec:
    """``C(kappa; f a*)``: the attenuator below unit gain, the amplifier above."""
    return ChannelSpec("C1" if kappa < 1.0 else "C2", kappa, 2.0 * min(1.0, kappa**2) * f)


def pair_families(kappa: float, f: float, n_cut: int):
    """``synthesize_noisy``'s (inner, outer) pair for ``C(kappa; f a*)`` as banded families."""
    return [family_for(spec, n_cut) for spec in synthesize_noisy(noisy_partner(kappa, f))]


@settings(max_examples=25, deadline=None)
@given(kappa=st.floats(0.3, 0.95) | st.floats(1.05, 2.0), n_cut=st.integers(48, 96),
       block=st.integers(2, 8), rank=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_conjugator_is_transposition_plus_threshold_noise(kappa, n_cut, block, rank, seed):
    rho = padded_random_state(seed, block, n_cut, min(rank, block))
    transposed = DensityMatrix(TruncatedOperator(np.ascontiguousarray(rho.mat.T)), 0.0)
    inner, outer = pair_families(kappa, 1.0, n_cut)
    got = apply(outer, apply(inner, transposed))
    want = apply(family_for(ChannelSpec("D", kappa), n_cut), rho)
    assert trace_distance(got, want) < 1e-12


def choi_matrix(kappa: float, f: float, n_in: int, n_out: int) -> np.ndarray:
    """Choi matrix ``sum_ij |i><j| (x) C(kappa; f a*)(|j><i|)`` over ``n_in`` input levels."""
    inner, outer = pair_families(kappa, f, n_out)
    choi = np.zeros((n_in, n_out, n_in, n_out), dtype=complex)
    for i in range(n_in):
        for j in range(n_in):
            unit = np.zeros((n_out, n_out), dtype=complex)
            unit[j, i] = 1.0  # the transpose of |i><j|
            choi[i, :, j, :] = apply_matrix(outer, apply_matrix(inner, unit))
    return choi.reshape(n_in * n_out, n_in * n_out)


@pytest.mark.parametrize("kappa", [0.5, 0.8, 1.3, 2.0])
@pytest.mark.parametrize("f", [1.0, 0.9, 0.5])
def test_threshold_noise_is_the_least_that_makes_a_channel(kappa, f):
    lowest = float(np.linalg.eigvalsh(choi_matrix(kappa, f, 4, 48))[0])
    if f == 1.0:
        assert abs(lowest) < 1e-13
    else:
        assert lowest < -1e-3
    # the phase-space condition on (kappa sigma_3, (y0(C) + f a*) I) gives the same verdict
    spec = noisy_partner(kappa, f)
    y = (ChannelSpec(spec.family, kappa).quantum_limited_noise() + spec.noise_a) * np.eye(2)
    assert (cp_defect(np.diag([kappa, -kappa]), y) < -1e-12) == (f < 1.0)
