"""No finite-rank operator lies in the span of the attenuator's or amplifier's Kraus operators.

Take ``X = sum_{l=L..L+K} x_l W_l`` with ``x_L != 0``.  The ``C1`` operators
``B_l`` put their entries at ``(m, m + l)`` and the ``C2`` operators ``A_l`` at
``(m + l, m)``, so ``X`` has no entry closer to the diagonal than offset ``L``,
and its offset-``L`` diagonal is ``x_L`` times the lowest band, which has no
zero.  The square block of ``X`` past that offset is then triangular with a
nonzero diagonal: ``rank X >= N - L`` on every cutoff ``N``, so the rank grows
without bound.  The tests check that structure on the operators themselves, not
a numerical rank: the entries decay like ``kappa^m`` into roundoff, and a plain
SVD reports far less than ``N - L`` at a few hundred levels.  At small cutoffs
an SVD of ``X`` with the lowest band rescaled to 1 agrees with the structure.

The phase conjugator is the contrast: each ``T_l`` with ``l < N`` has its
``l + 1`` entries on the anti-diagonal ``m + n = l``, in distinct rows and
columns, so it has rank ``l + 1`` whatever the cutoff.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boskraus.channels import ChannelSpec
from boskraus.kraus import build_discrete

GAINS = {"C1": st.floats(0.3, 0.95), "C2": st.floats(1.05, 3.0)}
SVD_CUTOFF = 12  # at most this many levels, the rescaled SVD has condition numbers below about 1e10


def _span_element(family, kappa, n_cut, low, weights):
    """``sum_j weights[j] W_(low + j)`` of ``family(kappa)``, transposed for ``C2`` so that its bands lie above the
    diagonal at offsets ``low, low + 1, ...``."""
    count = low + len(weights)
    ops = build_discrete(ChannelSpec(family, kappa), count - 1, n_cut, defect_limit=1e300).operators(count)
    x = np.tensordot(np.asarray(weights), ops[low:], axes=1)
    return x.T if family == "C2" else x


def _weights(data, count):
    magnitudes = data.draw(st.lists(st.floats(0.5, 1.5), min_size=count, max_size=count))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=count, max_size=count))
    return [m * s for m, s in zip(magnitudes, signs)]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), family=st.sampled_from(["C1", "C2"]), n_cut=st.integers(8, 512), low=st.integers(0, 6),
       extra=st.integers(0, 3))
def test_span_of_attenuator_and_amplifier_holds_no_finite_rank_operator(data, family, n_cut, low, extra):
    kappa = data.draw(GAINS[family])
    x = _span_element(family, kappa, n_cut, low, _weights(data, extra + 1))
    rows, cols = np.nonzero(x)
    assert np.all(cols - rows >= low)  # nothing closer to the diagonal than offset low
    lowest = np.diagonal(x, low)
    assert lowest.size == n_cut - low and np.all(lowest != 0)
    # so x[:N - low, low:] is upper triangular with a nonzero diagonal: rank x >= N - low
    block = x[:n_cut - low, low:]
    assert not np.any(np.tril(block, -1))
    if n_cut <= SVD_CUTOFF:
        scaled = x.copy()
        scaled[:n_cut - low] /= lowest[:, None]
        assert np.linalg.matrix_rank(scaled) == n_cut - low


@settings(max_examples=40, deadline=None)
@given(kappa=st.floats(0.2, 3.0), n_cut=st.integers(8, 512), label=st.integers(0, 7))
def test_each_conjugator_operator_has_rank_label_plus_one(kappa, n_cut, label):
    op = build_discrete(ChannelSpec("D", kappa), label, n_cut, defect_limit=1e300).operators(label + 1)[label]
    rows, cols = np.nonzero(op)
    assert np.all(rows + cols == label)  # the anti-diagonal m + n = label, inside the cutoff
    assert sorted(cols.tolist()) == list(range(label + 1))  # so one entry per row and column: rank label + 1
    if n_cut <= 32:
        assert np.linalg.matrix_rank(op) == label + 1
