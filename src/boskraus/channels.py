"""Canonical single-mode Gaussian channel labels.

The canonical families and their gain/noise parameters:

=========  =======================  ===========================
family     gain constraint          quantum-limited noise y0
=========  =======================  ===========================
``D``      kappa > 0                1 + kappa^2
``C1``     0 <= kappa <= 1          1 - kappa^2
``C2``     kappa >= 1               kappa^2 - 1
``A1``     (none)                   1
``A2``     (none)                   1
``B1``     (none)                   0
``B2``     (none)                   0
``I``      (identity)               0
=========  =======================  ===========================

``noise_a`` is the classical noise injected on top of the quantum limit;
``noise_a == 0`` marks a quantum-limited channel.  :func:`closed_form_action`
gives the image of a number-state dyad ``|m><n|`` under a quantum-limited
``D``, ``C1``, ``C2`` or ``A1``, summed from the band formulas of ``families``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, UnsupportedFamily, _count, _real_number
from .fock import TruncatedOperator
from .special import log_factorial, xlogy

FAMILIES = ("D", "C1", "C2", "A1", "A2", "B1", "B2", "I")

_KAPPA_FAMILIES = ("D", "C1", "C2")


@dataclass(frozen=True)
class ChannelSpec:
    """Family tag plus gain ``kappa`` and classical noise ``noise_a``."""

    family: str
    kappa: float | None = None
    noise_a: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameter(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family in _KAPPA_FAMILIES:
            if self.kappa is None:
                raise InvalidParameter(f"family {self.family} requires kappa")
            k = _real_number(self.kappa, "kappa")
            if self.family == "D" and not 0.0 < k < math.inf:
                raise InvalidParameter(f"D requires finite kappa > 0, got {k}")
            if self.family == "C1" and not 0.0 <= k <= 1.0:
                raise InvalidParameter(f"C1 requires 0 <= kappa <= 1, got {k}")
            if self.family == "C2" and not 1.0 <= k < math.inf:
                raise InvalidParameter(f"C2 requires finite kappa >= 1, got {k}")
            object.__setattr__(self, "kappa", k)
        else:
            if self.kappa is not None:
                raise InvalidParameter(f"family {self.family} takes no kappa")
        a = _real_number(self.noise_a, "noise_a")
        if not 0.0 <= a < math.inf:
            raise InvalidParameter(f"noise_a must be finite and nonnegative, got {a}")
        object.__setattr__(self, "noise_a", a)

    @property
    def quantum_limited(self) -> bool:
        return self.noise_a == 0.0

    def quantum_limited_noise(self) -> float:
        """The threshold noise coefficient y0 forced by complete positivity."""
        if self.family == "D":
            return 1.0 + self.kappa**2
        if self.family == "C1":
            return 1.0 - self.kappa**2
        if self.family == "C2":
            return self.kappa**2 - 1.0
        if self.family in ("A1", "A2"):
            return 1.0
        return 0.0  # B1, B2, I

    def normalized(self, tol: float = 1e-12) -> "ChannelSpec":
        """Collapse boundary gains onto their canonical family tags.

        ``C1(0) -> A1``, ``C1(1)/C2(1) -> B2`` (or the identity when the
        noise also vanishes).  Used so classification and table lookups
        agree on boundary cases.
        """
        fam, kappa, a = self.family, self.kappa, self.noise_a
        if fam in ("C1", "C2"):
            if abs(kappa - 1.0) <= tol:
                fam, kappa = ("I", None) if a <= tol else ("B2", None)
                a = 0.0 if fam == "I" else a
            elif fam == "C1" and kappa <= tol:
                fam, kappa = "A1", None
        if fam in ("B1", "B2") and a <= tol:
            fam, a = "I", 0.0
        return ChannelSpec(fam, kappa, a)

    def __str__(self) -> str:
        if self.kappa is None:
            return f"{self.family}({self.noise_a:g})" if self.noise_a else self.family
        return f"{self.family}({self.kappa:g}; {self.noise_a:g})"

    def to_json_dict(self) -> dict:
        return {"family": self.family, "kappa": self.kappa, "a": self.noise_a}


def parse_channel(text: str) -> ChannelSpec:
    """Parse ``FAMILY[:kappa[:a]]``, e.g. ``C1:0.7`` or ``D:0.8:1.5``.

    Families without a gain take ``FAMILY[:a]`` (``B2:1.5`` is ``B2`` with
    noise 1.5).  Extra or malformed fields raise ``InvalidParameter``.
    """
    parts = text.split(":")
    family = parts[0]
    if family not in FAMILIES:
        raise InvalidParameter(f"unknown family {family!r} in {text!r}")
    max_fields = 3 if family in _KAPPA_FAMILIES else 2
    if len(parts) > max_fields:
        raise InvalidParameter(f"{text!r} has {len(parts)} fields; family {family} takes at most {max_fields}")
    try:
        kappa = float(parts[1]) if len(parts) > 1 and parts[1] != "" else None
        noise = float(parts[2]) if len(parts) > 2 else 0.0
    except ValueError:
        raise InvalidParameter(f"non-numeric field in {text!r}") from None
    if family in _KAPPA_FAMILIES and kappa is None:
        raise UnsupportedFamily(f"family {family} needs a kappa, e.g. {family}:0.7")
    if family not in _KAPPA_FAMILIES and kappa is not None:
        # allow B2:1.5 style shorthand meaning noise, not kappa
        noise, kappa = kappa, None
    return ChannelSpec(family, kappa, noise)


def _log_binom_sqrt(n, k):
    """0.5 * log C(n, k) at whole ``0 <= k <= n``, vectorized."""
    return 0.5 * (log_factorial(n) - log_factorial(k) - log_factorial(np.subtract(n, k)))


def closed_form_action(spec: ChannelSpec, m: int, n: int, n_cut: int) -> TruncatedOperator:
    """Image of ``|m><n|`` under the channel, from the summed band formulas.

    D(kappa) with ``n = m + delta``::

        |m+d><m|  ->  (1+k^2)^(-1-m-d/2) (1+k^-2)^(-d/2)
                      sum_j (j+m+d)! (1+k^-2)^(-j)
                            / sqrt((m+d)! m! j! (j+d)!)   |j><j+d|

    C1(kappa)::

        |m><n| -> sum_l sqrt(C(m,l) C(n,l)) (1-k^2)^l k^(m+n-2l) |m-l><n-l|

    C2(kappa)::

        |m><n| -> k^(-2-m-n) sum_l sqrt(C(m+l,l) C(n+l,l)) (1-k^-2)^l
                  |m+l><n+l|

    The powers are ``xlogy`` in log space (``0 log 0 = 0``), so A1 = C1(0), C1(1)
    and C2(1) take the same sums.
    """
    _count(n_cut, "n_cut", max(_count(m, "m"), _count(n, "n")) + 1)
    if not spec.quantum_limited:
        raise UnsupportedFamily(f"{spec}: closed forms cover quantum-limited members only")
    out = np.zeros((n_cut, n_cut), dtype=np.complex128)
    fam = spec.family
    k = spec.kappa
    if fam == "D":
        # phase conjugation swaps the band orientation: |lo+d><lo| -> sum_j c_j |j><j+d|
        lo, delta = min(m, n), abs(m - n)
        j = np.arange(n_cut - delta)
        logc = (
            -(1.0 + lo + 0.5 * delta) * math.log1p(k**2)
            - 0.5 * delta * math.log1p(k**-2)
            - 0.5 * (log_factorial(lo + delta) + log_factorial(lo))
            + log_factorial(j + lo + delta)
            - j * math.log1p(k**-2)
            - 0.5 * (log_factorial(j) + log_factorial(j + delta))
        )
        if m >= n:
            out[j, j + delta] = np.exp(logc)
        else:
            out[j + delta, j] = np.exp(logc)
        return TruncatedOperator(out)
    if fam in ("C1", "A1"):
        kk = 0.0 if fam == "A1" else k
        for ell in range(min(m, n) + 1):
            out[m - ell, n - ell] = math.exp(
                _log_binom_sqrt(m, ell) + _log_binom_sqrt(n, ell)
                + xlogy(ell, 1.0 - kk**2) + xlogy(m + n - 2 * ell, kk)
            )
        return TruncatedOperator(out)
    if fam == "C2":
        for ell in range(n_cut - max(m, n)):
            out[m + ell, n + ell] = math.exp(
                -(2.0 + m + n) * math.log(k)
                + _log_binom_sqrt(m + ell, ell) + _log_binom_sqrt(n + ell, ell)
                + xlogy(ell, 1.0 - k**-2)
            )
        return TruncatedOperator(out)
    raise UnsupportedFamily(f"no closed-form Fock action for family {fam}")
