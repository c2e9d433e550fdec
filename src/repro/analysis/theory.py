"""Closed-form expectations from the paper's analysis.

* Lemma 1 — a pair of age ``x`` is in the K-skyband with probability
  ``min(K / x^2, 1)`` (scores independent of ages);
* Theorem 3 — the expected K-skyband size is ``O(K log(N/K))``;
* Lemma 2 — the expected number of new pairs per arrival not dominated by
  the skyband is ``O(K)``;
* §V-B.2 — the TA maintenance examines
  ``M = (d+1) N^{d/(d+1)} K^{1/(d+1)}`` pairs in expectation (Fagin).

The paper counts ``x^2`` pairs of age at most ``x``; only ``C(x, 2) =
x (x - 1) / 2`` exist, so with i.i.d. scores a pair of age ``x`` is a
member with probability ``min(1, K / C(x, 2))``.  The two yardsticks
below use that exact count: the asymptotic claims stand, and the
constants are the ones a healthy uniform stream measures
(EXPERIMENTS.md, "Theorem 3 / Lemma 2").

The theory-validation benchmark compares these against measurements.
"""

from __future__ import annotations

import math

__all__ = [
    "harmonic",
    "skyband_membership_probability",
    "expected_skyband_size",
    "expected_new_skyband_pairs",
    "ta_access_bound",
]

_EULER_GAMMA = 0.57721566490153286


def harmonic(n: int) -> float:
    """The n-th harmonic number ``H_n`` (exact below 10^6, asymptotic
    ``ln n + gamma + 1/2n`` above)."""
    if n < 0:
        raise ValueError(f"harmonic number needs n >= 0, got {n}")
    if n < 1_000_000:
        return math.fsum(1.0 / x for x in range(1, n + 1))
    return math.log(n) + _EULER_GAMMA + 1.0 / (2 * n)


def skyband_membership_probability(K: int, age: int) -> float:
    """Lemma 1: P[a pair of this age is in the K-skyband]."""
    if age < 2:
        return 1.0
    return min(K / float(age * age), 1.0)


def _full_ages(K: int) -> int:
    """The largest age ``y`` whose pairs are all members: the largest
    ``x`` with ``C(x, 2) <= K``, i.e. ``(2x - 1)^2 <= 1 + 8K``."""
    return (1 + math.isqrt(1 + 8 * K)) // 2


def expected_skyband_size(K: int, N: int) -> float:
    """Theorem 3: ``sum_{x=2}^{N} min(x - 1, 2K / x)``.

    ``x - 1`` window pairs have age exactly ``x``, each a member with
    probability ``min(1, K / C(x, 2))``; below ``y = _full_ages(K)``
    every pair is a member, above it the terms are ``2K / x``, which
    gives ``C(y, 2) + 2K (H_N - H_y)`` and so ``O(K log(N/K))``.
    """
    if K < 1 or N < 2:
        raise ValueError(f"need K >= 1 and N >= 2, got K={K}, N={N}")
    y = _full_ages(K)
    if N <= y:
        return N * (N - 1) / 2
    return y * (y - 1) / 2 + 2 * K * (harmonic(N) - harmonic(y))


def expected_new_skyband_pairs(K: int, N: int | None = None) -> float:
    """Lemma 2: ``sum_{x=2}^{N} min(1, K / C(x, 2))`` new members per
    arrival, one partner of each age ``x``.

    Past ``y = _full_ages(K)`` the terms ``2K (1/(x-1) - 1/x)``
    telescope, to ``(y - 1) + 2K (1/y - 1/N)``; with ``N=None`` the
    infinite tail gives ``(y - 1) + 2K / y``, which is ``O(K)``.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    y = _full_ages(K)
    if N is not None and N <= y:
        return float(max(0, N - 1))
    tail = 1.0 / y - (1.0 / N if N is not None else 0.0)
    return (y - 1) + 2 * K * tail


def ta_access_bound(d: int, N: int, K: int) -> float:
    """Fagin's bound on the pairs Algorithm 5 examines:
    ``(d+1) * N^(d/(d+1)) * K^(1/(d+1))``."""
    if d < 1 or N < 1 or K < 1:
        raise ValueError(f"need d, N, K >= 1, got d={d}, N={N}, K={K}")
    return (d + 1) * N ** (d / (d + 1)) * K ** (1 / (d + 1))
