"""Expected-triangle estimates for random insertion and wedge closure.

The fast paths run in O(N) using a suffix-sum dynamic program over the
degree vector. The literal pre-approximation sums they approximate are kept
in the tests as oracles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DegenerateDegreesError


def suffix_degree_sums(degrees: Sequence[int]) -> np.ndarray:
    """s[i] = sum of degrees after index i; s[n-1] = 0 (int64)."""
    d = np.asarray(degrees, dtype=np.int64)
    s = np.zeros_like(d)
    if len(d) > 1:
        s[:-1] = np.cumsum(d[::-1])[::-1][1:]
    return s


def _check_degrees(degrees: Sequence[int]) -> np.ndarray:
    d = np.asarray(degrees, dtype=np.int64)
    if d.sum() == 0:
        raise DegenerateDegreesError("all degrees are zero")
    return d


def delta_random_fast(degrees: Sequence[int], m: int) -> float:
    """Graph-average expected triangles from one random edge insertion, O(N).

    Equals (avg(d^2) - avg(d)) / (avg(d) * M * N * (N-1)) * sum_i d_i s_i
    with s the suffix degree sums.
    """
    d = _check_degrees(degrees)
    n = len(d)
    if n < 2 or m < 1:
        raise DegenerateDegreesError("need N >= 2 and M >= 1")
    avg_d = d.mean()
    avg_d2 = float((d * d).mean())
    # Sums of d_i * s_i reach ~(2M)^2, exact in int64. The means are exact
    # too: every partial sum of integers below 2^53 is a float exactly.
    total = float(np.dot(d, suffix_degree_sums(d)))
    return float((avg_d2 - avg_d) / (avg_d * m * n * (n - 1)) * total)


def delta_random_balanced(delta_random: float, eta: float, alpha: float) -> float:
    """Expected balanced triangles per random insertion.

    Wedge-type decomposition: {+,+} and {-,-} wedges close balanced with a
    positive third edge (probability alpha), mixed wedges with a negative
    one (probability 1 - alpha).
    """
    coeff = (
        alpha * eta * eta
        + (1.0 - alpha) * eta * (1.0 - eta)
        + (1.0 - alpha) * (1.0 - eta) * eta
        + alpha * (1.0 - eta) * (1.0 - eta)
    )
    return coeff * delta_random


def delta_triangle_fast(degrees: Sequence[int], m: int) -> float:
    """Graph-average expected triangles from one wedge closure, O(N).

    The explicitly closed wedge always contributes 1; the remainder counts
    implicit closures with both endpoint degrees discounted by one.
    """
    d = _check_degrees(degrees)
    n = len(d)
    if n < 3 or m < 2:
        raise DegenerateDegreesError(f"learn's triangle estimates need N >= 3 and "
                                     f"M >= 2; the input has N={n} and M={m}")
    avg_d = d.mean()
    avg_d2 = float((d * d).mean())
    idx = np.arange(1, n + 1, dtype=np.int64)
    extra = float(np.dot(d - 1, suffix_degree_sums(d) - n + idx))
    return float(1.0 + (avg_d2 - avg_d) / (avg_d * m * n * (n - 1)) * extra)
