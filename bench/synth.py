"""Seeded, numpy-only synthesiser for the benchmark's input networks.

It deliberately imports nothing from signet, so the parent commit and a
change read byte-identical inputs for the same seed.

A network is a Chung-Lu edge set over a fixed power-law expected-degree
sequence (only the edge draws depend on the seed, so hub sizes stay put
from seed to seed) plus planted triadic closures. Chung-Lu edges are
positive with probability ``ETA0``; a closure takes the balanced sign of
its wedge with probability ``BETA0`` and the opposite sign otherwise.
Vertices left without edges are dropped and the rest relabelled by a
seeded permutation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    n0: int  # vertices in the expected-degree sequence (before dropping isolated ones)
    m: int  # undirected signed edges
    gamma: float  # power-law exponent of the expected degrees
    d_max: float  # expected degree of the largest hub


CLOSURE_FRAC = 0.3  # share of edges planted as wedge closures
ETA0 = 0.95  # P(positive) for a Chung-Lu edge
BETA0 = 0.85  # P(balanced sign) for a planted closure
RECIPROCAL = 0.65  # share of rated pairs that also get a rating back


def _weights(shape: Shape, m_cl: int) -> np.ndarray:
    """Expected degrees w_i = c (i + i0)^(-1/(gamma-1)); i0 is found by
    bisection so that the top hub expects ``d_max`` Chung-Lu edges."""
    idx = np.arange(shape.n0, dtype=np.float64)
    expo = -1.0 / (shape.gamma - 1.0)

    def top(i0: float) -> float:
        w = (idx + i0) ** expo
        return w[0] / w.sum() * 2.0 * m_cl

    lo, hi = 1e-4, float(shape.n0)
    for _ in range(60):
        mid = (lo * hi) ** 0.5
        if top(mid) > shape.d_max:
            lo = mid
        else:
            hi = mid
    w = (idx + lo) ** expo
    return w / w.sum()


def _keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    return np.minimum(u, v) * n + np.maximum(u, v)


def _first_new(keys: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each key that is not in ``taken``,
    in draw order."""
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return first[~np.isin(keys[first], taken)]


def _chung_lu(rng: np.random.Generator, p: np.ndarray, m: int):
    n = len(p)
    us, vs = np.empty(0, np.int64), np.empty(0, np.int64)
    while len(us) < m:
        k = int((m - len(us)) * 1.3) + 1024
        u = rng.choice(n, size=k, p=p)
        v = rng.choice(n, size=k, p=p)
        ok = u != v
        u, v = u[ok], v[ok]
        keep = _first_new(_keys(u, v, n), _keys(us, vs, n))
        us = np.concatenate([us, u[keep]])
        vs = np.concatenate([vs, v[keep]])
    return us[:m], vs[:m]


def _close_wedges(rng, n, us, vs, signs, count):
    """Plant ``count`` closures a-c of wedges a-b-c found by a random edge
    (a, b) and a random neighbour c of b."""
    while count > 0:
        # CSR adjacency of the current edge set.
        src = np.concatenate([us, vs])
        dst = np.concatenate([vs, us])
        sgn = np.concatenate([signs, signs])
        order = np.argsort(src, kind="stable")
        dst, sgn = dst[order], sgn[order]
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

        k = int(count * 1.5) + 256
        e = rng.integers(0, len(us), size=k)
        flip = rng.random(k) < 0.5
        a = np.where(flip, vs[e], us[e])
        b = np.where(flip, us[e], vs[e])
        s_ab = signs[e]
        deg_b = indptr[b + 1] - indptr[b]
        slot = indptr[b] + (rng.random(k) * deg_b).astype(np.int64)
        c, s_bc = dst[slot], sgn[slot]
        balanced = rng.random(k) < BETA0
        s_ac = np.where(balanced, s_ab * s_bc, -s_ab * s_bc)
        ok = a != c
        a, c, s_ac = a[ok], c[ok], s_ac[ok]
        keep = _first_new(_keys(a, c, n), _keys(us, vs, n))[:count]
        us = np.concatenate([us, a[keep]])
        vs = np.concatenate([vs, c[keep]])
        signs = np.concatenate([signs, s_ac[keep]])
        count -= len(keep)
    return us, vs, signs


def signed_network(shape: Shape, seed: int):
    """Return (n, u, v, sign) with dense ids, u != v, no duplicate pairs."""
    rng = np.random.default_rng(seed)
    m_cl = shape.m - int(round(CLOSURE_FRAC * shape.m))
    p = _weights(shape, m_cl)
    us, vs = _chung_lu(rng, p, m_cl)
    signs = np.where(rng.random(m_cl) < ETA0, 1, -1).astype(np.int64)
    us, vs, signs = _close_wedges(rng, shape.n0, us, vs, signs, shape.m - m_cl)
    used = np.unique(np.concatenate([us, vs]))
    relabel = np.full(shape.n0, -1, np.int64)
    relabel[used] = rng.permutation(len(used))
    return len(used), relabel[us], relabel[vs], signs


def canonical_tsv(shape: Shape, seed: int) -> bytes:
    """Canonical edge list ``u<TAB>v<TAB>+1|-1``, in a seeded order."""
    _, us, vs, signs = signed_network(shape, seed)
    rng = np.random.default_rng([seed, 1])
    order = rng.permutation(len(us))
    lines = [
        f"{u}\t{v}\t{s:+d}\n"
        for u, v, s in zip(us[order].tolist(), vs[order].tolist(), signs[order].tolist())
    ]
    return "".join(lines).encode()


def rating_csv(shape: Shape, seed: int) -> bytes:
    """Bitcoin-OTC-shaped ``source,target,rating,time`` rows.

    Each undirected edge becomes one rating in a random direction; a
    ``RECIPROCAL`` share also gets a rating back. Positive ratings are
    mostly small, negative ones mostly -10, as in the trust data. A few
    reciprocal ratings disagree in sign with a smaller magnitude, so the
    summed pair keeps the planted sign. Ids are sparse integers and rows
    are in time order.
    """
    n, us, vs, signs = signed_network(shape, seed)
    rng = np.random.default_rng([seed, 2])
    m = len(us)
    flip = rng.random(m) < 0.5
    src = np.where(flip, vs, us)
    dst = np.where(flip, us, vs)

    def magnitude(sign: np.ndarray) -> np.ndarray:
        pos = rng.choice(np.arange(1, 11), size=len(sign),
                         p=[.42, .25, .12, .06, .05, .03, .02, .02, .01, .02])
        neg = np.where(rng.random(len(sign)) < 0.6, 10, rng.integers(1, 10, len(sign)))
        return np.where(sign > 0, pos, neg)

    fwd = signs * magnitude(signs)
    back = np.flatnonzero(rng.random(m) < RECIPROCAL)
    disagree = rng.random(len(back)) < 0.04
    back_rating = signs[back] * magnitude(signs[back])
    # A disagreeing reply has the opposite sign and a smaller magnitude.
    strong = np.abs(fwd[back]) >= 2
    disagree &= strong
    back_rating = np.where(
        disagree,
        -signs[back] * rng.integers(1, np.maximum(np.abs(fwd[back]), 2)),
        back_rating,
    )
    rows_src = np.concatenate([src, dst[back]])
    rows_dst = np.concatenate([dst, src[back]])
    rating = np.concatenate([fwd, back_rating])
    ids = rng.choice(np.arange(1, int(n * 1.02) + 2), size=n, replace=False)
    times = np.sort(rng.integers(1_289_000_000, 1_453_000_000, size=len(rating)))
    order = rng.permutation(len(rating))
    lines = [
        f"{a},{b},{r},{t}\n"
        for a, b, r, t in zip(
            ids[rows_src[order]].tolist(), ids[rows_dst[order]].tolist(),
            rating[order].tolist(), times.tolist(),
        )
    ]
    return "".join(lines).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
