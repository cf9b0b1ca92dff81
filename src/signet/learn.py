"""Parameter learning: EM for the wedge-closure rate and alternating
closed-form updates for the sign-correction and balance parameters.

The EM's wedge likelihoods do not depend on rho, so they are computed once
per edge orientation, with sums taken in the same order as the scalar
definition ``em_edge_responsibility``. A term's weight 1/(d_i d_k) belongs
to its key edge (i, k), so it is read from one per-edge array, and each
triangle's orientation bits come from comparing its edges' endpoint sums.
Each iteration then scores every edge orientation with array expressions
written into two buffers allocated once, each responsibility equal bit for
bit to the scalar definition's.
``learn_parameters`` reads eta and the census from the input's measurement
(``metrics.stats_report``) and the wedge likelihoods from that
measurement's triangle listing, each triangle's three edge indices, which
``metrics`` keeps for the input until learn takes it: the input's
triangles are listed once across analyze and learn.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyGraphError, RhoAtOneError
from .estimators import (
    delta_random_balanced,
    delta_random_fast,
    delta_triangle_fast,
)
from .graph import SignedGraph
from .metrics import TriangleEdges, stats_report, take_triangles
from .metrics import triangle_census  # noqa: F401  (bench/tracer.py wraps it here)

log = logging.getLogger(__name__)

RHO_EPS = 1e-6
RHO_INIT = 0.5  # EM's starting rho
AB_MAX_ITERS = 100  # cap and tolerance of the alpha/beta alternation
AB_TOL = 1e-6
# Closed-form values within CLAMP_EPS of [0, 1] are clamped without a
# warning. Besides float noise, this covers alpha's shift when rho sits on
# its floor: a triangle-free all-positive input gives alpha = 1/(1 - RHO_EPS).
CLAMP_EPS = 2 * RHO_EPS
TERM_BLOCK = 1 << 16  # sorted wedge terms summed per numpy block


@dataclass
class LearnConfig:
    em_max_iters: int = 50
    em_tol: float = 1e-4
    seed: int = 42  # unused: learning draws no random numbers


@dataclass
class ModelParams:
    rho: float
    alpha: float
    beta: float
    eta: float
    delta_b: float
    learn_log: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "alpha": self.alpha,
            "beta": self.beta,
            "eta": self.eta,
            "delta_b": self.delta_b,
            "trace": self.learn_log,
            "warnings": self.warnings,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        return cls(
            rho=data["rho"],
            alpha=data["alpha"],
            beta=data["beta"],
            eta=data["eta"],
            delta_b=data["delta_b"],
            learn_log=data.get("trace", []),
            warnings=data.get("warnings", []),
        )


def em_edge_responsibility(
    g: SignedGraph, v_i: int, v_j: int, rho_t: float
) -> float:
    """Posterior probability that edge (v_i, v_j) came from wedge closure.

    Wedge likelihood walks every neighbor v_k of v_i and accumulates
    1/(d_i d_k) when v_k also neighbors v_j; the random-insertion
    likelihood is the chance of drawing the second endpoint from the
    sampling vector, d_j / 2M. This is the reference definition, read
    straight from the edge columns in O(M); ``em_learn_rho`` reproduces it
    for whole edge samples at once.
    """
    def row(a: int) -> list[int]:  # a's neighbours, in edge order
        at = (g.u == a) | (g.v == a)
        return (g.u[at] + g.v[at] - a).tolist()

    deg = g.degrees().tolist()
    row_i, nbrs_j = row(v_i), set(row(v_j))
    wedge = 0.0
    for v_k in row_i:
        if v_k in nbrs_j:
            wedge += 1.0 / (deg[v_i] * deg[v_k])
    w = rho_t * wedge
    if w == 0.0:
        return 0.0
    r = (1.0 - rho_t) * (deg[v_j] / (2.0 * g.m))
    return w / (w + r)


def _wedge_terms(g: SignedGraph, tri: TriangleEdges) -> tuple[np.ndarray, int]:
    """Sorted ``(2e + o) << s | key`` composites, one per wedge-likelihood
    term of ``g``'s triangle listing ``tri``, and their shift
    s = max(1, (M - 1).bit_length()).

    Slot 2e + o is edge e conditioned on its smaller (o = 0) or larger
    (o = 1) endpoint v_i. A triangle (i, j, k) gives slot (i -> j) the term
    1/(d_i d_k), keyed by the index of edge (i, k): k's place in i's row.
    Since key < 2^s, the composites sort as ``slot * M + key`` would; the
    largest, (2M - 1) << s, fits int64 while M <= 2^31. Each o compares two
    endpoint sums: with S = u + v per edge, x + a = S[xa], x + b = S[xb] and
    a + b = S[ab], and no two sums tie, as a triangle's vertices differ.
    """
    s = max(1, (g.m - 1).bit_length())
    t = len(tri.xa)
    # o of x -> a, x -> b and a -> b: x > a iff S[xb] > S[ab], x > b iff
    # S[xa] > S[ab], and a > b iff S[xa] > S[xb]. The sums are gathered
    # into the terms' own storage, so they add nothing to the terms' peak;
    # every index is in range, and mode="clip" spares take a copy of out.
    terms = np.empty(6 * t, dtype=np.int64)
    ends = g.u + g.v
    s_xa, s_xb, s_ab = (
        np.take(ends, e, out=terms[i * t:(i + 1) * t], mode="clip")
        for i, e in enumerate((tri.xa, tri.xb, tri.ab))
    )
    del ends
    bits = [s_xb > s_ab, s_xa > s_ab, s_xa > s_xb]
    del s_xa, s_xb, s_ab
    # (edge i-j, edge i-k, o) for the six orientations of each triangle,
    # two per edge: i -> j, then j -> i, whose o is the first's flipped.
    for part, (e, key, o) in enumerate([
        (tri.xa, tri.xb, bits[0]), (tri.xa, tri.ab, bits[0]),  # x -> a, a -> x
        (tri.xb, tri.xa, bits[1]), (tri.xb, tri.ab, bits[1]),  # x -> b, b -> x
        (tri.ab, tri.xa, bits[2]), (tri.ab, tri.xb, bits[2]),  # a -> b, b -> a
    ]):
        if part % 2:
            np.logical_not(o, out=o)
        out = terms[part * t:(part + 1) * t]  # (2e + o) << s | key, in place
        np.multiply(e, 2, out=out, dtype=np.int64)
        out += o
        out <<= s
        out |= key
    terms.sort()
    return terms, s


def wedge_likelihoods(g: SignedGraph, tri: TriangleEdges) -> np.ndarray:
    """Wedge likelihood of every edge orientation, indexed by slot 2e + o,
    from ``g``'s triangle listing ``tri``.

    Equal bit for bit to the ``wedge`` sum of ``em_edge_responsibility``:
    each slot's terms are summed by ``np.bincount`` in key order, which is
    the order of the scalar walk over v_i's row, and a block never splits a
    slot. A term's weight 1/(d_i d_k) is its key edge's 1/(d_u d_v), taken
    once per edge from the exact int64 degree product.
    """
    deg = g.degrees()
    inv = 1.0 / (deg[g.u] * deg[g.v])  # the weight of every term keyed by edge e
    del deg  # per vertex: not needed alongside the terms
    terms, s = _wedge_terms(g, tri)
    mask = (1 << s) - 1
    wedge = np.zeros(2 * g.m)
    start = 0
    while start < len(terms):
        stop = min(start + TERM_BLOCK, len(terms))
        if stop < len(terms):
            stop = int(np.searchsorted(terms, ((terms[stop - 1] >> s) + 1) << s))
        block = terms[start:stop]
        slot = block >> s
        wedge[slot[0]:slot[-1] + 1] = np.bincount(
            slot - slot[0], weights=inv[block & mask]
        )
        start = stop
    return wedge


def em_responsibilities(
    rho: float, wedge: np.ndarray, random_lik: np.ndarray, out: np.ndarray, spare: np.ndarray
) -> np.ndarray:
    """``em_edge_responsibility`` of edge orientations, elementwise, from their
    wedge and random-insertion likelihoods, written into and returned as
    ``out``; ``spare`` is scratch of the same length. Every wedge likelihood
    must be nonzero, so that w + r > 0 even at rho = 1."""
    w = np.multiply(rho, wedge, out=out)
    r = np.multiply(1.0 - rho, random_lik, out=spare)
    return np.divide(w, np.add(w, r, out=spare), out=out)


def em_learn_rho(
    g: SignedGraph, cfg: LearnConfig, wedge: np.ndarray
) -> tuple[float, list[dict]]:
    """EM iteration: average responsibilities over all 2M edge orientations,
    given the wedge likelihoods (``wedge_likelihoods``) of ``g``.

    A deterministic full-batch fixed point. An orientation without wedge
    likelihood has responsibility 0, so only the others are scored, every
    iteration into the same two buffers.
    Returns the final rho (clamped away from {0, 1}) and the trace.
    """
    if g.m == 0:
        raise EmptyGraphError("cannot learn on an empty graph")
    scored = wedge != 0.0
    wedge = wedge[scored]
    # Random-insertion likelihood d_j / 2M of the far endpoint, per slot.
    far = np.stack((g.v, g.u), axis=1).ravel()[scored]
    random_lik = g.degrees()[far] / (2.0 * g.m)
    del scored, far
    out, spare = np.empty_like(wedge), np.empty_like(wedge)
    rho = RHO_INIT
    trace = []
    for it in range(cfg.em_max_iters):
        resp = em_responsibilities(rho, wedge, random_lik, out, spare)
        new_rho = float(resp.sum()) / (2 * g.m)
        delta = abs(new_rho - rho)
        trace.append({"iteration": it, "rho": new_rho, "delta": delta})
        rho = new_rho
        if delta < cfg.em_tol:
            break
    return min(max(rho, RHO_EPS), 1.0 - RHO_EPS), trace


def update_beta(
    delta_b: float,
    delta_random: float,
    delta_random_balanced: float,
    delta_triangle: float,
) -> float:
    """Closed-form balance parameter given the expected triangles per
    random insertion (all and balanced) and per wedge closure, unclamped."""
    return (
        delta_b * (delta_triangle + delta_random) - delta_random_balanced
    ) / delta_triangle


def eta_triangle(eta: float, beta: float) -> float:
    """Probability a wedge-closure edge comes out positive."""
    same = eta * eta + (1.0 - eta) * (1.0 - eta)
    mixed = 2.0 * eta * (1.0 - eta)
    return beta * same + (1.0 - beta) * mixed


def update_alpha(eta: float, rho: float, beta: float) -> float:
    """Sign-correction probability for random insertions, unclamped."""
    if rho >= 1.0:
        raise RhoAtOneError("alpha update undefined at rho = 1")
    return (eta - rho * eta_triangle(eta, beta)) / (1.0 - rho)


def learn_parameters(g: SignedGraph, cfg: Optional[LearnConfig] = None) -> ModelParams:
    """Full learning pass: measure the input, EM for rho, then alternate
    the beta and alpha closed-form updates, each clamped to [0, 1], until
    they stop moving. A final value that left [-CLAMP_EPS, 1 + CLAMP_EPS]
    before its clamp is warned about once, except alpha when rho ends at
    its cap 1 - RHO_EPS: the cap is warned about instead, without alpha's
    raw value, whose size RHO_EPS then sets rather than the data.

    eta and the census come from ``stats_report(g)``, which measures ``g``
    unless that was done before, and the wedge likelihoods from the
    listing it kept, which is no longer kept once they are computed.
    """
    cfg = cfg or LearnConfig()
    warnings: list[str] = []
    stats = stats_report(g)
    eta, delta_b = stats.eta, stats.delta_b
    if stats.census.total == 0:
        msg = "input graph has no triangles; delta_b set to 0"
        log.warning(msg)
        warnings.append(msg)

    wedge = wedge_likelihoods(g, take_triangles(g))
    rho, em_trace = em_learn_rho(g, cfg, wedge)

    degrees = g.degrees()
    dr = delta_random_fast(degrees, g.m)
    dt = delta_triangle_fast(degrees, g.m)

    alpha, beta = eta, delta_b
    ab_trace = []
    for it in range(AB_MAX_ITERS):
        drb = delta_random_balanced(dr, eta, alpha)
        raw_beta = update_beta(delta_b, dr, drb, dt)
        new_beta = min(max(raw_beta, 0.0), 1.0)
        raw_alpha = update_alpha(eta, rho, new_beta)
        new_alpha = min(max(raw_alpha, 0.0), 1.0)
        move = max(abs(new_alpha - alpha), abs(new_beta - beta))
        ab_trace.append(
            {"iteration": it, "alpha": new_alpha, "beta": new_beta, "delta": move}
        )
        alpha, beta = new_alpha, new_beta
        if move < AB_TOL:
            break
    for name, raw in (("beta", raw_beta), ("alpha", raw_alpha)):
        if name == "alpha" and rho == 1.0 - RHO_EPS:
            # Raw alpha divides by 1 - rho, so RHO_EPS sets its size here.
            msg = (f"rho clamped to its cap 1 - {RHO_EPS:g}, so alpha is not "
                   f"identified (set to {alpha:g})")
        elif not -CLAMP_EPS <= raw <= 1.0 + CLAMP_EPS:
            msg = f"{name}={raw:.4f} clamped to [0, 1]"
        else:
            continue
        log.warning(msg)
        warnings.append(msg)

    return ModelParams(
        rho=rho,
        alpha=alpha,
        beta=beta,
        eta=eta,
        delta_b=delta_b,
        learn_log=[{"em": em_trace, "alternating": ab_trace}],
        warnings=warnings,
    )
