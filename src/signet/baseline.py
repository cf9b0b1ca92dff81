"""STCL baseline: transitive Chung-Lu topology with i.i.d. signs, plus its
analytic expected triangle-type distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .generate import _iid_generate
from .graph import SignedGraph
from .learn import ModelParams
from .metrics import compute_eta


@dataclass(frozen=True)
class BaselineTriangleExpectation:
    """Triangle-type probabilities under i.i.d. signs with rate eta."""

    p_ppp: float
    p_ppm: float
    p_pmm: float
    p_mmm: float

    def as_dict(self) -> dict[str, float]:
        return {
            "+++": self.p_ppp,
            "++-": self.p_ppm,
            "+--": self.p_pmm,
            "---": self.p_mmm,
        }

    @property
    def balanced(self) -> float:
        return self.p_ppp + self.p_pmm


def analytic_triangle_distribution(eta: float) -> BaselineTriangleExpectation:
    """Binomial(3, eta) split of a triangle's signs."""
    q = 1.0 - eta
    return BaselineTriangleExpectation(
        p_ppp=eta**3,
        p_ppm=3.0 * eta**2 * q,
        p_pmm=3.0 * eta * q**2,
        p_mmm=q**3,
    )


def stcl_params(g_input: SignedGraph, rho: float) -> ModelParams:
    """STCL's parameters: wedge closures at rate ``rho``, and every sign
    positive with the input's probability eta (alpha = eta, beta = 0)."""
    eta = compute_eta(g_input)
    return ModelParams(rho=rho, alpha=eta, beta=0.0, eta=eta, delta_b=0.0)


def stcl_generate(g_input: SignedGraph, rho: float, seed: int) -> SignedGraph:
    """Generate with wedge closures for topology but signs drawn i.i.d.
    positive with probability eta, ignoring balance entirely. The topology
    is that of ``generate`` on the same input, rho and seed: taken from such
    a network when the caller still holds one, else from ``generate``'s own
    rounds, run here at STCL's parameters with their signs discarded.
    """
    return _iid_generate(g_input, stcl_params(g_input, rho), seed)
