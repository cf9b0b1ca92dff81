"""Comparison of generated networks against their input."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import SignedGraph
from .metrics import TRIANGLE_TYPES, GraphStats, stats_report


def ks_statistic(degrees_a: Sequence[int], degrees_b: Sequence[int]) -> float:
    """Max gap between the empirical degree CDFs, each read at every
    integer up to the largest degree as the cumsum of a bincount. Both
    sequences must be non-empty and hold non-negative integers only;
    anything else raises ``ValueError``. Time and memory grow with the
    largest degree, which a graph's n bounds."""
    a, b = np.asarray(degrees_a), np.asarray(degrees_b)
    for d in (a, b):
        if d.dtype.kind not in "iu" or not np.can_cast(d.dtype, np.int64):
            raise ValueError(f"degrees must be integers, not {d.dtype}")
    # max raises ValueError on an empty sequence, and bincount on a
    # negative value or a nested sequence.
    size = max(int(a.max()), int(b.max())) + 1
    cdf_a = np.cumsum(np.bincount(a, minlength=size)) / len(a)
    cdf_b = np.cumsum(np.bincount(b, minlength=size)) / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def triangle_l1(dist_a: dict[str, float], dist_b: dict[str, float]) -> float:
    """L1 distance between two triangle-type distributions."""
    return sum(abs(dist_a[k] - dist_b[k]) for k in TRIANGLE_TYPES)


def _stats_block(stats: GraphStats) -> dict:
    return {
        "n": stats.n,
        "m": stats.m,
        "eta": stats.eta,
        "delta_b": stats.delta_b,
        "triangle_counts": stats.census.as_counts(),
        "triangle_distribution": stats.census.distribution(),
        "triangles_total": stats.census.total,
    }


def _delta_block(input_stats: GraphStats, gen_stats: GraphStats) -> dict:
    return {
        "abs_eta_diff": abs(gen_stats.eta - input_stats.eta),
        "abs_delta_b_diff": abs(gen_stats.delta_b - input_stats.delta_b),
        "triangle_l1": triangle_l1(
            input_stats.census.distribution(), gen_stats.census.distribution()
        ),
        "degree_ks": ks_statistic(input_stats.degrees, gen_stats.degrees),
    }


@dataclass
class EvaluationReport:
    input_stats: dict
    runs: list = field(default_factory=list)
    mean: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"input": self.input_stats, "runs": self.runs, "mean": self.mean}


def evaluate(g_input: SignedGraph, generated: Sequence[SignedGraph]) -> EvaluationReport:
    """Per-run measured properties and deltas, plus their arithmetic mean."""
    input_stats = stats_report(g_input)
    runs = []
    for idx, g in enumerate(generated):
        gs = stats_report(g)
        runs.append(
            {
                "run": idx,
                "stats": _stats_block(gs),
                "deltas": _delta_block(input_stats, gs),
            }
        )
    mean: dict = {}
    if runs:
        for key in runs[0]["deltas"]:
            mean[key] = float(np.mean([r["deltas"][key] for r in runs]))
        mean["eta"] = float(np.mean([r["stats"]["eta"] for r in runs]))
        mean["delta_b"] = float(np.mean([r["stats"]["delta_b"] for r in runs]))
        for t in TRIANGLE_TYPES:
            mean[f"triangle_{t}"] = float(
                np.mean([r["stats"]["triangle_distribution"][t] for r in runs])
            )
    return EvaluationReport(
        input_stats=_stats_block(input_stats), runs=runs, mean=mean
    )
