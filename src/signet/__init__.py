"""Balanced signed Chung-Lu modeling toolkit for signed networks."""

from .baseline import analytic_triangle_distribution, stcl_generate
from .evaluate import evaluate
from .generate import generate
from .graph import Sign, SignedGraph, build_graph, build_sampling_vector
from .io import ingest_ratings, read_canonical, read_graph, write_canonical
from .learn import LearnConfig, ModelParams, learn_parameters
from .metrics import (
    GraphStats,
    TriangleCensus,
    balanced_fraction,
    compute_eta,
    local_clustering,
    stats_report,
    triangle_census,
)

__all__ = [
    "Sign",
    "SignedGraph",
    "build_graph",
    "build_sampling_vector",
    "ingest_ratings",
    "read_canonical",
    "read_graph",
    "write_canonical",
    "GraphStats",
    "TriangleCensus",
    "compute_eta",
    "balanced_fraction",
    "local_clustering",
    "stats_report",
    "triangle_census",
    "LearnConfig",
    "ModelParams",
    "learn_parameters",
    "generate",
    "evaluate",
    "stcl_generate",
    "analytic_triangle_distribution",
]

__version__ = "0.1.0"
