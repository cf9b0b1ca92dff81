"""Balanced signed Chung-Lu modeling toolkit for signed networks.

``generate`` and ``evaluate`` are submodules; their functions of the same
name are imported from them (``from signet.generate import generate``).
"""

from .baseline import analytic_triangle_distribution, stcl_generate
from .graph import Sign, SignedGraph, build_graph, build_sampling_vector
from .io import ingest_ratings, read_canonical, read_graph, write_canonical
from .learn import LearnConfig, ModelParams, learn_parameters
from .metrics import (
    GraphStats,
    TriangleCensus,
    compute_eta,
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
    "stats_report",
    "triangle_census",
    "LearnConfig",
    "ModelParams",
    "learn_parameters",
    "stcl_generate",
    "analytic_triangle_distribution",
]

__version__ = "0.1.0"
