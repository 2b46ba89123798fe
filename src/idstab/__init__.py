"""Exact toolkit for the independent domination number and its vertex-removal stability.

Everything runs on immutable bitmask graphs of order at most 64: exact
branch-and-bound solvers with canonical witnesses, definition-direct
oracles to referee them, generators for the usual graph families, the join /
Cartesian / lexicographic / corona operations, a claim auditor with
counterexample certificates, and graph6 / edge-list codecs.
"""

from . import errors
from .auditor import (
    AuditReport,
    Claim,
    ExhaustiveCorpus,
    FamilyCorpus,
    Graph6Corpus,
    PairCorpus,
    claim_registry,
    enumerate_labeled_graphs,
    get_claim,
    run_audit,
)
from .codec import decode_graph6, emit_edgelist, encode_graph6, parse_edgelist
from .core import (
    MAX_ORDER,
    DegreeProfile,
    Graph,
    SetClassification,
    VertexSet,
    build_graph,
    classify_set,
    complement,
    components,
    degree_stats,
    delete_vertices,
)
from .families import FamilySpec, generate, parse_family_spec
from .ops import cartesian, corona, disjoint_union, join, lexicographic
from .oracles import oracle_gamma_i, oracle_stability
from .solver import (
    GammaCertificate,
    alpha,
    gamma,
    gamma_i,
    gamma_i_value,
    gamma_value,
    max_induced_star,
)
from .stability import Direction, StabilityCertificate, stability

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Claim",
    "DegreeProfile",
    "Direction",
    "ExhaustiveCorpus",
    "FamilyCorpus",
    "FamilySpec",
    "GammaCertificate",
    "Graph",
    "Graph6Corpus",
    "MAX_ORDER",
    "PairCorpus",
    "SetClassification",
    "StabilityCertificate",
    "VertexSet",
    "alpha",
    "build_graph",
    "cartesian",
    "claim_registry",
    "classify_set",
    "complement",
    "components",
    "corona",
    "decode_graph6",
    "degree_stats",
    "delete_vertices",
    "disjoint_union",
    "emit_edgelist",
    "encode_graph6",
    "enumerate_labeled_graphs",
    "errors",
    "gamma",
    "gamma_i",
    "gamma_i_value",
    "gamma_value",
    "generate",
    "get_claim",
    "join",
    "lexicographic",
    "max_induced_star",
    "oracle_gamma_i",
    "oracle_stability",
    "parse_edgelist",
    "parse_family_spec",
    "run_audit",
    "stability",
]
