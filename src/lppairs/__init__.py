"""Legendre pair search via compressed complementary sequences.

A Legendre pair of odd length l is a pair of binary sequences whose
periodic autocorrelations sum to a constant at every nonzero lag.  For
composite l = d1 * d2 with coprime factors, each member compresses to a
short integer sequence per factor, the compressed pairs can be enumerated
directly, and every full-length preimage of a compressed pair is a binary
matrix with fixed row and column sums.  This package implements that
pipeline end to end: cyclic sequence algebra, exact spectral tests,
compression and the CRT reshape, matrix enumeration, compressed-pair
generation, and the assembled search with checkpointing, plus brute-force
oracles used by the test suite.
"""

from .bmfm import MarginalInstance, count, enumerate_matrices, feasible, solutions
from .compress import BinaryMatrix, CrtContext, compress, theta, theta_inv
from .cyclic import decimation_canon, multiplier_group
from .errors import InvariantViolation
from .pairgen import CompressedCandidate, CompressedPair, enum_candidates, expand_pairs, match_pairs
from .search import (
    LegendrePairRecord,
    SearchConfig,
    SearchTask,
    build_tasks,
    canonicalize_lp,
    compressed_census,
    correlation_energy,
    run_search,
    run_task,
)
from .spectral import dft, divisor_psd_check, exact_complementary, paf, psd

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "CompressedCandidate",
    "CompressedPair",
    "CrtContext",
    "InvariantViolation",
    "LegendrePairRecord",
    "MarginalInstance",
    "SearchConfig",
    "SearchTask",
    "build_tasks",
    "canonicalize_lp",
    "compress",
    "compressed_census",
    "correlation_energy",
    "count",
    "decimation_canon",
    "dft",
    "divisor_psd_check",
    "enum_candidates",
    "enumerate_matrices",
    "exact_complementary",
    "expand_pairs",
    "feasible",
    "match_pairs",
    "multiplier_group",
    "paf",
    "psd",
    "run_search",
    "run_task",
    "solutions",
    "theta",
    "theta_inv",
]
