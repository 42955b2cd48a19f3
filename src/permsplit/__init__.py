"""Permutation class splittability: encodings, splitting algorithms, oracles.

Library layout:

- perms: permutations, containment, sums, symmetries, avoider enumeration
- matchings: ordered matchings, the m(π) encoding, weight, the crossing-graph
  core (one traversal gives components with BFS levels and sides; ⊎-blocks
  by index, `arc_blocks`) and the shortenings m±
- envelope: envelope matchings E(π), one walk giving path and labels, reduced
  envelopes R(π) and their decoding
- splitters: greedy three-sum, Dilworth, the recursive matching splitter,
  the one-plus pipeline `oneplus_split(sigma, colorer, rho)` (parts read off
  the colorer), circle-graph coloring
- constructions: witness matchings N±, witness permutations τ(N) (route c's
  parts are tau_of(n_plus(σ), σ) and tau_of(n_minus(σ), σ)), the splitting
  router and splittability classifier
- oracle: independent brute-force verification and Ramsey-style searches
- cli: batch command line (`permsplit`)
"""

from .constructions import (
    classify_pattern,
    m_prime,
    n_minus,
    n_plus,
    tau_of,
    theorem_certificate,
    theorem_split,
)
from .envelope import (
    EnvelopeDecomposition,
    decode_envelope,
    envelope_of,
    matching_to_perm,
    reduced_envelope,
)
from .errors import PreconditionError, VerificationError
from .matchings import (
    Matching,
    is_connected,
    m_minus,
    m_of,
    m_plus,
    matching_contains,
    perm_of,
    weight,
)
from .oracle import (
    MarkedPermutation,
    VerificationReport,
    ama_coloring,
    amalgamation_search,
    merge_check,
    merge_member,
    unavoidable_witness,
    verify_splitting,
)
from .perms import (
    Embedding,
    Permutation,
    contains,
    direct_sum,
    enumerate_avoiders,
    inflate,
    inflate_lr_minima,
    is_simple,
    lr_minima,
    skew_sum,
    sum_splits,
)
from .splitters import (
    ColoringCertificate,
    MatchingSplitState,
    SplittingSpec,
    circle_color,
    dilworth_split,
    easy_split_parts,
    greedy_three_sum,
    match_split,
    oneplus_split,
)

__version__ = "0.1.0"
