"""Non-matching complexes of graphs, at desk scale.

The package computes with the simplicial complex of subgraphs whose matching
number stays below a threshold: its homology over finite fields and the
rationals, Leray-type vanishing checks, discrete Morse matchings realising
the vanishing bounds constructively, the Gallai-Edmonds decomposition that
drives those constructions, and rainbow-matching theorem verification.
"""

from .errors import (
    CapExceededError,
    EmptyFamilyError,
    FormatError,
    HypothesisError,
    InternalCheckError,
    MonotonicityError,
    NonmatchingError,
)
from .graphs import (
    GallaiEdmondsDecomposition,
    Graph,
    Matching,
    automorphisms,
    canonical_form,
    gallai_edmonds,
    graph_isomorphism_classes,
    has_perfect_matching,
    is_factor_critical,
    is_y_factor_critical,
    is_yz_factor_critical,
    load_graph,
    matching_number,
    maximum_matching,
    maximum_matchings,
    parse_graph,
    subdivided_complete_graph,
)
from .complexes import (
    FamilySpec,
    GroundSet,
    SimplicialComplex,
    build_nm_complex,
    enumerate_family,
    induced_subcomplex,
    link,
)
from .homology import (
    GF2,
    RATIONAL,
    BettiTable,
    FieldSpec,
    check_leray,
    check_near_leray,
    reduced_betti,
    vanishing_from,
)
from .morse import (
    MatchingReport,
    boolean_matching,
    cluster_union,
    is_acyclic,
    join_matching,
    projection_matching,
    validate_matching,
)
from .constructions import (
    build_bfc_matching,
    build_fc_matching,
    build_link_matching_bipartite,
    build_link_matching_complete,
    build_pm_matching,
)
from .rainbow import (
    RainbowCertificate,
    RainbowInstance,
    find_rainbow_matching,
    labelled_nm_complex,
    search_tightness,
    verify_hypotheses,
    verify_theorem,
    verify_topological_helly_conclusion,
)

__version__ = "0.1.0"
