"""Edge ideals of finite simple graphs: combinatorial invariants, derived
graphs of colon ideals, a brute-force Betti/regularity oracle, and a harness
that machine-checks the regularity bounds the package implements."""

from .betti import BettiTable, betti_table, has_linear_resolution, reg_power, regularity
from .chordal import (
    CochordalCover,
    DualShelling,
    cochordal_cover_number,
    dual_shelling,
    induced_cycles,
    is_chordal,
    is_chordal_bipartite,
    is_cochordal,
    is_cochordal_cover,
    is_dual_shelling,
    is_weakly_chordal,
    star_cover,
)
from .evenconnection import (
    EvenWalkCertificate,
    even_connected_pairs,
    gprime,
    gprime_algebraic,
    is_even_connected,
    pendant_label,
    validate_even_walk,
)
from .families import (
    add_pendants,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    is_whiskered,
    path,
    pendant_cycle_star,
    whisker,
)
from .graphs import Bipartition, Graph, bipartition, complement, induced_subgraph, is_bipartite, parse_graph
from .homology import SimplicialComplex, matrix_rank, reduced_homology_ranks
from .invariants import (
    dominating_induced_matching,
    has_dominating_induced_matching,
    independence_number,
    induced_matching_number,
    is_unmixed,
    matching_number,
    maximum_induced_matching,
    maximum_matching,
    min_maximal_matching_number,
    minimal_vertex_covers,
    minimum_maximal_matching,
)
from .limits import Caps, ResourceLimitError, default_caps
from .monomials import (
    Monomial,
    MonomialIdeal,
    colon_by_monomial,
    edge_ideal,
    ideal_from_text,
    iterated_colon,
    polarize,
    power,
)
from .regbounds import (
    CheckConfig,
    CheckRecord,
    ExactRegularity,
    GapReport,
    RegularityReport,
    check_theorems,
    gap_search,
    reg_exact_class,
    reg_lower_bound,
    reg_upper_bound_bipartition,
    reg_upper_bound_cochord,
    reg_upper_bound_matching,
    russ_lower_bound,
    russ_lower_bound_witness,
)
from .smallgraphs import (
    all_graphs,
    connected_bipartite_graphs,
    connected_graphs,
    enumerate_family,
    forests,
    trees,
)

__version__ = "0.1.0"
