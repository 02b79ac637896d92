"""End-to-end acceptance battery.

One test per shipped guarantee, ordered so `pytest -v` reads as a
checklist: exact colon-ideal fixtures, oracle-vs-formula agreement,
invariant fixtures, derived-graph preservation, regularity sandwiches,
non-bipartite regression pins, power-regularity spot checks, and the
random witness/homology battery.  Every expected value here was either
computed by an independent oracle or derived from a closed formula that
the unit suites exercise separately.
"""

import random
import time
from itertools import combinations_with_replacement

from edgeideal.betti import (
    has_linear_resolution,
    koszul_complex,
    lcm_lattice,
    reg_power,
    regularity,
)
from edgeideal.chordal import (
    cochordal_cover_number,
    dual_shelling,
    is_cochordal,
    is_cochordal_cover,
    is_dual_shelling,
)
from edgeideal.evenconnection import (
    even_connected_pairs,
    gprime,
    gprime_algebraic,
    validate_even_walk,
)
from edgeideal.families import cycle, disjoint_union, path
from edgeideal.graphs import bipartition, parse_graph
from edgeideal.homology import reduced_homology_ranks
from edgeideal.invariants import (
    dominating_induced_matching,
    independence_number,
    induced_matching_number,
    is_dominating_induced_matching_set,
    is_induced_matching,
    is_matching,
    is_maximal_matching,
    is_minimal_vertex_cover,
    is_nk2_free,
    is_pk_free,
    is_unmixed,
    matching_number,
    maximum_induced_matching,
    maximum_matching,
    min_maximal_matching_number,
    minimal_vertex_covers,
    minimum_maximal_matching,
)
from edgeideal.monomials import (
    Monomial,
    colon_by_monomial,
    edge_ideal,
    iterated_colon,
    polarize,
    power,
)
from edgeideal.regbounds import reg_exact_class, reg_upper_bound_cochord
from edgeideal.smallgraphs import (
    connected_bipartite_graphs,
    connected_graphs,
    forests,
)

from oracles import random_graph

FIVE_CYCLE_WITH_CHORD = parse_graph(
    "x1 x2\nx1 x5\nx2 x5\nx2 x3\nx3 x4\nx4 x5"
)
UNMIXED_TRIANGLE = parse_graph(
    "x1 x4\nx1 x2\nx1 x3\nx2 x3\nx2 x5\nx3 x6"
)
EIGHT_VERTEX = parse_graph(
    "x1 x7\nx1 x2\nx2 x3\nx2 x6\nx3 x4\nx3 x5\nx4 x5\nx6 x8"
)


def _gens_text(ideal) -> set:
    return {g.to_text(ideal.variables) for g in ideal.generators}


def _mono(ideal, text: str) -> Monomial:
    return Monomial.from_text(text, ideal.variables)


def test_colon_ideal_fixtures_are_generator_exact():
    start = time.perf_counter()

    # square of the chorded five-cycle, colon by the chord
    i5 = edge_ideal(FIVE_CYCLE_WITH_CHORD)
    q5 = colon_by_monomial(power(i5, 2), _mono(i5, "x2*x5"))
    assert _gens_text(q5) == _gens_text(i5) | {"x1^2", "x1*x3", "x1*x4"}

    # square of the triangle, colon by one edge, polarized
    i3 = edge_ideal(cycle(3))
    p3, fresh3 = polarize(colon_by_monomial(power(i3, 2), _mono(i3, "x1*x3")))
    assert _gens_text(p3) == {"x1*x2", "x1*x3", "x2*x3", "x2*x2#2"}
    assert fresh3 == {"x2#2": "x2"}

    # cube of the hexagon, colon by the product of two opposite edges
    i6 = edge_ideal(cycle(6))
    q6 = colon_by_monomial(power(i6, 3), _mono(i6, "x2*x3*x4*x5"))
    assert _gens_text(q6) == _gens_text(i6) | {"x1*x4", "x3*x6"}

    # square of the unmixed triangle-with-pendants, colon by x1*x2, polarized
    iu = edge_ideal(UNMIXED_TRIANGLE)
    pu, freshu = polarize(colon_by_monomial(power(iu, 2), _mono(iu, "x1*x2")))
    assert _gens_text(pu) == _gens_text(iu) | {
        "x4*x5", "x3*x5", "x4*x3", "x3*x3#2"
    }
    assert freshu == {"x3#2": "x3"}

    assert time.perf_counter() - start < 1.0


def test_regularity_oracle_matches_closed_formulas():
    # cycles: floor(n/3) + 1, one more when n = 2 mod 3
    assert [regularity(edge_ideal(cycle(n))) for n in range(3, 9)] == [
        2, 2, 3, 3, 3, 4,
    ]

    # the hexagon drops from 3 to 2 after the two-edge colon step
    i6 = edge_ideal(cycle(6))
    q6 = colon_by_monomial(power(i6, 3), _mono(i6, "x2*x3*x4*x5"))
    assert regularity(i6) == 3
    assert regularity(q6) == 2

    # lone cycles settle onto 2s + floor(n/3) - 1 from the second power on;
    # the s = 1 bump for n = 2 mod 3 does not persist
    assert reg_power(cycle(5), 2) == 4

    # every forest: 2s + (induced matching number) - 1, exactly
    for g in forests(7):
        if not g.edges:
            continue
        nu = induced_matching_number(g)
        for s in (1, 2):
            assert reg_power(g, s) == 2 * s + nu - 1, (g.edges, s)


def test_invariant_fixtures_on_chorded_hexagon_and_cycles():
    start = time.perf_counter()
    g = parse_graph(
        "x1 x2\nx2 x3\nx3 x4\nx4 x5\nx5 x6\nx1 x6\nx3 x6\nx2 x5"
    )
    assert matching_number(g) == 3
    assert min_maximal_matching_number(g) == 2
    assert induced_matching_number(g) == 1
    assert independence_number(g) == 3

    assert cochordal_cover_number(cycle(8))[0] == 3
    assert cochordal_cover_number(cycle(6))[0] == 2
    assert cochordal_cover_number(disjoint_union([cycle(5), path(2)]))[0] == 3
    assert time.perf_counter() - start < 10.0


def test_derived_graph_preservation_on_bipartite_graphs():
    checked = 0
    for n in range(2, 8):
        for g in connected_bipartite_graphs(n):
            if not g.edges:
                continue
            sides = bipartition(g)
            left = set(sides.left)
            nu = induced_matching_number(g)
            cochord = cochordal_cover_number(g)[0]
            unmixed = is_unmixed(g)
            p6_free = is_pk_free(g, 6)
            for size in (1, 2):
                for ms in combinations_with_replacement(g.edges, size):
                    gp = gprime(g, list(ms))
                    ga = gprime_algebraic(g, list(ms))
                    assert set(gp.vertices) == set(ga.vertices)
                    assert frozenset(gp.edges) == frozenset(ga.edges)

                    # same sides: no pendants, every new edge crosses
                    assert set(gp.vertices) == set(g.vertices)
                    assert all((u in left) != (v in left) for u, v in gp.edges)

                    assert induced_matching_number(gp) <= nu
                    assert cochordal_cover_number(gp)[0] <= cochord
                    if unmixed:
                        assert is_unmixed(gp)
                    if p6_free:
                        assert is_pk_free(gp, 6)
                    assert is_nk2_free(gp, nu + 1)
                    checked += 1
    assert checked == 2512


def test_regularity_sandwich_on_small_graphs():
    for n in range(1, 8):
        for g in connected_graphs(n):
            if not g.edges:
                continue
            nu = induced_matching_number(g)
            cochord = cochordal_cover_number(g)[0]
            reg = regularity(edge_ideal(g))
            assert nu + 1 <= reg <= cochord + 1, g.edges

    # second powers on every connected bipartite graph with 2..6 vertices
    for n in range(2, 7):
        for g in connected_bipartite_graphs(n):
            if not g.edges:
                continue
            nu = induced_matching_number(g)
            cochord = cochordal_cover_number(g)[0]
            reg2 = reg_power(g, 2)
            assert 4 + nu - 1 <= reg2 <= 4 + cochord - 1, g.edges


def test_non_bipartite_caveats_pin_down_failure_modes():
    # an unmixed graph with an odd cycle can lose unmixedness
    assert is_unmixed(UNMIXED_TRIANGLE)
    gp = gprime(UNMIXED_TRIANGLE, [("x1", "x2")])
    assert not is_unmixed(gp)

    # one-shot colon by a product differs from the iterated edge-by-edge
    # colon, and only the iterated result has a linear resolution
    ideal = edge_ideal(EIGHT_VERTEX)
    one_shot, _ = polarize(
        colon_by_monomial(power(ideal, 3), _mono(ideal, "x2*x3*x4*x5"))
    )
    iterated = iterated_colon(ideal, [("x2", "x3"), ("x4", "x5")])
    assert one_shot != iterated
    assert not has_linear_resolution(one_shot)
    assert has_linear_resolution(iterated)


def test_power_regularity_spot_checks():
    # a cycle plus a far edge meets the co-chordal bound at s = 1
    g = disjoint_union([cycle(5), path(2)])
    assert reg_power(g, 1) == 4 == 2 + cochordal_cover_number(g)[0] - 1

    # the exact-class dispatch agrees with the oracle on a 0 mod 3 cycle
    h = disjoint_union([cycle(6), path(2)])
    exact = reg_exact_class(h, 1)
    assert exact is not None
    assert exact.value == regularity(edge_ideal(h))

    # strictness: the eight-cycle's second power sits below the bound
    c8 = cycle(8)
    oracle = reg_power(c8, 2)
    assert oracle == 5
    assert oracle < reg_upper_bound_cochord(c8, 2) == 6


def test_witnesses_revalidate_on_a_thousand_random_graphs():
    rng = random.Random(97)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.2, 0.35, 0.5]))
        assert is_matching(g, maximum_matching(g))
        assert is_induced_matching(g, maximum_induced_matching(g))
        assert is_maximal_matching(g, minimum_maximal_matching(g))
        assert all(is_minimal_vertex_cover(g, c) for c in minimal_vertex_covers(g))
        n, cover = cochordal_cover_number(g)
        assert is_cochordal_cover(g, cover) and len(cover.parts) == n
        sh = dual_shelling(g)
        assert (sh is not None) == (is_cochordal(g) or not g.edges)
        if sh is not None:
            assert is_dual_shelling(g, sh)
        dim = dominating_induced_matching(g)
        if dim is not None:
            assert is_dominating_induced_matching_set(g, dim)
        if not g.edges:
            continue
        ms = [rng.choice(g.edges) for _ in range(rng.randint(1, 2))]
        for u, v, cert in even_connected_pairs(g, ms):
            assert validate_even_walk(g, u, v, ms, cert)

        # Euler characteristic from faces must match the homology ranks
        ideal = edge_ideal(g)
        lattice = lcm_lattice(ideal)
        for b in lattice if len(lattice) <= 6 else rng.sample(lattice, 6):
            cx = koszul_complex(ideal, b)
            ranks = reduced_homology_ranks(cx)
            faces = cx.faces_by_dim()
            assert sum((-1) ** d * len(fs) for d, fs in faces.items()) == sum(
                (-1) ** d * r for d, r in ranks.items()
            )
