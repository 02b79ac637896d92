"""Chordality, co-chordal covers, and dual shellings."""

import itertools
import random

import pytest

from edgeideal import chordal
from edgeideal.chordal import (
    _minimal_fills_of_complement,
    cochordal_cover_number,
    dual_shelling,
    has_induced_cycle_at_least,
    induced_cycles,
    is_chordal,
    is_chordal_bipartite,
    is_cochordal,
    is_cochordal_cover,
    is_cochordal_edge_subset,
    is_dual_shelling,
    is_weakly_chordal,
    star_cover,
)
from edgeideal.families import complete, complete_bipartite, cycle, disjoint_union, path, whisker
from edgeideal.graphs import Graph, complement, parse_graph
from edgeideal.invariants import min_maximal_matching_number
from edgeideal.limits import Caps, ResourceLimitError
from edgeideal.smallgraphs import all_graphs, connected_graphs

from oracles import (
    _induces_cycle,
    brute_cochordal_cover_number,
    brute_is_chordal,
    brute_is_cochordal,
    brute_minimal_fills,
    random_graph,
)


def _pool(seed: int, count: int, n: int = 6, p: float = 0.5):
    rng = random.Random(seed)
    return [random_graph(rng, n, p) for _ in range(count)]


def test_is_chordal_fixtures():
    assert is_chordal(path(5))
    assert is_chordal(complete(4))
    assert is_chordal(cycle(3))
    assert not is_chordal(cycle(4))
    assert not is_chordal(cycle(6))
    assert is_chordal(whisker(complete(3)))
    assert is_chordal(Graph([]))


def test_is_chordal_matches_brute_force():
    graphs = [g for n in range(1, 6) for g in all_graphs(n)] + _pool(23, 40)
    for g in graphs:
        assert is_chordal(g) == brute_is_chordal(g), g.to_text()
        assert is_cochordal(g) == brute_is_cochordal(g), g.to_text()


def test_has_induced_cycle_at_least():
    assert has_induced_cycle_at_least(cycle(7), 7)
    assert not has_induced_cycle_at_least(cycle(7), 8)
    # the chords cut the hexagon into four-cycles
    g = parse_graph("x1 x2\nx2 x3\nx3 x4\nx4 x5\nx5 x6\nx6 x1\nx3 x6\nx2 x5")
    assert has_induced_cycle_at_least(g, 4)
    assert not has_induced_cycle_at_least(g, 5)
    with pytest.raises(ValueError):
        has_induced_cycle_at_least(g, 3)


def test_induced_cycles_enumeration():
    assert induced_cycles(cycle(5)) == [("x1", "x2", "x3", "x4", "x5")]
    g = parse_graph("x1 x2\nx2 x3\nx3 x4\nx4 x5\nx5 x6\nx6 x1\nx3 x6")
    cycles = induced_cycles(g)
    assert cycles == [("x1", "x2", "x3", "x6"), ("x3", "x4", "x5", "x6")]
    assert induced_cycles(path(6)) == []
    assert induced_cycles(complete(4), min_length=4) == []


def test_chordless_cycle_search_matches_a_subset_scan():
    for n in range(1, 7):
        for g in all_graphs(n):
            brute = [
                frozenset(verts)
                for size in range(3, n + 1)
                for verts in itertools.combinations(g.vertices, size)
                if _induces_cycle(g, verts)
            ]
            cycles = induced_cycles(g)
            assert sorted(map(frozenset, cycles), key=sorted) == sorted(brute, key=sorted)
            for cyc in cycles:
                assert all(g.has_edge(u, v) for u, v in zip(cyc, cyc[1:] + cyc[:1]))
            for length in range(4, 8):
                assert has_induced_cycle_at_least(g, length) == any(
                    len(c) >= length for c in brute
                ), (g.to_text(), length)


def test_weakly_chordal_and_chordal_bipartite():
    assert is_weakly_chordal(cycle(4))
    assert not is_weakly_chordal(cycle(5))
    assert is_weakly_chordal(path(7))
    assert is_chordal_bipartite(complete_bipartite(3, 3))
    assert not is_chordal_bipartite(cycle(6))
    assert not is_chordal_bipartite(cycle(5))  # not even bipartite


def test_cochord_cycle_fixtures():
    # cochord(C_n) = ceil(n/3) for n >= 5; the square is already co-chordal
    assert cochordal_cover_number(cycle(3))[0] == 1
    assert cochordal_cover_number(cycle(4))[0] == 1
    assert cochordal_cover_number(cycle(5))[0] == 2
    assert cochordal_cover_number(cycle(6))[0] == 2
    assert cochordal_cover_number(cycle(7))[0] == 3
    assert cochordal_cover_number(cycle(8))[0] == 3
    assert cochordal_cover_number(cycle(9))[0] == 3


def test_cochord_disjoint_union_fixture():
    g = disjoint_union([cycle(5), path(2)])
    assert cochordal_cover_number(g)[0] == 3


def test_cochord_empty_graph():
    number, cover = cochordal_cover_number(Graph(["a", "b"], []))
    assert number == 0 and cover.parts == ()


def test_cochord_matches_brute_force_with_valid_witness():
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    graphs += _pool(5, 25, n=6, p=0.5)
    for g in graphs:
        number, cover = cochordal_cover_number(g)
        assert number == brute_cochordal_cover_number(g), g.to_text()
        assert cover.size == number
        assert is_cochordal_cover(g, cover)


def test_cochord_matches_brute_force_on_all_connected_six_vertex_graphs():
    graphs = connected_graphs(6)
    assert len(graphs) == 112
    for g in graphs:
        number, cover = cochordal_cover_number(g)
        assert number == brute_cochordal_cover_number(g), g.to_text()
        assert cover.size == number
        assert is_cochordal_cover(g, cover), g.to_text()


def test_minimal_fills_match_a_size_ordered_subset_scan():
    # same fills in the same order: the cover witness is picked by position
    graphs = [g for n in range(2, 7) for g in connected_graphs(n)]
    graphs += [cycle(7), whisker(cycle(4))]
    for g in graphs:
        if not is_cochordal(g):
            fills = _minimal_fills_of_complement(g)
            assert fills == brute_minimal_fills(g), g.to_text()


def test_cochord_of_fourteen_cycle_with_long_chords():
    # 14 vertices and 21 edges: far too many edge subsets to scan
    c = cycle(14)
    chords = [(c.vertices[i], c.vertices[i + 7]) for i in range(7)]
    g = Graph(c.vertices, list(c.edges) + chords)
    number, cover = cochordal_cover_number(g)
    assert number == 4 and cover.size == 4
    assert is_cochordal_cover(g, cover)


def test_star_cover_is_a_cover_of_matching_size():
    for g in [cycle(6), cycle(8), whisker(cycle(4))] + _pool(9, 15):
        cover = star_cover(g)
        assert is_cochordal_cover(g, cover)
        assert cover.size == min_maximal_matching_number(g)


def test_cochordal_edge_subset_checker():
    g = cycle(6)
    assert is_cochordal_edge_subset(g, [("x1", "x2"), ("x2", "x3")])
    # two opposite edges of the hexagon induce a disjoint pair
    assert not is_cochordal_edge_subset(g, [("x1", "x2"), ("x4", "x5")])


def test_dual_shelling_exists_exactly_for_cochordal_graphs():
    for g in [g for n in range(1, 6) for g in all_graphs(n)] + _pool(31, 25):
        shelling = dual_shelling(g)
        if is_cochordal(g):
            assert shelling is not None
            assert is_dual_shelling(g, shelling)
        else:
            assert shelling is None


def test_dual_shelling_checker_rejects_bad_orders():
    from edgeideal.chordal import DualShelling

    g = cycle(4)
    good = dual_shelling(g)
    assert is_dual_shelling(g, good)
    # opposite first two edges leave an induced disjoint pair in the prefix
    bad = DualShelling(order=(("x1", "x2"), ("x3", "x4"), ("x2", "x3"), ("x1", "x4")))
    assert not is_dual_shelling(g, bad)
    assert not is_dual_shelling(g, DualShelling(order=(("x1", "x2"),)))


def test_complement_of_chordal_detection_agrees():
    for g in _pool(41, 20):
        assert is_cochordal(g) == is_chordal(complement(g))


def test_caps_are_enforced():
    with pytest.raises(ResourceLimitError):
        cochordal_cover_number(cycle(8), Caps(max_vertices=4))
    with pytest.raises(ResourceLimitError):
        dual_shelling(cycle(8), Caps(max_edges=3))


def test_fill_state_cap_is_enforced_and_named(monkeypatch):
    monkeypatch.setattr(chordal, "_MAX_FILL_STATES", 2)
    with pytest.raises(ResourceLimitError, match="_MAX_FILL_STATES"):
        cochordal_cover_number(cycle(9))
    # a co-chordal graph needs no fill search at all
    monkeypatch.setattr(chordal, "_MAX_FILL_STATES", 0)
    assert cochordal_cover_number(cycle(4))[0] == 1
