"""Graph core: construction, parsing, and elementary structure queries."""

import pytest

from edgeideal.graphs import (
    Graph,
    bipartition,
    complement,
    disjoint_union_raw,
    induced_subgraph,
    is_bipartite,
    parse_graph,
)


def test_vertices_keep_first_appearance_order():
    g = Graph(["b", "a", "c"], [("c", "a")])
    assert g.vertices == ("b", "a", "c")
    assert g.edges == (("a", "c"),)


def test_edges_are_endpoint_ordered_and_sorted():
    g = Graph(["x2", "x1", "x3"], [("x3", "x2"), ("x1", "x3"), ("x2", "x1")])
    # endpoints flipped into vertex order, edge list sorted by index pairs
    assert g.edges == (("x2", "x1"), ("x2", "x3"), ("x1", "x3"))


def test_duplicate_edges_collapse():
    g = Graph(["a", "b"], [("a", "b"), ("b", "a"), ("a", "b")])
    assert g.edges == (("a", "b"),)


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "a")])


@pytest.mark.parametrize("label", ["a b", "a\tb", " a", "a\n"])
def test_labels_with_whitespace_rejected(label):
    # to_text writes "u v" lines, which parse_graph could not split back
    with pytest.raises(ValueError, match="whitespace"):
        Graph([label, "c"], [(label, "c")])


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "b")])


def test_degree_and_neighbors():
    g = Graph(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert g.degree("a") == 2
    assert g.degree("c") == 1
    assert g.neighbors("a") == ("b", "c")
    assert g.has_edge("c", "a") and not g.has_edge("b", "c")


def test_support_skips_isolated_vertices():
    g = Graph(["a", "b", "c"], [("a", "c")])
    assert g.support() == ("a", "c")


def test_components_and_connectivity():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert g.components() == [("a", "b"), ("c", "d")]
    assert not g.is_connected()
    assert Graph(["a"], []).is_connected()


def test_equality_is_labelwise():
    g = Graph(["a", "b"], [("a", "b")])
    h = Graph(["b", "a"], [("a", "b")])
    assert g == Graph(["a", "b"], [("b", "a")])
    assert g != h  # same edges, different vertex order


def test_parse_graph_round_trip():
    text = "# a comment\nx1 x2\n\nx2 x3\n"
    g = parse_graph(text)
    assert g.vertices == ("x1", "x2", "x3")
    assert parse_graph(g.to_text()) == g


def test_parse_graph_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_graph("x1 x2\nx3\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_graph("x1 x1\n")


def test_parse_empty_text_gives_empty_graph():
    g = parse_graph("")
    assert g.vertices == () and g.edges == ()


def test_complement_of_path():
    g = parse_graph("a b\nb c")
    assert complement(g).edges == (("a", "c"),)
    assert complement(complement(g)) == g


def test_induced_subgraph():
    g = parse_graph("a b\nb c\nc d\na d")
    h = induced_subgraph(g, ["a", "b", "c"])
    assert h.vertices == ("a", "b", "c")
    assert h.edges == (("a", "b"), ("b", "c"))
    with pytest.raises(ValueError):
        induced_subgraph(g, ["z"])


def test_bipartition_root_goes_left():
    g = parse_graph("x1 x2\nx2 x3\nx3 x4")
    b = bipartition(g)
    assert b.left == ("x1", "x3") and b.right == ("x2", "x4")


def test_bipartition_covers_every_component():
    g = Graph(["a", "b", "c"], [("a", "b")])
    b = bipartition(g)
    assert set(b.left) | set(b.right) == {"a", "b", "c"}


def test_odd_cycle_is_not_bipartite():
    assert not is_bipartite(parse_graph("a b\nb c\na c"))
    assert is_bipartite(parse_graph("a b\nb c\nc d\na d"))


def test_disjoint_union_raw_rejects_shared_labels():
    g = Graph(["a"], [])
    with pytest.raises(ValueError):
        disjoint_union_raw([g, g])
