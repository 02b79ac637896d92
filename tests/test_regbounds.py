"""Regularity bounds, exact-value classes, and the claim-checking harness."""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from edgeideal import regbounds
from edgeideal.betti import regularity
from edgeideal.evenconnection import gprime
from edgeideal.families import (
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
    pendant_cycle_star,
    whisker,
)
from edgeideal.graphs import Graph, parse_graph
from edgeideal.invariants import induced_matching_number
from edgeideal.limits import Caps
from edgeideal.monomials import edge_ideal
from edgeideal.regbounds import (
    CheckConfig,
    check_theorems,
    gap_search,
    graph_id,
    reg_exact_class,
    reg_lower_bound,
    reg_upper_bound_bipartition,
    reg_upper_bound_cochord,
    reg_upper_bound_matching,
    russ_lower_bound,
    russ_lower_bound_witness,
    upper_bounds_proven,
)

from oracles import random_graph

# triangle x1x2x3 with one pendant on each corner; unmixed but not bipartite
UNMIXED_TRIANGLE = parse_graph(
    "x1 x4\nx1 x2\nx1 x3\nx2 x3\nx2 x5\nx3 x6"
)


def test_bound_values_on_cycles():
    assert reg_lower_bound(cycle(6), 1) == 3
    assert reg_lower_bound(cycle(6), 2) == 5
    assert reg_upper_bound_cochord(cycle(6), 1) == 3
    assert reg_upper_bound_matching(cycle(6), 1) == 3
    assert reg_lower_bound(cycle(8), 2) == 5
    assert reg_upper_bound_cochord(cycle(8), 2) == 6


def test_bound_input_validation():
    with pytest.raises(ValueError):
        reg_lower_bound(cycle(6), 0)
    with pytest.raises(ValueError):
        reg_upper_bound_bipartition(cycle(5), 1)


def test_upper_bounds_proven_scope():
    assert upper_bounds_proven(cycle(5), 1)
    assert not upper_bounds_proven(cycle(5), 2)
    assert upper_bounds_proven(cycle(6), 2)


def test_bipartition_bound():
    b = reg_upper_bound_bipartition(complete_bipartite(2, 5), 1)
    assert b.value == Fraction(5, 2)
    assert b.floor == 2
    assert regularity(edge_ideal(complete_bipartite(2, 5))) <= b.floor


def test_exact_class_lone_cycles():
    assert reg_exact_class(cycle(5), 1) is None
    got = reg_exact_class(cycle(5), 2)
    assert (got.value, got.class_tag) == (4, "cycle")
    got = reg_exact_class(cycle(3), 1)
    assert (got.value, got.class_tag) == (2, "cycle")
    got = reg_exact_class(cycle(6), 1)
    assert (got.value, got.class_tag) == (3, "cycle")
    assert "p6-free-bipartite" in got.all_tags
    assert "reg3-connected-bipartite" in got.all_tags


def test_exact_class_cycles_plus_edges():
    assert reg_exact_class(disjoint_union([cycle(5), cycle(5)]), 1) is None

    g = disjoint_union([cycle(5), path(2)])
    got = reg_exact_class(g, 1)
    assert (got.value, got.class_tag) == (4, "cycles-plus-edges")
    assert regularity(edge_ideal(g)) == 4

    g = disjoint_union([path(2), path(2)])
    got = reg_exact_class(g, 1)
    assert (got.value, got.class_tag) == (3, "cycles-plus-edges")
    assert regularity(edge_ideal(g)) == 3


def test_exact_class_bipartite_families():
    got = reg_exact_class(whisker(cycle(4)), 2)
    assert (got.value, got.class_tag) == (5, "unmixed-bipartite")
    assert "whiskered-bipartite" in got.all_tags

    got = reg_exact_class(path(7), 2)
    assert (got.value, got.class_tag) == (5, "weakly-chordal-bipartite")
    assert regularity(edge_ideal(path(7))) == 3  # s = 1 sanity for the same graph

    assert reg_exact_class(Graph(["x1", "x2"], []), 1) is None


def test_russ_lower_bound_values():
    assert russ_lower_bound(cycle(6), 1) == 3
    assert russ_lower_bound(cycle(8), 1) == 4  # length 2 mod 3 earns a unit
    assert russ_lower_bound(cycle(8), 2) == 5  # ... but not at s >= 2 alone
    assert russ_lower_bound(Graph(["x1"], []), 2) == 3


def test_russ_witness_on_pendant_cycle_star():
    g = pendant_cycle_star(1, [4])
    value, witness = russ_lower_bound_witness(g, 2)
    assert value == 7
    parts = sorted((set(p) for p in witness), key=len)
    assert parts[0] == {"x1", "y1"}
    assert parts[1] == {"x2"} | {f"z2.{j}" for j in range(1, 8)}
    assert russ_lower_bound(g, 1) == 5


def _witness_is_valid(g, s, value, witness):
    from oracles import _induces_cycle

    seen = set()
    weight = 0
    for part in witness:
        assert not (set(part) & seen)
        for u in part:
            for v in seen:
                assert not g.has_edge(u, v)
        seen |= set(part)
        if len(part) == 2:
            assert g.has_edge(*part)
            weight += 1
        else:
            assert _induces_cycle(g, part)
            weight += len(part) // 3
    # every unit beyond the plain weights must come from 2 mod 3 cycles
    cycles = [p for p in witness if len(p) > 2]
    bonus = value - (2 * s + weight - 1)
    assert 0 <= bonus <= sum(1 for p in cycles if len(p) % 3 == 2)
    if bonus and s >= 2:
        assert any(len(p) == 2 for p in witness)
        assert all(len(p) % 3 == 2 for p in cycles)


def test_russ_witnesses_validate_and_bound_the_oracle():
    rng = random.Random(41)
    pool = [cycle(6), cycle(8), pendant_cycle_star(1, [4]), whisker(cycle(4))]
    pool += [random_graph(rng, rng.randint(3, 6), 0.5) for _ in range(12)]
    for g in pool:
        for s in (1, 2):
            value, witness = russ_lower_bound_witness(g, s)
            _witness_is_valid(g, s, value, witness)
            assert value >= reg_lower_bound(g, s)
        if g.edges and g.n_vertices <= 6:
            assert russ_lower_bound(g, 1) <= regularity(edge_ideal(g))


def test_check_theorems_hexagon_is_clean():
    config = CheckConfig(
        s_values=(1, 2), max_multiset_size=2, oracle=True, power_recursion=True
    )
    reports = check_theorems(cycle(6), config)
    assert [r.s for r in reports] == [1, 2]
    assert not any(r.has_failure() for r in reports)

    first, second = reports
    assert (first.nu, first.cochord, first.ba) == (2, 2, 2)
    assert first.oracle == 3 and second.oracle == 5
    assert first.bounds["lower"] == 3
    assert first.bounds["russ_lower"] == 3
    assert first.bounds["cochord_upper"] == {"value": 3, "proven": True}
    assert first.bounds["bipartition_upper"] == {"value": "7/2", "floor": 3}
    assert (first.exact.value, first.exact.class_tag) == (3, "cycle")

    by_tag = {}
    for record in second.checks:
        by_tag.setdefault(record.citation, []).append(record)
    assert all(r.status == "pass" for r in by_tag["derived-graph-routes"])
    assert all(r.status == "pass" for r in by_tag["iterated-colon-collapse"])
    assert all(r.status == "pass" for r in by_tag["power-reg-recursion"])
    colon = [
        r for r in by_tag["colon-reg-bounded"] if "[x2*x3, x4*x5]" in r.claim
    ]
    assert len(colon) == 1 and colon[0].status == "pass"
    assert "colon regularity 2 <= graph regularity 3" in colon[0].claim


def test_check_theorems_records_unproven_claims_without_failing():
    config = CheckConfig(s_values=(1,), max_multiset_size=1, oracle=True)
    (report,) = check_theorems(UNMIXED_TRIANGLE, config)
    assert not report.has_failure()
    unmixed = [c for c in report.checks if c.citation == "unmixed-preserved"]
    assert len(unmixed) == 6
    bad = sorted(c.claim.split("[")[1] for c in unmixed if c.status == "recorded-fail")
    assert bad == ["x1*x2]", "x1*x3]", "x2*x3]"]
    assert all(
        c.status == "recorded-pass" for c in unmixed if c.claim.split("[")[1] not in bad
    )


def test_check_theorems_octagon_square():
    config = CheckConfig(s_values=(2,), oracle=True)
    (report,) = check_theorems(cycle(8), config)
    assert report.oracle == 5
    assert report.bounds["lower"] == 5
    assert report.bounds["russ_lower"] == 5
    assert report.bounds["cochord_upper"] == {"value": 6, "proven": True}
    assert (report.exact.value, report.exact.class_tag) == (5, "cycle")
    assert not report.has_failure()
    assert all(c.status in ("pass", "recorded-pass") for c in report.checks)


def test_check_theorems_reads_each_invariant_once_per_graph(monkeypatch):
    calls = {}

    def counting(name):
        fn = getattr(regbounds, name)

        def wrapper(arg, *rest, **kwargs):
            calls.setdefault(name, []).append(arg)
            return fn(arg, *rest, **kwargs)

        monkeypatch.setattr(regbounds, name, wrapper)

    for name in (
        "cochordal_cover_number", "induced_matching_number", "is_unmixed", "regularity"
    ):
        counting(name)
    g = whisker(cycle(4))
    config = CheckConfig(s_values=(1, 2), max_multiset_size=2)
    reports = check_theorems(g, config)
    assert not any(r.has_failure() for r in reports)

    derived = {
        gprime(g, multiset)
        for size in (1, 2)
        for multiset in combinations_with_replacement(g.edges, size)
    }
    graphs = {g} | derived
    for name in ("cochordal_cover_number", "induced_matching_number", "is_unmixed"):
        seen = calls[name]
        assert len(seen) == len(set(seen)), name
        assert set(seen) <= graphs, name
    assert calls["regularity"].count(edge_ideal(g)) == 1


def test_gap_search_distribution():
    report = gap_search([path(2)], 1)
    assert report.total == 1 and report.skipped == 0
    assert report.distribution == {0: {0: 1}}
    assert report.strict == []

    batch = [cycle(5), cycle(6), cycle(7), path(4), path(2)]
    report = gap_search(batch, 1)
    assert report.total == 5
    assert report.distribution == {0: {0: 3}, 1: {0: 1, 1: 1}}
    assert report.strict == []
    assert "gap 1" in report.to_text()


def test_gap_search_counts_capped_graphs_as_skipped():
    report = gap_search([cycle(8), path(2)], 1, caps=Caps(max_lattice=10))
    assert report.total == 2 and report.skipped == 1
    assert report.distribution == {0: {0: 1}}


def test_report_json_round_trip():
    config = CheckConfig(s_values=(1,), max_multiset_size=1, oracle=True)
    (report,) = check_theorems(cycle(4), config)
    data = json.loads(json.dumps(report.to_json_dict()))
    assert set(data) == {
        "graph", "s", "nu", "cochord", "ba", "bounds", "exact", "oracle",
        "char", "checks",
    }
    assert data["s"] == 1 and data["oracle"] == 2
    assert data["exact"]["class"] == "cycle"
    for check in data["checks"]:
        assert set(check) == {"claim", "citation", "status"}
    text = report.to_text()
    assert "graph: x1-x2,x1-x4,x2-x3,x3-x4" in text


def test_graph_id_formats():
    assert graph_id(path(2)) == "x1-x2"
    assert graph_id(Graph(["x1"], [])) == "isolated:x1"
    assert graph_id(Graph([], [])) == "(empty graph)"
    g = Graph(["x1", "x2", "x3"], [("x1", "x2")])
    assert graph_id(g) == "x1-x2;isolated:x3"
